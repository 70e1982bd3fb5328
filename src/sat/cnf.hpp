// CNF formulas and the Tseitin encoders from logic::Aig.
//
// The SAT tier of the verify ladder works on plain clause lists.  Variables
// and literals use the MiniSat packing (lit = 2*var + sign) so clause
// storage, watch lists and model arrays index directly.  encode_aig walks
// only the PO-reachable cone of an AIG - structural hashing has already
// collapsed shared cones to single nodes, so each shared node costs its
// three Tseitin clauses exactly once - and constant fanouts fold to unit
// clauses instead of gate clauses.  encode_cone goes further and numbers
// only one literal's cone, PIs included, so a query about one output of a
// large AIG costs what its cone costs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "logic/aig.hpp"

namespace matador::sat {

using Var = std::uint32_t;
/// Literal: 2*var + sign (sign 1 = negated).
using Lit = std::uint32_t;

inline constexpr Lit kLitUndef = 0xffffffffu;

constexpr Lit mk_lit(Var v, bool neg = false) { return (v << 1) | Lit(neg); }
constexpr Var var_of(Lit l) { return l >> 1; }
constexpr bool sign_of(Lit l) { return l & 1u; }
constexpr Lit neg(Lit l) { return l ^ 1u; }

/// A CNF formula under construction.
struct Cnf {
    Var num_vars = 0;
    std::vector<std::vector<Lit>> clauses;

    Var new_var() { return num_vars++; }

    void add(std::vector<Lit> c) { clauses.push_back(std::move(c)); }
    void unit(Lit a) { add({a}); }
    void binary(Lit a, Lit b) { add({a, b}); }
    void ternary(Lit a, Lit b, Lit c) { add({a, b, c}); }

    /// a <-> b  (two binary clauses).
    void equal(Lit a, Lit b) {
        binary(neg(a), b);
        binary(a, neg(b));
    }
};

/// Result of Tseitin-encoding an AIG.
struct AigCnf {
    Cnf cnf;
    /// CNF literal of each AIG primary input (always allocated, even for
    /// PIs outside the encoded cone, so assumption vectors can index by PI
    /// ordinal unconditionally).
    std::vector<Lit> pi_lits;
    /// CNF literal of each AIG primary output.
    std::vector<Lit> po_lits;
    /// Encoded AND gates (PO-reachable only; strash-shared cones count once).
    std::size_t gates_encoded = 0;
};

/// Tseitin-encode `aig`.  Var 0 is the constant-false variable (asserted by
/// a unit clause only when some PO or gate actually references a constant);
/// every PI gets a variable; PO-reachable AND gates get one variable and
/// three clauses each.  The encoding is incremental-friendly: solve the
/// returned formula under assumptions on pi_lits / po_lits to ask
/// per-output or per-cube questions without re-encoding.
AigCnf encode_aig(const logic::Aig& aig);

/// Tseitin encoding of the fan-in cone of one literal.  Var 0 is the
/// constant-false variable (pinned by a unit clause only when the cone
/// reads a constant); then the cone's nodes in node order, PIs and ANDs
/// alike.  Nothing outside the cone gets a variable.
struct ConeCnf {
    Cnf cnf;
    /// CNF literal of the encoded root.
    Lit root = kLitUndef;
    /// The cone's PIs as (PI ordinal, CNF literal), ascending ordinal.
    std::vector<std::pair<std::size_t, Lit>> pis;
};

ConeCnf encode_cone(const logic::Aig& aig, logic::Lit root);

}  // namespace matador::sat
