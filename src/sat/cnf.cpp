#include "sat/cnf.hpp"

#include <algorithm>

namespace matador::sat {

namespace {

/// g <-> a & b.
void gate_clauses(Cnf& cnf, Lit g, Lit a, Lit b) {
    cnf.binary(neg(g), a);
    cnf.binary(neg(g), b);
    cnf.ternary(g, neg(a), neg(b));
}

}  // namespace

AigCnf encode_aig(const logic::Aig& aig) {
    AigCnf enc;
    Cnf& cnf = enc.cnf;

    // Var 0 = constant false.  The unit clause pinning it is emitted lazily:
    // a formula whose cone never touches a constant stays constant-free.
    const Var const_var = cnf.new_var();
    bool const_used = false;

    // One variable per PI, in PI order.
    std::vector<Var> node_var(aig.num_nodes(), 0);
    enc.pi_lits.reserve(aig.num_pis());
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
        const auto node = logic::lit_node(aig.pi(i));
        node_var[node] = cnf.new_var();
        enc.pi_lits.push_back(mk_lit(node_var[node]));
    }

    // Mark the PO-reachable cone (dead logic costs nothing).
    std::vector<bool> in_cone(aig.num_nodes(), false);
    std::vector<std::uint32_t> stack;
    for (std::size_t o = 0; o < aig.num_pos(); ++o) {
        const auto node = logic::lit_node(aig.po(o));
        if (!in_cone[node]) {
            in_cone[node] = true;
            stack.push_back(node);
        }
    }
    while (!stack.empty()) {
        const auto node = stack.back();
        stack.pop_back();
        if (!aig.is_and(node)) continue;
        for (const auto fi : {aig.node_fanin0(node), aig.node_fanin1(node)}) {
            const auto fn = logic::lit_node(fi);
            if (!in_cone[fn]) {
                in_cone[fn] = true;
                stack.push_back(fn);
            }
        }
    }

    // AIG lit -> CNF lit (nodes are created fanin-first, so a forward walk
    // sees every fanin's variable before the gate that reads it).
    const auto cnf_lit = [&](logic::Lit l) -> Lit {
        const auto node = logic::lit_node(l);
        if (node == 0) const_used = true;
        return mk_lit(node_var[node], logic::lit_complement(l));
    };

    for (std::uint32_t node = 1; node < aig.num_nodes(); ++node) {
        if (!in_cone[node] || !aig.is_and(node)) continue;
        const Lit a = cnf_lit(aig.node_fanin0(node));
        const Lit b = cnf_lit(aig.node_fanin1(node));
        node_var[node] = cnf.new_var();
        gate_clauses(cnf, mk_lit(node_var[node]), a, b);
        enc.gates_encoded++;
    }

    enc.po_lits.reserve(aig.num_pos());
    for (std::size_t o = 0; o < aig.num_pos(); ++o)
        enc.po_lits.push_back(cnf_lit(aig.po(o)));

    if (const_used) cnf.unit(mk_lit(const_var, true));
    return enc;
}

ConeCnf encode_cone(const logic::Aig& aig, logic::Lit root) {
    ConeCnf out;
    Cnf& cnf = out.cnf;
    const Var const_var = cnf.new_var();
    bool const_used = false;

    // cone[k] gets variable k + 1.
    const auto cone = aig.cone(root);
    const auto cnf_lit = [&](logic::Lit l) -> Lit {
        const std::uint32_t n = logic::lit_node(l);
        if (n == 0) {
            const_used = true;
            return mk_lit(const_var, logic::lit_complement(l));
        }
        const auto k = std::lower_bound(cone.begin(), cone.end(), n) - cone.begin();
        return mk_lit(Var(k + 1), logic::lit_complement(l));
    };
    for (const std::uint32_t n : cone) {
        const Lit v = mk_lit(cnf.new_var());
        if (aig.is_pi(n))
            out.pis.emplace_back(aig.pi_index(n), v);
        else
            gate_clauses(cnf, v, cnf_lit(aig.node_fanin0(n)), cnf_lit(aig.node_fanin1(n)));
    }
    out.root = cnf_lit(root);
    std::sort(out.pis.begin(), out.pis.end());
    if (const_used) cnf.unit(mk_lit(const_var, true));
    return out;
}

}  // namespace matador::sat
