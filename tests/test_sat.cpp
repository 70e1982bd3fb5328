// Tests for the SAT equivalence tier (src/sat/).
//
// Four angles: (1) the CDCL core on classic formulas - pigeonhole (UNSAT
// with a replayable RUP trace), random 3-SAT near the phase transition
// (every SAT model checked, every UNSAT trace verified, the search's stats
// pinned), a RUP replay that never certifies a satisfiable formula, and
// the empty / unit / assumption edge cases; (2) the Tseitin encoders,
// whole-AIG and single-cone, against AIG simulation on random networks;
// (3) miters - a clean design must prove
// EQUIVALENT on every output, a netlist with one seeded PO inversion must
// be refuted with a concretely confirmed counterexample; (4) the prove
// report's JSON round-trip (the proof artifact's disk representation).
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lint/ternary.hpp"
#include "logic/aig_simulate.hpp"
#include "model/architecture.hpp"
#include "model/trained_model.hpp"
#include "rtl/generators.hpp"
#include "sat/cnf.hpp"
#include "sat/miter.hpp"
#include "sat/prove.hpp"
#include "util/rng.hpp"

namespace {

using namespace matador;
using sat::Cnf;
using sat::Lit;
using sat::mk_lit;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

// ---------------------------------------------------------------------------
// CDCL core: classic formulas
// ---------------------------------------------------------------------------

/// PHP(holes): holes+1 pigeons into `holes` holes.  UNSAT, and hard enough
/// to force real conflict analysis (no polynomial resolution proof exists).
Cnf pigeonhole(std::size_t holes) {
    const std::size_t pigeons = holes + 1;
    Cnf cnf;
    std::vector<std::vector<Var>> in(pigeons);
    for (std::size_t p = 0; p < pigeons; ++p)
        for (std::size_t h = 0; h < holes; ++h) in[p].push_back(cnf.new_var());
    // Every pigeon sits somewhere.
    for (std::size_t p = 0; p < pigeons; ++p) {
        std::vector<Lit> c;
        for (std::size_t h = 0; h < holes; ++h) c.push_back(mk_lit(in[p][h], false));
        cnf.add(c);
    }
    // No two pigeons share a hole.
    for (std::size_t h = 0; h < holes; ++h)
        for (std::size_t p = 0; p < pigeons; ++p)
            for (std::size_t q = p + 1; q < pigeons; ++q)
                cnf.binary(mk_lit(in[p][h], true), mk_lit(in[q][h], true));
    return cnf;
}

/// Every SolverStats field, in declaration order.
using StatsTuple = std::array<std::uint64_t, 6>;

StatsTuple stats_tuple(const sat::SolverStats& s) {
    return {s.decisions, s.propagations, s.conflicts,
            s.learned_clauses, s.learned_literals, s.restarts};
}

TEST(SatSolver, PigeonholeUnsatWithCheckedTrace) {
    for (std::size_t holes : {2, 3, 4, 5, 6}) {
        Solver s(pigeonhole(holes));
        EXPECT_EQ(s.solve(), SolveResult::kUnsat) << "holes=" << holes;
        EXPECT_TRUE(s.verify_unsat()) << "holes=" << holes;
        if (holes >= 4) EXPECT_GT(s.stats().conflicts, 0u);
        // The search itself is pinned: a storage or propagation rewrite
        // must make the same decisions and conflicts.  A change that alters
        // the search on purpose updates these together with
        // kSatSubsystemVersion.
        if (holes == 5)
            EXPECT_EQ(stats_tuple(s.stats()), (StatsTuple{208, 1913, 165, 164, 1430, 1}));
        if (holes == 6)
            EXPECT_EQ(stats_tuple(s.stats()), (StatsTuple{821, 8742, 698, 697, 8796, 4}));
    }
}

TEST(SatSolver, PigeonholeSatWhenPigeonsFit) {
    // holes pigeons into holes holes is satisfiable; drop the last pigeon's
    // clauses by building the formula directly.
    const std::size_t holes = 4;
    Cnf cnf;
    std::vector<std::vector<Var>> in(holes);
    for (auto& row : in)
        for (std::size_t h = 0; h < holes; ++h) row.push_back(cnf.new_var());
    for (auto& row : in) {
        std::vector<Lit> c;
        for (auto v : row) c.push_back(mk_lit(v, false));
        cnf.add(c);
    }
    for (std::size_t h = 0; h < holes; ++h)
        for (std::size_t p = 0; p < holes; ++p)
            for (std::size_t q = p + 1; q < holes; ++q)
                cnf.binary(mk_lit(in[p][h], true), mk_lit(in[q][h], true));
    Solver s(cnf);
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_TRUE(sat::model_satisfies(cnf, s));
}

TEST(SatSolver, Random3SatNearThreshold) {
    // 30 variables at clause/variable ratio ~4.3: a mix of SAT and UNSAT
    // instances.  Every answer must be certified - models re-checked
    // against the formula, UNSAT traces replayed - and every search's stats
    // are pinned (see PigeonholeUnsatWithCheckedTrace).
    const std::size_t n = 30, m = 129;
    const StatsTuple want[20] = {
        {34, 289, 29, 29, 89, 0},  {45, 314, 36, 36, 146, 0}, {24, 182, 16, 16, 61, 0},
        {12, 84, 5, 5, 22, 0},     {26, 216, 18, 18, 54, 0},  {22, 214, 20, 19, 51, 0},
        {15, 33, 1, 1, 5, 0},      {24, 206, 21, 20, 64, 0},  {14, 53, 2, 2, 6, 0},
        {21, 84, 6, 6, 25, 0},     {14, 106, 8, 8, 30, 0},    {17, 165, 18, 17, 59, 0},
        {20, 209, 19, 18, 55, 0},  {26, 227, 27, 26, 88, 0},  {7, 41, 2, 2, 5, 0},
        {20, 113, 11, 11, 44, 0},  {37, 241, 25, 25, 102, 0}, {27, 260, 24, 24, 80, 0},
        {47, 403, 41, 40, 137, 0}, {35, 303, 30, 29, 95, 0}};
    std::size_t sat_seen = 0, unsat_seen = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        util::Xoshiro256ss rng(seed);
        Cnf cnf;
        for (std::size_t v = 0; v < n; ++v) cnf.new_var();
        for (std::size_t c = 0; c < m; ++c) {
            std::vector<Lit> lits;
            while (lits.size() < 3) {
                const Var v = Var(rng() % n);
                const Lit l = mk_lit(v, rng() & 1);
                if (std::find(lits.begin(), lits.end(), l) == lits.end() &&
                    std::find(lits.begin(), lits.end(), sat::neg(l)) == lits.end())
                    lits.push_back(l);
            }
            cnf.add(lits);
        }
        Solver s(cnf);
        const auto r = s.solve();
        EXPECT_EQ(stats_tuple(s.stats()), want[seed - 1]) << "seed=" << seed;
        if (r == SolveResult::kSat) {
            ++sat_seen;
            EXPECT_TRUE(sat::model_satisfies(cnf, s)) << "seed=" << seed;
        } else {
            ASSERT_EQ(r, SolveResult::kUnsat) << "seed=" << seed;
            ++unsat_seen;
            EXPECT_TRUE(s.verify_unsat()) << "seed=" << seed;
        }
    }
    // Near the threshold both outcomes must actually occur.
    EXPECT_GT(sat_seen, 0u);
    EXPECT_GT(unsat_seen, 0u);
}

/// A satisfiable 3-CNF with a planted solution: 4 unit clauses, then 90
/// ternary clauses the planted assignment satisfies.
Cnf planted_3sat(std::uint64_t seed) {
    const std::size_t n = 30, m = 90, units = 4;
    util::Xoshiro256ss rng(seed);
    std::vector<bool> x(n);
    for (std::size_t v = 0; v < n; ++v) x[v] = rng() & 1;
    Cnf cnf;
    for (std::size_t v = 0; v < n; ++v) cnf.new_var();
    for (std::size_t u = 0; u < units; ++u) {
        const Var v = Var(rng() % n);
        cnf.unit(mk_lit(v, !x[v]));
    }
    while (cnf.clauses.size() < units + m) {
        Var v[3];
        for (auto& vi : v) vi = Var(rng() % n);
        if (v[0] == v[1] || v[0] == v[2] || v[1] == v[2]) continue;
        std::vector<Lit> c;
        bool satisfied = false;
        for (const Var vi : v) {
            const bool negated = rng() & 1;
            c.push_back(mk_lit(vi, negated));
            satisfied = satisfied || x[vi] != negated;
        }
        if (satisfied) cnf.add(c);
    }
    return cnf;
}

TEST(SatSolver, RupReplayStandsOnItsOwn) {
    // The replay must not lean on solve()'s root propagation having
    // reordered the watches.  A clause whose first two literals are false
    // at the root is a unit when exactly one other literal is free, and
    // neither a unit nor a conflict when two are.
    Cnf small;
    const Var a = small.new_var(), b = small.new_var(), c = small.new_var(),
              d = small.new_var();
    small.unit(mk_lit(a, true));                                          // ~a
    small.ternary(mk_lit(a, false), mk_lit(b, false), mk_lit(c, false));  // a | b | c
    small.binary(mk_lit(b, true), mk_lit(d, false));                      // ~b | d
    small.binary(mk_lit(b, true), mk_lit(d, true));                       // ~b | ~d

    // Sound: never certifies a satisfiable formula, before or after solve().
    std::vector<std::pair<std::string, Cnf>> formulas{{"small", small}};
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        formulas.emplace_back("planted seed=" + std::to_string(seed), planted_3sat(seed));
    for (const auto& [name, cnf] : formulas) {
        Solver s(cnf);
        EXPECT_FALSE(s.verify_unsat()) << name << ", before solve()";
        ASSERT_EQ(s.solve(), SolveResult::kSat) << name;
        EXPECT_TRUE(sat::model_satisfies(cnf, s)) << name;
        EXPECT_FALSE(s.verify_unsat()) << name << ", after solve()";
    }

    // Complete: with ~b as well, a | b | c forces c, and c refutes the
    // formula by unit propagation alone - no solve() needed.
    Cnf refuted = small;
    refuted.unit(mk_lit(b, true));
    refuted.binary(mk_lit(c, true), mk_lit(d, false));  // ~c | d
    refuted.binary(mk_lit(c, true), mk_lit(d, true));   // ~c | ~d
    Solver s(refuted);
    EXPECT_TRUE(s.verify_unsat()) << "before solve()";
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat()) << "after solve()";
}

TEST(SatSolver, EmptyClauseIsUnsat) {
    Solver s;
    s.add_clause({});
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat());
}

TEST(SatSolver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, ConflictingUnitsAreUnsatAtRoot) {
    Cnf cnf;
    const Var x = cnf.new_var();
    cnf.unit(mk_lit(x, false));
    cnf.unit(mk_lit(x, true));
    Solver s(cnf);
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat());
}

TEST(SatSolver, TautologyAndDuplicateLiteralsAreHarmless) {
    Cnf cnf;
    const Var x = cnf.new_var(), y = cnf.new_var();
    cnf.add({mk_lit(x, false), mk_lit(x, true)});             // tautology
    cnf.add({mk_lit(y, false), mk_lit(y, false)});            // duplicate -> unit
    cnf.add({mk_lit(x, false), mk_lit(y, true), mk_lit(y, true)});
    Solver s(cnf);
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_TRUE(s.model_value(y));
    EXPECT_TRUE(s.model_value(x));  // forced once y is true
}

TEST(SatSolver, PureLiteralFormulaIsSat) {
    // Every variable occurs in one polarity only: trivially satisfiable,
    // and the all-true assignment of the pure literals must be found
    // without any conflicts.
    Cnf cnf;
    std::vector<Var> v;
    for (int i = 0; i < 6; ++i) v.push_back(cnf.new_var());
    cnf.ternary(mk_lit(v[0], false), mk_lit(v[1], false), mk_lit(v[2], false));
    cnf.ternary(mk_lit(v[1], false), mk_lit(v[3], true), mk_lit(v[4], true));
    cnf.binary(mk_lit(v[4], true), mk_lit(v[5], false));
    Solver s(cnf);
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_TRUE(sat::model_satisfies(cnf, s));
    EXPECT_EQ(s.stats().conflicts, 0u);
}

TEST(SatSolver, AssumptionsAreIncremental) {
    Cnf cnf;
    const Var x = cnf.new_var(), y = cnf.new_var();
    cnf.binary(mk_lit(x, true), mk_lit(y, false));  // x -> y
    Solver s(cnf);
    // Contradictory assumptions: UNSAT under {x, !y}, but the formula
    // itself stays satisfiable for later calls.
    EXPECT_EQ(s.solve({mk_lit(x, false), mk_lit(y, true)}), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat());
    ASSERT_EQ(s.solve({mk_lit(x, false)}), SolveResult::kSat);
    EXPECT_TRUE(s.model_value(x));
    EXPECT_TRUE(s.model_value(y));
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(SatSolver, ReusedSolverCertifiesUnsatThatLeansOnEarlierLearning) {
    // PHP(4) with every clause guarded by a selector: refuting it under
    // !sel learns clauses up to the unit sel.  The second solve under !sel
    // is refuted by that unit alone, with nothing new learned, so its
    // answer replays only if the trace still holds the first derivation.
    Cnf cnf = pigeonhole(4);
    const Var sel = cnf.new_var();
    for (auto& c : cnf.clauses) c.push_back(mk_lit(sel, false));
    Solver s(cnf);
    const std::vector<Lit> guard{mk_lit(sel, true)};
    ASSERT_EQ(s.solve(guard), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat());
    const std::size_t learned = s.trace_size();
    EXPECT_GT(learned, 0u);
    ASSERT_EQ(s.solve(guard), SolveResult::kUnsat);
    EXPECT_EQ(s.trace_size(), learned);
    EXPECT_TRUE(s.verify_unsat());
    // A satisfiable solve in between keeps the trace sound.
    ASSERT_EQ(s.solve({mk_lit(sel, false)}), SolveResult::kSat);
    ASSERT_EQ(s.solve(guard), SolveResult::kUnsat);
    EXPECT_TRUE(s.verify_unsat());

    // Unguarded, the first solve refutes the database at the root and a
    // second solve answers from that alone.
    Solver php(pigeonhole(4));
    ASSERT_EQ(php.solve(), SolveResult::kUnsat);
    EXPECT_TRUE(php.verify_unsat());
    ASSERT_EQ(php.solve(), SolveResult::kUnsat);
    EXPECT_TRUE(php.verify_unsat());
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
    Solver s(pigeonhole(7));
    s.set_max_conflicts(3);
    EXPECT_EQ(s.solve(), SolveResult::kUnknown);
}

// ---------------------------------------------------------------------------
// Tseitin encoder vs 64-way AIG simulation
// ---------------------------------------------------------------------------

logic::Aig random_aig(std::size_t pis, std::size_t ands, std::size_t pos,
                      std::uint64_t seed, bool strash) {
    util::Xoshiro256ss rng(seed);
    logic::Aig aig(strash);
    std::vector<logic::Lit> lits{logic::kConst0, logic::kConst1};
    for (std::size_t i = 0; i < pis; ++i) lits.push_back(aig.create_pi());
    for (std::size_t i = 0; i < ands; ++i) {
        const auto a = lits[rng() % lits.size()] ^ logic::Lit(rng() & 1);
        const auto b = lits[rng() % lits.size()] ^ logic::Lit(rng() & 1);
        lits.push_back(aig.create_and(a, b));
    }
    for (std::size_t i = 0; i < pos; ++i)
        aig.add_po(lits[lits.size() - 1 - (rng() % (ands + 1))] ^
                   logic::Lit(rng() & 1));
    return aig;
}

TEST(SatCnf, EncoderMatchesSimulation) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto aig = random_aig(8, 24, 4, seed, /*strash=*/seed % 2 == 0);
        const auto enc = sat::encode_aig(aig);
        util::Xoshiro256ss rng(seed * 77);
        for (int round = 0; round < 16; ++round) {
            std::vector<bool> x(aig.num_pis());
            std::vector<Lit> assume;
            for (std::size_t i = 0; i < x.size(); ++i) {
                x[i] = rng() & 1;
                assume.push_back(x[i] ? enc.pi_lits[i] : sat::neg(enc.pi_lits[i]));
            }
            Solver s(enc.cnf);
            ASSERT_EQ(s.solve(assume), SolveResult::kSat);
            const auto want = logic::simulate_single(aig, x);
            for (std::size_t j = 0; j < aig.num_pos(); ++j)
                EXPECT_EQ(s.model_lit(enc.po_lits[j]), want[j])
                    << "seed=" << seed << " round=" << round << " po=" << j;
        }
    }
}

TEST(SatCnf, ConeEncodingMatchesSimulation) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto aig = random_aig(8, 24, 4, seed, /*strash=*/seed % 2 == 0);
        util::Xoshiro256ss rng(seed * 31);
        for (std::size_t o = 0; o < aig.num_pos(); ++o) {
            const auto cone = sat::encode_cone(aig, aig.po(o));
            const auto support = [&] {
                std::vector<std::size_t> pis;
                for (const auto& [pi, lit] : cone.pis) pis.push_back(pi);
                return pis;
            }();
            EXPECT_TRUE(std::is_sorted(support.begin(), support.end()));
            for (int round = 0; round < 16; ++round) {
                std::vector<bool> x(aig.num_pis());
                for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng() & 1;
                std::vector<Lit> assume;
                for (const auto& [pi, lit] : cone.pis)
                    assume.push_back(x[pi] ? lit : sat::neg(lit));
                Solver s(cone.cnf);
                ASSERT_EQ(s.solve(assume), SolveResult::kSat);
                EXPECT_EQ(s.model_lit(cone.root), logic::simulate_single(aig, x)[o])
                    << "seed=" << seed << " po=" << o << " round=" << round;
            }
        }
    }
}

TEST(SatCnf, ConstantOutputsFoldToUnits) {
    // A PO tied to constant 1 and one tied to 0: no gate clauses needed,
    // and the encoding pins them through the constant var's unit clause.
    logic::Aig aig(/*strash=*/true);
    aig.create_pi();
    aig.add_po(logic::kConst1);
    aig.add_po(logic::kConst0);
    const auto enc = sat::encode_aig(aig);
    EXPECT_EQ(enc.gates_encoded, 0u);
    Solver s(enc.cnf);
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_TRUE(s.model_lit(enc.po_lits[0]));
    EXPECT_FALSE(s.model_lit(enc.po_lits[1]));
    // Asking for the constant-0 PO to be true must be refutable.
    Solver s2(enc.cnf);
    EXPECT_EQ(s2.solve({enc.po_lits[1]}), SolveResult::kUnsat);
    EXPECT_TRUE(s2.verify_unsat());
}

// ---------------------------------------------------------------------------
// Miters and the prove driver
// ---------------------------------------------------------------------------

model::TrainedModel random_model(std::size_t features, std::size_t classes,
                                 std::size_t cpc, double density,
                                 std::uint64_t seed) {
    model::TrainedModel m(features, classes, cpc);
    util::Xoshiro256ss rng(seed);
    for (std::size_t c = 0; c < classes; ++c)
        for (std::size_t j = 0; j < cpc; ++j)
            for (std::size_t f = 0; f < features; ++f) {
                const double r = rng.uniform();
                if (r < density)
                    m.clause(c, j).include_pos.set(f);
                else if (r < 2 * density)
                    m.clause(c, j).include_neg.set(f);
            }
    return m;
}

rtl::RtlDesign generate(const model::TrainedModel& m, bool strash,
                        std::size_t bus_width = 8) {
    model::ArchOptions opts;
    opts.bus_width = bus_width;
    return rtl::generate_rtl(m, model::derive_architecture(m, opts), strash);
}

TEST(SatProve, ConeObligationsMatchWholeMiterSolves) {
    // Each output solves only its miter PO's cone.  The verdict and the
    // cared-cube decision must be the ones a solve over the whole HCB miter
    // gets under lint::check_x_insensitive's verdict, on UNSAT (clean) and
    // SAT (inverted PO) outputs alike, with and without strash.
    std::size_t sat_seen = 0, unsat_seen = 0;
    for (const bool strash : {true, false}) {
        const auto m = random_model(16, 2, 4, 0.25, 42);
        auto design = generate(m, strash, /*bus_width=*/8);
        auto& last = design.hcbs.back().aig;
        ASSERT_GT(last.num_pos(), 0u);
        last.set_po(0, logic::lit_not(last.po(0)));
        sat::ProveOptions opt;
        opt.induction_k = 0;
        const auto rep = sat::prove_design(design.hcbs, m, opt);
        const std::size_t cpc = m.clauses_per_class();
        for (const auto& p : rep.outputs) {
            const auto& hcb = design.hcbs[p.hcb];
            const auto& clause = m.clause(p.clause_id / cpc, p.clause_id % cpc);
            std::vector<bool> care(hcb.aig.num_pis(), true);
            bool any_dont_care = false;
            for (std::size_t f = hcb.spec.lo; f < hcb.spec.hi; ++f) {
                care[f - hcb.spec.lo] = clause.include_pos.get(f) || clause.include_neg.get(f);
                any_dont_care = any_dont_care || !care[f - hcb.spec.lo];
            }
            const bool cared =
                any_dont_care &&
                lint::check_x_insensitive(hcb.aig, p.local_output, care, 2, 0x11d5).proved();
            const auto miter = sat::build_hcb_miter(hcb, m);
            const auto enc = sat::encode_aig(miter.aig);
            std::vector<Lit> assumptions{enc.po_lits[p.local_output]};
            if (cared)
                for (std::size_t b = 0; b + hcb.spec.lo < hcb.spec.hi; ++b)
                    if (!care[b]) assumptions.push_back(sat::neg(enc.pi_lits[b]));
            Solver whole(enc.cnf);
            const auto want = whole.solve(assumptions);
            const std::string where = "strash=" + std::to_string(strash) + " output " +
                                      std::to_string(p.output);
            EXPECT_EQ(p.cared_cube, cared) << where;
            EXPECT_EQ(p.result, want) << where;
            if (want == SolveResult::kSat) {
                ++sat_seen;
                EXPECT_EQ(p.counterexample.size(), hcb.aig.num_pis()) << where;
                EXPECT_TRUE(p.counterexample_confirmed) << where;
            } else {
                ++unsat_seen;
                EXPECT_TRUE(p.proof_checked) << where;
            }
        }
    }
    EXPECT_GT(sat_seen, 0u);
    EXPECT_GT(unsat_seen, 0u);
}

TEST(SatProve, CleanDesignProvesEquivalent) {
    for (const bool strash : {true, false}) {
        const auto m = random_model(16, 2, 4, 0.25, 42);
        const auto design = generate(m, strash, /*bus_width=*/8);
        sat::ProveOptions opt;
        const auto rep = sat::prove_design(design.hcbs, m, opt);
        EXPECT_TRUE(rep.equivalent) << "strash=" << strash;
        EXPECT_GT(rep.outputs_total, 0u);
        EXPECT_EQ(rep.outputs_proved, rep.outputs_total);
        EXPECT_EQ(rep.outputs_failed, 0u);
        EXPECT_TRUE(rep.induction_ok);
        for (const auto& o : rep.outputs) EXPECT_TRUE(o.proved());
    }
}

TEST(SatProve, MultiStageChainWithDeeperInduction) {
    // bus_width 4 over 16 features -> a 4-stage chain: real step windows.
    const auto m = random_model(16, 2, 4, 0.3, 7);
    const auto design = generate(m, /*strash=*/true, /*bus_width=*/4);
    sat::ProveOptions opt;
    opt.induction_k = 2;
    const auto rep = sat::prove_design(design.hcbs, m, opt);
    EXPECT_TRUE(rep.equivalent);
    EXPECT_GT(rep.chain_stages, 1u);
    EXPECT_TRUE(rep.induction_ok);
    EXPECT_FALSE(rep.induction.empty());
    for (const auto& c : rep.induction) EXPECT_TRUE(c.proved());
}

TEST(SatProve, InductionDecidesInsideTheConflictsCone) {
    // A 4-stage chain over 256 clauses.  Each window's CNF holds a whole
    // stage and the uniqueness OR, while its goal's few surviving XORs
    // have small cones.  Refuting each over its own cone keeps decisions
    // near the conflict count; a search over the whole window re-decides
    // the stage after every conflict (32 decisions per conflict here, and
    // ~1,200 on flow-mnist's model).
    const auto m = random_model(64, 4, 64, 0.05, 11);
    const auto design = generate(m, /*strash=*/true, /*bus_width=*/16);
    ASSERT_GE(design.hcbs.size(), 4u);
    sat::ProveOptions opt;
    opt.induction_k = 1;
    const auto rep = sat::prove_design(design.hcbs, m, opt);
    ASSERT_TRUE(rep.equivalent);
    sat::SolverStats induction;
    for (const auto& c : rep.induction) induction += c.stats;
    ASSERT_GT(induction.conflicts, 0u);
    EXPECT_LE(induction.decisions, 4 * induction.conflicts)
        << induction.decisions << " decisions for " << induction.conflicts << " conflicts";
}

TEST(SatProve, InjectedNetlistBugIsRefutedWithConfirmedWitness) {
    const auto m = random_model(12, 2, 4, 0.3, 99);
    auto design = generate(m, /*strash=*/true, /*bus_width=*/6);
    // Seed the bug: invert one netlist output of the last HCB.
    auto& aig = design.hcbs.back().aig;
    ASSERT_GT(aig.num_pos(), 0u);
    aig.set_po(0, logic::lit_not(aig.po(0)));

    sat::ProveOptions opt;
    const auto rep = sat::prove_design(design.hcbs, m, opt);
    EXPECT_FALSE(rep.equivalent);
    EXPECT_GE(rep.outputs_failed, 1u);
    bool witnessed = false;
    for (const auto& o : rep.outputs)
        if (o.result == SolveResult::kSat) {
            EXPECT_FALSE(o.counterexample.empty());
            EXPECT_TRUE(o.counterexample_confirmed)
                << "witness for output " << o.output
                << " did not reproduce outside the solver";
            witnessed = true;
        }
    EXPECT_TRUE(witnessed);
    // The chain argument fails too: the inverted output's state XOR is
    // satisfiable in its own cone, so that case is decided over its whole
    // window, and the answer there is a witness, not a budget stop.
    EXPECT_FALSE(rep.induction_ok);
    for (const auto& c : rep.induction)
        if (!c.proved()) EXPECT_EQ(c.result, SolveResult::kSat) << "case " << c.index;
}

TEST(SatProve, ConstantDisagreementFailsItsCase) {
    // Clause 0 includes feature 0 both ways, so both sides fold it to
    // constant 0.  A netlist that drives that output with constant 1
    // disagrees for every input: base case 0's goal is a constant-1 XOR,
    // which the term-by-term refutation must not skip as a constant.
    model::TrainedModel m(8, 1, 2);
    m.clause(0, 0).include_pos.set(0);
    m.clause(0, 0).include_neg.set(0);
    m.clause(0, 1).include_pos.set(1);
    auto design = generate(m, /*strash=*/true, /*bus_width=*/4);
    auto& first = design.hcbs.front();
    ASSERT_EQ(first.spec.active_clauses.front(), 0u);
    ASSERT_EQ(first.aig.po(0), logic::kConst0);
    first.aig.set_po(0, logic::kConst1);

    const auto rep = sat::prove_design(design.hcbs, m, {});
    EXPECT_FALSE(rep.equivalent);
    EXPECT_EQ(rep.outputs_failed, 1u);
    ASSERT_FALSE(rep.induction.empty());
    EXPECT_TRUE(rep.induction.front().is_base);
    EXPECT_EQ(rep.induction.front().result, SolveResult::kSat);
    EXPECT_FALSE(rep.induction_ok);
}

TEST(SatProve, SingleOutputSelection) {
    const auto m = random_model(12, 2, 4, 0.3, 5);
    const auto design = generate(m, true, 6);
    sat::ProveOptions opt;
    opt.output = 0;
    const auto rep = sat::prove_design(design.hcbs, m, opt);
    EXPECT_TRUE(rep.equivalent);
    EXPECT_EQ(rep.outputs_total, 1u);
    EXPECT_EQ(rep.induction_k, 0u);  // induction needs all outputs
    EXPECT_THROW(
        {
            sat::ProveOptions bad;
            bad.output = 100000;
            sat::prove_design(design.hcbs, m, bad);
        },
        std::out_of_range);
}

TEST(SatProve, ReportJsonRoundTrip) {
    const auto m = random_model(12, 2, 4, 0.3, 99);
    auto design = generate(m, true, 6);
    auto& aig = design.hcbs.back().aig;
    aig.set_po(0, logic::lit_not(aig.po(0)));  // keep a counterexample in it
    const auto rep = sat::prove_design(design.hcbs, m, {});
    const auto j = sat::prove_report_to_json(rep);
    const auto back = sat::prove_report_from_json(
        util::Json::parse(j.dump(2)));
    EXPECT_EQ(back.equivalent, rep.equivalent);
    EXPECT_EQ(back.outputs_total, rep.outputs_total);
    EXPECT_EQ(back.outputs_failed, rep.outputs_failed);
    ASSERT_EQ(back.outputs.size(), rep.outputs.size());
    for (std::size_t i = 0; i < rep.outputs.size(); ++i) {
        EXPECT_EQ(back.outputs[i].result, rep.outputs[i].result);
        EXPECT_EQ(back.outputs[i].counterexample, rep.outputs[i].counterexample);
        EXPECT_EQ(back.outputs[i].stats.conflicts, rep.outputs[i].stats.conflicts);
    }
    ASSERT_EQ(back.induction.size(), rep.induction.size());
    EXPECT_EQ(back.induction_ok, rep.induction_ok);
    EXPECT_EQ(back.totals.decisions, rep.totals.decisions);
    EXPECT_THROW(sat::prove_report_from_json(util::Json::object()),
                 std::runtime_error);
    // A count no size_t can hold is refused, not cast.
    auto huge = j;
    huge.set("outputs_total", util::Json(1e300));
    EXPECT_THROW(sat::prove_report_from_json(huge), std::runtime_error);
}

/// The report's JSON with every `seconds` zeroed: everything a prove run
/// must reproduce at any thread count.
std::string report_without_seconds(sat::ProveReport r) {
    r.seconds = 0.0;
    for (auto& o : r.outputs) o.seconds = 0.0;
    for (auto& c : r.induction) c.seconds = 0.0;
    return sat::prove_report_to_json(r).dump();
}

/// Where two report texts first differ, with context; empty when equal.
std::string first_difference(const std::string& a, const std::string& b) {
    if (a == b) return "";
    const auto at = std::size_t(std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
                                a.begin());
    const std::size_t from = at < 60 ? 0 : at - 60;
    return "byte " + std::to_string(at) + ": ..." + a.substr(from, 120) + "... vs ..." +
           b.substr(from, 120) + "...";
}

TEST(SatProve, ParallelFanOutMatchesSerial) {
    // 24 features over a 4-bit bus: a 6-stage chain whose few hundred
    // outputs span several jobs of the prove job list.
    const auto m = random_model(24, 4, 16, 0.2, 11);
    const auto clean = generate(m, true, 4);
    const std::size_t stages = clean.hcbs.size();
    ASSERT_GT(stages, 2u);
    auto faulty = clean;
    auto& bad = faulty.hcbs[stages / 2].aig;
    ASSERT_GT(bad.num_pos(), 0u);
    bad.set_po(0, logic::lit_not(bad.po(0)));

    struct Run {
        const char* name;
        const rtl::RtlDesign* design;
        std::size_t induction_k;
    };
    for (const Run& run : {Run{"k=1", &clean, 1}, Run{"k>=stages", &clean, stages},
                           Run{"injected fault", &faulty, 1}}) {
        sat::ProveOptions opt;
        opt.induction_k = run.induction_k;
        opt.threads = 1;
        const auto serial = sat::prove_design(run.design->hcbs, m, opt);
        ASSERT_GT(serial.outputs_total, 64u) << run.name;
        ASSERT_FALSE(serial.induction.empty()) << run.name;
        EXPECT_EQ(serial.equivalent, run.design == &clean) << run.name;
        const std::string want = report_without_seconds(serial);

        // The fault's witness: which output failed, the counterexample and
        // whether it re-simulated.
        const auto failures = [](const sat::ProveReport& r) {
            std::vector<std::pair<std::size_t, std::vector<bool>>> f;
            for (const auto& o : r.outputs)
                if (o.result == SolveResult::kSat && o.counterexample_confirmed)
                    f.emplace_back(o.output, o.counterexample);
            return f;
        };
        if (run.design == &faulty) {
            EXPECT_EQ(serial.outputs_failed, 1u);
            EXPECT_EQ(failures(serial).size(), 1u);
        }
        for (const unsigned threads : {2u, 4u, 8u}) {
            opt.threads = threads;
            const auto par = sat::prove_design(run.design->hcbs, m, opt);
            EXPECT_EQ(failures(par), failures(serial))
                << run.name << ", threads=" << threads;
            EXPECT_EQ(first_difference(report_without_seconds(par), want), "")
                << run.name << ", threads=" << threads;
        }
    }
}

}  // namespace
