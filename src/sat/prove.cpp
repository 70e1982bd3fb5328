#include "sat/prove.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "lint/ternary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/miter.hpp"
#include "train/worker_pool.hpp"

namespace matador::sat {

namespace {

/// One per-output proof obligation.
struct Obligation {
    std::size_t hcb = 0;
    std::size_t local = 0;
    std::size_t global = 0;
    std::uint32_t clause_id = 0;
};

/// Outputs per job on the prove job list: large enough that claiming a
/// job is noise next to proving it, small enough that the last jobs
/// spread over every worker.
constexpr std::size_t kOutputsPerJob = 64;

/// Close `span`; `make_args` builds its args only when a trace records them.
template <class MakeArgs>
double finish_span(obs::TimedSpan& span, MakeArgs&& make_args) {
    if (!obs::TraceRecorder::instance().enabled()) return span.finish();
    return span.finish(make_args());
}

void record_metrics(const SolverStats& s, double seconds) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("sat_decisions").add(s.decisions);
    reg.counter("sat_conflicts").add(s.conflicts);
    reg.counter("sat_learned_clauses").add(s.learned_clauses);
    reg.histogram("sat_proof_seconds").record(seconds);
}

/// One output obligation: "netlist output `local` differs from its scalar
/// clause", solved over the CNF of that one miter PO's cone.  Its cost is
/// set by the cone, not by the HCB: the solver and its RUP replay see only
/// the cone.
OutputProof prove_output(const rtl::HcbNetlist& hcb, const HcbMiter& miter,
                         const model::TrainedModel& m, const Obligation& ob) {
    obs::TimedSpan span("prove-output", "sat");
    OutputProof p;
    p.hcb = ob.hcb;
    p.local_output = ob.local;
    p.output = ob.global;
    p.clause_id = ob.clause_id;

    const auto& spec = hcb.spec;
    const std::size_t cpc = m.clauses_per_class();
    const auto& clause = m.clause(ob.clause_id / cpc, ob.clause_id % cpc);

    // Per-output care set over the netlist PIs: the clause's own includes;
    // chain inputs always cared.
    std::vector<bool> care(hcb.aig.num_pis(), true);
    bool any_dont_care = false;
    for (std::size_t f = spec.lo; f < spec.hi; ++f) {
        care[f - spec.lo] = clause.include_pos.get(f) || clause.include_neg.get(f);
        any_dont_care = any_dont_care || !care[f - spec.lo];
    }
    // Pinning don't-care bits to 0 shrinks the witness space, so it is
    // sound only when the netlist output provably cannot observe them.  No
    // random sweeps: above the exhaustive size they never prove anything.
    if (any_dont_care)
        p.cared_cube = lint::check_x_insensitive(hcb.aig, ob.local, care, 0, 0).proved();

    const ConeCnf cone = encode_cone(miter.aig, miter.aig.po(ob.local));
    std::vector<Lit> assumptions{cone.root};
    if (p.cared_cube)
        for (const auto& [pi, lit] : cone.pis)
            if (!care[pi]) assumptions.push_back(neg(lit));

    Solver solver(cone.cnf);
    const SolveResult res = solver.solve(assumptions);
    p.stats = solver.stats();

    if (res == SolveResult::kUnsat) {
        p.proof_checked = solver.verify_unsat();
        p.result = p.proof_checked ? SolveResult::kUnsat : SolveResult::kUnknown;
    } else if (res == SolveResult::kSat) {
        p.result = SolveResult::kSat;
        // Every HCB PI in PI order; those outside the cone cannot matter
        // and read 0.
        p.counterexample.assign(hcb.aig.num_pis(), false);
        for (const auto& [pi, lit] : cone.pis) p.counterexample[pi] = solver.model_lit(lit);
        // Re-simulate the witness outside the solver: the netlist PO and the
        // scalar partial clause must actually disagree on it.
        util::BitVector x(m.num_features());
        for (std::size_t b = 0; b + spec.lo < spec.hi; ++b)
            x.set(spec.lo + b, p.counterexample[b]);
        std::vector<bool> chain_in(spec.active_clauses.size(), true);
        std::size_t next_chain = spec.hi - spec.lo;
        for (std::size_t i = 0; i < spec.active_clauses.size(); ++i)
            if (spec.has_chain_input[i]) chain_in[i] = p.counterexample[next_chain++];
        const auto po_vals = rtl::evaluate_hcb(hcb, x, chain_in);
        const bool scalar = clause.evaluate_partial(x, spec.lo, spec.hi) &&
                            (spec.has_chain_input[ob.local] ? chain_in[ob.local] : true);
        p.counterexample_confirmed = po_vals[ob.local] != scalar;
    } else {
        p.result = SolveResult::kUnknown;
    }

    p.seconds = finish_span(span, [&] {
        util::Json args = util::Json::object();
        args.set("output", double(p.output));
        args.set("result", solve_result_name(p.result));
        args.set("conflicts", double(p.stats.conflicts));
        return args;
    });
    record_metrics(p.stats, p.seconds);
    return p;
}

// -- k-induction over the chain ---------------------------------------------

/// Symbolically run stage `hcb` of the chain: netlist side by copying the
/// HCB cone, scalar side by re-encoding the include masks, both gated by
/// the chain state exactly when the hardware is (has_chain_input).
void apply_stage(const rtl::HcbNetlist& hcb, const model::TrainedModel& m,
                 logic::Aig& aig, const std::vector<logic::Lit>& packet_bits,
                 std::vector<logic::Lit>& n_state, std::vector<logic::Lit>& c_state) {
    const auto& spec = hcb.spec;
    std::vector<logic::Lit> pi_map = packet_bits;
    for (std::size_t i = 0; i < spec.active_clauses.size(); ++i)
        if (spec.has_chain_input[i]) pi_map.push_back(n_state[spec.active_clauses[i]]);
    const auto outs = append_cone(hcb.aig, aig, pi_map);

    const std::size_t cpc = m.clauses_per_class();
    for (std::size_t i = 0; i < spec.active_clauses.size(); ++i) {
        const std::uint32_t cid = spec.active_clauses[i];
        const logic::Lit chain =
            spec.has_chain_input[i] ? c_state[cid] : logic::kConst1;
        c_state[cid] = encode_scalar_partial(aig, m.clause(cid / cpc, cid % cpc),
                                             spec.lo, spec.hi, packet_bits, chain);
        n_state[cid] = outs[i];
    }
}

logic::Lit or_reduce(logic::Aig& aig, const std::vector<logic::Lit>& lits) {
    logic::Lit r = logic::kConst0;
    for (const logic::Lit l : lits) r = aig.create_or(r, l);
    return r;
}

/// (a_state XOR b_state) per live clause, in `live` order.
std::vector<logic::Lit> state_xors(logic::Aig& aig, const std::vector<std::uint32_t>& live,
                                   const std::vector<logic::Lit>& a,
                                   const std::vector<logic::Lit>& b) {
    std::vector<logic::Lit> xors;
    xors.reserve(live.size());
    for (const auto cid : live) xors.push_back(aig.create_xor(a[cid], b[cid]));
    return xors;
}

/// One induction obligation as an unrolled AIG: is there an assignment
/// with every `assume_true` PO at 1 and every `assume_false` PO at 0?
/// assume_true[0] is the goal, a disagreement between the two sides: the
/// OR of the state XORs in `goal_terms`, the ones strash did not fold to 0.
struct Window {
    logic::Aig aig;
    std::vector<std::size_t> assume_true, assume_false;
    std::vector<logic::Lit> goal_terms;

    void add_goal(const std::vector<logic::Lit>& xors) {
        assume_true.push_back(aig.add_po(or_reduce(aig, xors)));
        for (const logic::Lit x : xors)
            if (x != logic::kConst0) goal_terms.push_back(x);
    }
};

std::vector<logic::Lit> make_packet_pis(logic::Aig& aig, const rtl::HcbSpec& spec) {
    std::vector<logic::Lit> bits(spec.hi - spec.lo);
    for (auto& l : bits) l = aig.create_pi();
    return bits;
}

/// Base case d: unroll stages 0..d from reset (both sides all-1) and prove
/// the state vectors equal after stage d.
Window base_window(const std::vector<rtl::HcbNetlist>& hcbs, const model::TrainedModel& m,
                   const std::vector<std::uint32_t>& live, std::size_t d) {
    Window w;
    std::vector<logic::Lit> n_state(m.total_clauses(), logic::kConst1);
    std::vector<logic::Lit> c_state(m.total_clauses(), logic::kConst1);
    for (std::size_t s = 0; s <= d; ++s)
        apply_stage(hcbs[s], m, w.aig, make_packet_pis(w.aig, hcbs[s].spec), n_state, c_state);
    w.add_goal(state_xors(w.aig, live, n_state, c_state));
    return w;
}

/// Step window t: free (shared) entry state at time t, transitions through
/// stages t+1..t+k, equality assumed at times t..t+k-1, pairwise-distinct
/// netlist state vectors along the window, equality proved at time t+k.
Window step_window(const std::vector<rtl::HcbNetlist>& hcbs, const model::TrainedModel& m,
                   const std::vector<std::uint32_t>& live, std::size_t t, std::size_t k) {
    Window w;
    logic::Aig& aig = w.aig;
    std::vector<logic::Lit> n_state(m.total_clauses(), logic::kConst1);
    std::vector<logic::Lit> c_state(m.total_clauses(), logic::kConst1);
    for (const auto cid : live) {
        const logic::Lit entry = aig.create_pi();
        n_state[cid] = entry;  // equality at time t is built in: one PI
        c_state[cid] = entry;
    }
    std::vector<std::vector<logic::Lit>> n_snapshots{n_state};
    for (std::size_t off = 1; off <= k; ++off) {
        const std::size_t s = t + off;
        apply_stage(hcbs[s], m, aig, make_packet_pis(aig, hcbs[s].spec), n_state, c_state);
        n_snapshots.push_back(n_state);
        if (off < k)  // induction hypothesis: sides equal
            w.assume_false.push_back(
                aig.add_po(or_reduce(aig, state_xors(aig, live, n_state, c_state))));
        else  // goal: a disagreement at t+k
            w.add_goal(state_xors(aig, live, n_state, c_state));
    }
    // Uniqueness: the netlist state vectors along the window are pairwise
    // distinct (the simple-path strengthening of k-induction).
    for (std::size_t i = 0; i < n_snapshots.size(); ++i)
        for (std::size_t j = i + 1; j < n_snapshots.size(); ++j)
            w.assume_true.push_back(aig.add_po(
                or_reduce(aig, state_xors(aig, live, n_snapshots[i], n_snapshots[j]))));
    return w;
}

/// Build base case `index` (is_base) or step window `index` and solve it.
/// The goal is the OR of its terms, so it is first refuted term by term:
/// each term alone, over the CNF of its own AIG cone.  When every term is
/// refuted the goal is constant 0 and the case is UNSAT without encoding
/// the window.  Otherwise the window is solved under the case's own
/// assumptions (goal, uniqueness, hypotheses), and that is the verdict.
/// A window's CNF holds the whole stage and the uniqueness OR, so a search
/// over it re-decides ~1,200 variables outside the next conflict's cone
/// after every conflict; a term's CNF holds only what the term reads.
/// Every UNSAT replays as RUP over its own CNF.
InductionCase prove_case(const std::vector<rtl::HcbNetlist>& hcbs,
                         const model::TrainedModel& m, const std::vector<std::uint32_t>& live,
                         std::size_t k, bool is_base, std::size_t index) {
    obs::TimedSpan span(is_base ? "induction-base" : "induction-step", "sat");
    InductionCase c;
    c.is_base = is_base;
    c.index = index;

    const Window w = is_base ? base_window(hcbs, m, live, index)
                             : step_window(hcbs, m, live, index, k);
    // A fresh solver per solve; an UNSAT whose trace does not replay counts
    // as unknown.
    const auto solve = [&](const Cnf& cnf, const std::vector<Lit>& assumptions) {
        Solver solver(cnf);
        SolveResult res = solver.solve(assumptions);
        if (res == SolveResult::kUnsat && !solver.verify_unsat()) res = SolveResult::kUnknown;
        c.stats += solver.stats();
        return res;
    };

    std::size_t lemmas = 0;
    for (const logic::Lit term : w.goal_terms) {
        const ConeCnf cone = encode_cone(w.aig, term);
        if (solve(cone.cnf, {cone.root}) != SolveResult::kUnsat) break;
        ++lemmas;
    }
    if (lemmas == w.goal_terms.size()) {
        c.result = SolveResult::kUnsat;
    } else {
        const AigCnf enc = encode_aig(w.aig);
        std::vector<Lit> assumptions;
        for (const auto po : w.assume_true) assumptions.push_back(enc.po_lits[po]);
        for (const auto po : w.assume_false) assumptions.push_back(neg(enc.po_lits[po]));
        c.result = solve(enc.cnf, assumptions);
    }
    c.proof_checked = c.result == SolveResult::kUnsat;

    c.seconds = finish_span(span, [&] {
        util::Json args = util::Json::object();
        args.set("index", double(c.index));
        args.set("result", solve_result_name(c.result));
        args.set("lemmas", double(lemmas));
        args.set("decisions", double(c.stats.decisions));
        args.set("conflicts", double(c.stats.conflicts));
        return args;
    });
    record_metrics(c.stats, c.seconds);
    return c;
}

}  // namespace

ProveReport prove_design(const std::vector<rtl::HcbNetlist>& hcbs,
                         const model::TrainedModel& m,
                         const ProveOptions& options) {
    train::WorkerPool pool(train::WorkerPool::resolve(options.threads));
    return prove_design(hcbs, m, options, pool);
}

ProveReport prove_design(const std::vector<rtl::HcbNetlist>& hcbs,
                         const model::TrainedModel& m,
                         const ProveOptions& options, train::WorkerPool& pool) {
    obs::TimedSpan total("prove-design", "sat");
    ProveReport rep;
    rep.chain_stages = hcbs.size();

    std::vector<Obligation> work;
    std::size_t global = 0;
    for (std::size_t h = 0; h < hcbs.size(); ++h) {
        const auto& spec = hcbs[h].spec;
        for (std::size_t i = 0; i < spec.active_clauses.size(); ++i, ++global)
            if (options.output == kAllOutputs || options.output == global)
                work.push_back({h, i, global, spec.active_clauses[i]});
    }
    if (options.output != kAllOutputs && work.empty())
        throw std::out_of_range("prove: no such output (design has " +
                                std::to_string(global) + " outputs)");
    rep.outputs_total = work.size();

    // One miter per HCB with outputs to prove; its outputs share it.  The
    // builds are jobs of their own, and an output job that gets to an HCB
    // before its build job waits for (or runs) the build.
    std::vector<std::size_t> miter_hcbs;
    for (const auto& ob : work)
        if (miter_hcbs.empty() || miter_hcbs.back() != ob.hcb) miter_hcbs.push_back(ob.hcb);
    std::vector<HcbMiter> miters(hcbs.size());
    std::vector<std::once_flag> built(hcbs.size());
    const auto miter_of = [&](std::size_t h) -> const HcbMiter& {
        std::call_once(built[h], [&] {
            obs::TimedSpan span("hcb-miter", "sat");
            miters[h] = build_hcb_miter(hcbs[h], m);
            finish_span(span, [&] {
                util::Json args = util::Json::object();
                args.set("hcb", double(h));
                return args;
            });
        });
        return miters[h];
    };

    // Sequential proof (only meaningful when proving the whole design):
    // base depths 0..min(k, stages)-1, then the step windows.
    const bool run_induction =
        options.induction_k > 0 && options.output == kAllOutputs && !hcbs.empty();
    const std::size_t stages = hcbs.size();
    const std::size_t k = options.induction_k;
    std::vector<std::uint32_t> live;
    if (run_induction) {
        rep.induction_k = k;
        rep.induction_complete = k >= stages;
        std::vector<bool> seen(m.total_clauses(), false);
        for (const auto& hcb : hcbs)
            for (const auto cid : hcb.spec.active_clauses)
                if (!seen[cid]) {
                    seen[cid] = true;
                    live.push_back(cid);
                }
        std::sort(live.begin(), live.end());

        const auto add_case = [&](bool is_base, std::size_t index) {
            InductionCase c;
            c.is_base = is_base;
            c.index = index;
            rep.induction.push_back(c);
        };
        for (std::size_t d = 0; d < std::min(k, stages); ++d) add_case(true, d);
        if (k < stages)
            for (std::size_t t = 0; t + k <= stages - 1; ++t) add_case(false, t);
    }

    // One job list on the pool: the induction cases first (the long jobs),
    // then the miter builds, then the outputs in chunks.  Each job writes
    // its results to their own slots, so the report does not depend on
    // which worker ran what.
    rep.outputs.resize(work.size());
    const std::size_t cases = rep.induction.size();
    const std::size_t builds = cases + miter_hcbs.size();
    const std::size_t jobs = builds + (work.size() + kOutputsPerJob - 1) / kOutputsPerJob;
    train::run_jobs(&pool, jobs, [&](std::size_t j) {
        if (j < cases) {
            auto& c = rep.induction[j];
            c = prove_case(hcbs, m, live, k, c.is_base, c.index);
        } else if (j < builds) {
            miter_of(miter_hcbs[j - cases]);
        } else {
            const std::size_t first = (j - builds) * kOutputsPerJob;
            const std::size_t last = std::min(work.size(), first + kOutputsPerJob);
            for (std::size_t i = first; i < last; ++i)
                rep.outputs[i] =
                    prove_output(hcbs[work[i].hcb], miter_of(work[i].hcb), m, work[i]);
        }
    });

    for (const auto& p : rep.outputs) {
        rep.totals += p.stats;
        if (p.proved())
            rep.outputs_proved++;
        else if (p.result == SolveResult::kSat)
            rep.outputs_failed++;
        else
            rep.outputs_unknown++;
    }
    if (run_induction) {
        rep.induction_ok = true;
        for (const auto& c : rep.induction) {
            rep.totals += c.stats;
            rep.induction_ok = rep.induction_ok && c.proved();
        }
    }

    rep.equivalent = rep.outputs_total == rep.outputs_proved &&
                     (!run_induction || rep.induction_ok);
    rep.seconds = total.finish();
    return rep;
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kFormat = "matador-prove-report";
constexpr unsigned kVersion = 1;

util::Json stats_to_json(const SolverStats& s) {
    auto j = util::Json::object();
    j.set("decisions", double(s.decisions));
    j.set("propagations", double(s.propagations));
    j.set("conflicts", double(s.conflicts));
    j.set("learned_clauses", double(s.learned_clauses));
    j.set("learned_literals", double(s.learned_literals));
    j.set("restarts", double(s.restarts));
    return j;
}

SolverStats stats_from_json(const util::Json& j) {
    SolverStats s;
    s.decisions = j.at("decisions").as_count();
    s.propagations = j.at("propagations").as_count();
    s.conflicts = j.at("conflicts").as_count();
    s.learned_clauses = j.at("learned_clauses").as_count();
    s.learned_literals = j.at("learned_literals").as_count();
    s.restarts = j.at("restarts").as_count();
    return s;
}

SolveResult result_from_name(const std::string& name) {
    if (name == "sat") return SolveResult::kSat;
    if (name == "unsat") return SolveResult::kUnsat;
    if (name == "unknown") return SolveResult::kUnknown;
    throw std::runtime_error("prove report: bad result \"" + name + "\"");
}

}  // namespace

util::Json prove_report_to_json(const ProveReport& r) {
    auto j = util::Json::object();
    j.set("format", kFormat);
    j.set("version", double(kVersion));
    j.set("equivalent", r.equivalent);
    j.set("outputs_total", double(r.outputs_total));
    j.set("outputs_proved", double(r.outputs_proved));
    j.set("outputs_failed", double(r.outputs_failed));
    j.set("outputs_unknown", double(r.outputs_unknown));
    auto outs = util::Json::array();
    for (const auto& p : r.outputs) {
        auto o = util::Json::object();
        o.set("hcb", double(p.hcb));
        o.set("local_output", double(p.local_output));
        o.set("output", double(p.output));
        o.set("clause_id", double(p.clause_id));
        o.set("result", solve_result_name(p.result));
        o.set("proof_checked", p.proof_checked);
        o.set("cared_cube", p.cared_cube);
        auto cex = util::Json::array();
        for (const bool b : p.counterexample) cex.push_back(double(b ? 1 : 0));
        o.set("counterexample", std::move(cex));
        o.set("counterexample_confirmed", p.counterexample_confirmed);
        o.set("stats", stats_to_json(p.stats));
        o.set("seconds", p.seconds);
        outs.push_back(std::move(o));
    }
    j.set("outputs", std::move(outs));
    j.set("induction_k", double(r.induction_k));
    j.set("chain_stages", double(r.chain_stages));
    j.set("induction_complete", r.induction_complete);
    j.set("induction_ok", r.induction_ok);
    auto cases = util::Json::array();
    for (const auto& c : r.induction) {
        auto o = util::Json::object();
        o.set("is_base", c.is_base);
        o.set("index", double(c.index));
        o.set("result", solve_result_name(c.result));
        o.set("proof_checked", c.proof_checked);
        o.set("stats", stats_to_json(c.stats));
        o.set("seconds", c.seconds);
        cases.push_back(std::move(o));
    }
    j.set("induction", std::move(cases));
    j.set("totals", stats_to_json(r.totals));
    j.set("seconds", r.seconds);
    return j;
}

ProveReport prove_report_from_json(const util::Json& j) {
    if (!j.is_object() || !j.contains("format") || j.at("format").as_string() != kFormat)
        throw std::runtime_error("not a matador-prove-report document");
    if (j.at("version").as_count() > kVersion)
        throw std::runtime_error("prove report: unsupported future version");
    ProveReport r;
    r.equivalent = j.at("equivalent").as_bool();
    r.outputs_total = j.at("outputs_total").as_count();
    r.outputs_proved = j.at("outputs_proved").as_count();
    r.outputs_failed = j.at("outputs_failed").as_count();
    r.outputs_unknown = j.at("outputs_unknown").as_count();
    for (const auto& o : j.at("outputs").as_array()) {
        OutputProof p;
        p.hcb = o.at("hcb").as_count();
        p.local_output = o.at("local_output").as_count();
        p.output = o.at("output").as_count();
        p.clause_id = std::uint32_t(
            o.at("clause_id").as_count(std::numeric_limits<std::uint32_t>::max()));
        p.result = result_from_name(o.at("result").as_string());
        p.proof_checked = o.at("proof_checked").as_bool();
        p.cared_cube = o.at("cared_cube").as_bool();
        for (const auto& b : o.at("counterexample").as_array())
            p.counterexample.push_back(b.as_double() != 0.0);
        p.counterexample_confirmed = o.at("counterexample_confirmed").as_bool();
        p.stats = stats_from_json(o.at("stats"));
        p.seconds = o.at("seconds").as_double();
        r.outputs.push_back(std::move(p));
    }
    r.induction_k = j.at("induction_k").as_count();
    r.chain_stages = j.at("chain_stages").as_count();
    r.induction_complete = j.at("induction_complete").as_bool();
    r.induction_ok = j.at("induction_ok").as_bool();
    for (const auto& o : j.at("induction").as_array()) {
        InductionCase c;
        c.is_base = o.at("is_base").as_bool();
        c.index = o.at("index").as_count();
        c.result = result_from_name(o.at("result").as_string());
        c.proof_checked = o.at("proof_checked").as_bool();
        c.stats = stats_from_json(o.at("stats"));
        c.seconds = o.at("seconds").as_double();
        r.induction.push_back(std::move(c));
    }
    r.totals = stats_from_json(j.at("totals"));
    r.seconds = j.at("seconds").as_double();
    return r;
}

std::string format_prove_report(const ProveReport& r) {
    std::string out;
    out += "prove: ";
    out += r.equivalent ? "EQUIVALENT" : "NOT PROVED";
    out += " (" + std::to_string(r.outputs_proved) + "/" +
           std::to_string(r.outputs_total) + " outputs unsat";
    if (r.outputs_failed) out += ", " + std::to_string(r.outputs_failed) + " failed";
    if (r.outputs_unknown) out += ", " + std::to_string(r.outputs_unknown) + " unknown";
    out += ")\n";
    if (r.induction_k) {
        out += "induction: k=" + std::to_string(r.induction_k) + " over " +
               std::to_string(r.chain_stages) + " stage(s): ";
        out += r.induction_ok ? "ok" : "FAILED";
        if (r.induction_complete) out += " (complete: base cases cover every stage)";
        out += "\n";
    }
    for (const auto& p : r.outputs) {
        if (p.proved()) continue;
        out += "  output " + std::to_string(p.output) + " (hcb " +
               std::to_string(p.hcb) + ", clause " + std::to_string(p.clause_id) +
               "): " + solve_result_name(p.result);
        if (p.result == SolveResult::kSat) {
            out += p.counterexample_confirmed ? " [confirmed] cex=" : " [UNCONFIRMED] cex=";
            for (const bool b : p.counterexample) out += b ? '1' : '0';
        }
        out += "\n";
    }
    for (const auto& c : r.induction) {
        if (c.proved()) continue;
        out += std::string("  induction ") + (c.is_base ? "base " : "step ") +
               std::to_string(c.index) + ": " + solve_result_name(c.result) + "\n";
    }
    out += "stats: " + std::to_string(r.totals.decisions) + " decisions, " +
           std::to_string(r.totals.conflicts) + " conflicts, " +
           std::to_string(r.totals.learned_clauses) + " learned clauses, " +
           std::to_string(r.totals.restarts) + " restarts\n";
    return out;
}

}  // namespace matador::sat
