#include "rtl/verification.hpp"

#include <algorithm>
#include <bit>

#include "infer/engine.hpp"
#include "logic/aig_simulate.hpp"
#include "logic/aiger.hpp"
#include "model/clause_expression.hpp"
#include "obs/trace.hpp"
#include "rtl/verilog_parser.hpp"
#include "train/worker_pool.hpp"
#include "util/rng.hpp"

namespace matador::rtl {

namespace {

util::BitVector random_input(std::size_t bits, util::Xoshiro256ss& rng) {
    util::BitVector x(bits);
    for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
    return x;
}

/// Draw the next block of up to 64 random vectors (same rng draw order as
/// the historical one-vector-at-a-time ladder).
std::vector<util::BitVector> draw_block(std::size_t bits, std::size_t count,
                                        util::Xoshiro256ss& rng) {
    std::vector<util::BitVector> xs;
    xs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) xs.push_back(random_input(bits, rng));
    return xs;
}

/// The scalar reference side of a batched comparison: expected[lane j] for
/// one clause expression over a block of vectors, packed into a word.
template <class Eval>
std::uint64_t expected_word(std::size_t count, Eval&& eval) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < count; ++j)
        w |= std::uint64_t(eval(j)) << j;
    return w;
}

/// Track the batched ladder's first mismatch in scalar visit order
/// (vector-major, then check order within the vector), so failure reports
/// are identical to the historical per-vector ladder's.
struct FirstMismatch {
    std::size_t lane = 64;   ///< failing vector's lane within the block
    std::size_t check = 0;   ///< index of the failing per-vector check
    bool any() const { return lane < 64; }
    void offer(std::size_t check_index, std::uint64_t diff) {
        if (diff == 0) return;
        const auto l = std::size_t(std::countr_zero(diff));
        if (l < lane) {
            lane = l;
            check = check_index;
        }
    }
};

}  // namespace

bool check_hcb_module_text(const HcbNetlist& hcb, const std::string& text,
                           std::size_t random_rounds, std::uint64_t seed,
                           std::string* error) {
    ParsedModule parsed;
    try {
        parsed = parse_structural_verilog(text, hcb.aig.strash_enabled());
    } catch (const std::exception& e) {
        if (error) *error = e.what();
        return false;
    }

    if (parsed.aig.num_pis() != hcb.aig.num_pis() ||
        parsed.aig.num_pos() != hcb.aig.num_pos()) {
        if (error)
            *error = "parsed module I/O shape mismatch for " + parsed.name;
        return false;
    }

    // Identical AIGER bytes are the same AIG, so the text computes the
    // generator's function: a proof, with nothing left to sample.
    if (logic::write_aiger_binary(parsed.aig) == logic::write_aiger_binary(hcb.aig))
        return true;
    if (!logic::random_equivalent(parsed.aig, hcb.aig, random_rounds, seed)) {
        if (error) *error = "random co-simulation mismatch in " + parsed.name;
        return false;
    }
    if (hcb.aig.num_pis() <= 16 &&
        !logic::exhaustive_equivalent(parsed.aig, hcb.aig)) {
        if (error) *error = "exhaustive co-simulation mismatch in " + parsed.name;
        return false;
    }
    return true;
}

VerificationReport verify_design(const RtlDesign& design,
                                 const model::TrainedModel& m,
                                 std::size_t random_vectors, std::uint64_t seed,
                                 train::WorkerPool* pool) {
    VerificationReport rep;
    util::Xoshiro256ss rng(seed);
    const auto exprs = model::export_expressions(m);
    const std::size_t cpc = m.clauses_per_class();
    constexpr std::size_t kLanes = infer::BatchEngine::kLanes;

    const infer::BatchEngine engine(m);
    auto scratch = engine.make_scratch();
    std::vector<std::uint64_t> clause_out(m.total_clauses());

    // Level 1: expressions vs model, 64 vectors per pass.  The model side
    // is the batched clause kernel; the expression side stays the scalar,
    // independently-evaluated reference.
    rep.expressions_match_model = true;
    for (std::size_t v0 = 0; v0 < random_vectors && rep.expressions_match_model;
         v0 += kLanes) {
        const std::size_t count = std::min(kLanes, random_vectors - v0);
        const auto xs = draw_block(m.num_features(), count, rng);
        engine.clause_outputs_block(xs.data(), count, clause_out.data(), scratch);
        const std::uint64_t mask = infer::lane_mask(count);
        FirstMismatch miss;
        for (std::size_t i = 0; i < exprs.size(); ++i) {
            const auto& e = exprs[i];
            const std::uint64_t expected = expected_word(
                count, [&](std::size_t j) { return e.evaluate(xs[j]); });
            miss.offer(i, (expected ^ clause_out[e.cls * cpc + e.index]) & mask);
        }
        if (miss.any()) {
            rep.expressions_match_model = false;
            const auto& e = exprs[miss.check];
            rep.first_failure = "expression C[" + std::to_string(e.cls) + "][" +
                                std::to_string(e.index) + "] != model clause";
            rep.vectors_checked += miss.lane + 1;
        } else {
            rep.vectors_checked += count;
        }
    }

    // Level 2: HCB AIG chain vs expressions.  logic::simulate already packs
    // 64 patterns per word, so one simulation per HCB covers the whole
    // block: packet-bit PIs get the bit-transposed feature columns, chain
    // PIs the 64-lane partial-clause values carried between HCBs.
    rep.hcb_aigs_match_expressions = rep.expressions_match_model;
    const std::size_t live = design.schedule.live_clauses.size();
    std::vector<std::uint64_t> tx(m.num_features());
    std::vector<std::uint64_t> chain(m.total_clauses());
    for (std::size_t v0 = 0;
         v0 < random_vectors && rep.hcb_aigs_match_expressions; v0 += kLanes) {
        const std::size_t count = std::min(kLanes, random_vectors - v0);
        const auto xs = draw_block(m.num_features(), count, rng);
        infer::transpose_bits(xs.data(), count, m.num_features(), tx.data());
        std::fill(chain.begin(), chain.end(), ~std::uint64_t{0});
        for (const auto& hcb : design.hcbs) {
            std::vector<std::uint64_t> patterns;
            patterns.reserve(hcb.aig.num_pis());
            for (std::size_t f = hcb.spec.lo; f < hcb.spec.hi; ++f)
                patterns.push_back(tx[f]);
            for (std::size_t i = 0; i < hcb.spec.active_clauses.size(); ++i)
                if (hcb.spec.has_chain_input[i])
                    patterns.push_back(chain[hcb.spec.active_clauses[i]]);
            const auto out = logic::simulate(hcb.aig, patterns);
            for (std::size_t i = 0; i < out.size(); ++i)
                chain[hcb.spec.active_clauses[i]] = out[i];
        }
        const std::uint64_t mask = infer::lane_mask(count);
        FirstMismatch miss;
        for (std::size_t i = 0; i < live; ++i) {
            const auto flat = design.schedule.live_clauses[i];
            const auto& e = exprs[flat];
            // Expressions of live clauses are non-empty, so the chained AND
            // equals the full clause value.
            const std::uint64_t expected = expected_word(
                count, [&](std::size_t j) { return e.evaluate(xs[j]); });
            miss.offer(i, (expected ^ chain[flat]) & mask);
        }
        if (miss.any()) {
            rep.hcb_aigs_match_expressions = false;
            const auto flat = design.schedule.live_clauses[miss.check];
            rep.first_failure = "HCB chain mismatch on clause C[" +
                                std::to_string(flat / cpc) + "][" +
                                std::to_string(flat % cpc) + "]";
        }
    }

    // Level 3: the comb modules' text the design carries (what write_design
    // writes), parsed back and checked against the AIGs.
    rep.rtl_matches_aigs = rep.hcb_aigs_match_expressions;
    if (rep.rtl_matches_aigs && design.hcb_comb.size() != design.hcbs.size()) {
        rep.rtl_matches_aigs = false;
        rep.first_failure = "design carries " + std::to_string(design.hcb_comb.size()) +
                            " comb modules for " + std::to_string(design.hcbs.size()) +
                            " HCBs";
    }
    if (rep.rtl_matches_aigs) {
        // One job per HCB.  Every seed is drawn before any check runs: the
        // values a draw per check would give, since nothing draws from `rng`
        // after level 3.  `passed` holds chars, not bits, because jobs
        // write neighbouring slots at once.
        const std::size_t n = design.hcbs.size();
        std::vector<std::uint64_t> seeds(n);
        for (auto& s : seeds) s = rng();
        std::vector<char> passed(n, 0);
        std::vector<std::string> errors(n);
        train::run_jobs(pool, n, [&](std::size_t i) {
            obs::SpanGuard span("level-3", "verify");
            if (obs::TraceRecorder::instance().enabled()) {
                util::Json args = util::Json::object();
                args.set("hcb", double(i));
                span.set_args(std::move(args));
            }
            passed[i] = check_hcb_module_text(design.hcbs[i], design.hcb_comb[i],
                                              random_vectors, seeds[i], &errors[i]);
        });
        for (std::size_t i = 0; i < n && rep.rtl_matches_aigs; ++i) {
            if (passed[i]) {
                ++rep.hcbs_checked;
            } else {
                rep.rtl_matches_aigs = false;
                rep.first_failure = errors[i];
            }
        }
    }
    return rep;
}

}  // namespace matador::rtl
