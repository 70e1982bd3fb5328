// Automated design verification (the paper's auto-debug flow, Fig. 6 dark
// pink), reimplemented as a simulator-free equivalence ladder:
//
//   1. expression level : exported clause expressions vs the TrainedModel,
//   2. netlist level    : per-HCB AIGs vs partial-clause expression
//                         semantics, chained end to end,
//   3. RTL text level   : the text of the design's hcb_*_comb modules
//                         parsed back under the design's own strash flag
//                         and compared with the generator's AIG: identical
//                         AIGER bytes are a proof; otherwise co-simulation
//                         (random 64-way sweeps + exhaustive when small).
//
// System-level (cycle-accurate, streaming) verification lives in the core
// flow where the architecture simulator is available.
#pragma once

#include <cstdint>
#include <string>

#include "model/trained_model.hpp"
#include "rtl/generators.hpp"

namespace matador::train {
class WorkerPool;
}

namespace matador::rtl {

/// Outcome of the verification ladder.
struct VerificationReport {
    bool expressions_match_model = false;
    bool hcb_aigs_match_expressions = false;
    bool rtl_matches_aigs = false;
    std::size_t hcbs_checked = 0;
    std::size_t vectors_checked = 0;
    std::string first_failure;  ///< empty when ok()

    bool ok() const {
        return expressions_match_model && hcb_aigs_match_expressions &&
               rtl_matches_aigs;
    }
};

/// Run the full ladder on a generated design.
/// `random_vectors` full input vectors drive levels 1-2; level 3 checks
/// the text of each of `design.hcb_comb` against its HCB
/// (check_hcb_module_text), with `random_vectors` 64-way sweeps for any HCB
/// whose bytes differ.
/// `hcbs_checked` counts the HCBs that passed level 3 in order up to the
/// first that failed, whose error is `first_failure`.
///
/// Level 3 draws every HCB's seed in order first and then checks each HCB
/// as one job: over `pool`'s workers (train::run_jobs) when given, inline
/// otherwise.  The verdicts are read back in HCB order, so the report is
/// the same with any pool or none.
VerificationReport verify_design(const RtlDesign& design,
                                 const model::TrainedModel& m,
                                 std::size_t random_vectors, std::uint64_t seed,
                                 train::WorkerPool* pool = nullptr);

/// Level 3 for one HCB, from its comb module's Verilog text: parse it
/// under `hcb.aig.strash_enabled()`; when the parsed AIG's binary AIGER
/// equals the generator's, the text is proved equivalent.  Otherwise
/// co-simulate: `random_rounds` 64-way sweeps, plus an exhaustive check
/// when the HCB has at most 16 inputs.  False (with `error` set) on a parse
/// error, an I/O shape mismatch or a co-simulation mismatch.
bool check_hcb_module_text(const HcbNetlist& hcb, const std::string& text,
                           std::size_t random_rounds, std::uint64_t seed,
                           std::string* error = nullptr);

}  // namespace matador::rtl
