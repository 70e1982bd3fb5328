// The prove tier: SAT-backed equivalence of scalar TM semantics vs the
// emitted HCB netlists (verify level 3), plus k-induction over the
// sequential vote-accumulation chain (level 4).
//
// Per-output obligations are combinational miter slices (miter.hpp) solved
// under the ternary rung's cared-cube assumptions - sound only when the
// output is proved X-insensitive to the restricted bits, so the driver
// re-proves that per output and falls back to the unconstrained miter when
// the proof does not close.  Every UNSAT answer must replay its RUP trace
// (Solver::verify_unsat) or it is demoted to "unknown"; every SAT answer is
// re-simulated concretely before it is reported as a counterexample.
//
// The sequential argument is k-induction with uniqueness constraints over
// the chain, stage index as time: base cases unroll 0..k-1 from reset
// (chain state all-1), and each step window t assumes netlist state ==
// scalar state at times t..t+k-1 (free entry state, pairwise-distinct
// state vectors) and proves equality at t+k.  Transitions are
// stage-dependent, so every window is its own obligation; when k >= the
// number of stages the base cases alone are a complete proof (plain BMC)
// and the step cases vanish.
//
// Every obligation is independent, so prove_design drains one job list on
// a worker pool: the induction cases first (each builds and solves its own
// unrolled AIG; they are the long jobs), then one miter build per HCB, then
// the outputs in fixed-size chunks.  Workers claim jobs through
// train::run_jobs and each result lands in its own slot, so the report -
// verdicts, witnesses, solver stats - is the same at any thread count;
// only the `seconds` fields vary.  The pool is the caller's (the verify
// stage runs every rung on its one pool) or, in the three-argument form,
// one of ProveOptions::threads workers built for the call.
//
// What each obligation costs is set by its own cone:
//  - An output solves a CNF of its one miter PO's cone (encode_cone) and
//    replays its RUP trace over that CNF.  Strash folds most outputs'
//    miter XOR to constant 0, so most cones are empty.  The cared-cube
//    verdict is lint::check_x_insensitive's with no random sweeps: no
//    don't-care packet bit in the netlist output's cone, or, for cubes of
//    at most 12 cared PIs, its exhaustive ternary sweep.  A counterexample
//    lists every HCB PI, those outside the cone at 0.
//  - A window's CNF holds a whole stage and the uniqueness OR, but strash
//    folds all but a few of its goal's state XORs to 0.  The goal is their
//    OR, so each remaining XOR is first refuted on its own over the CNF of
//    its own cone (encode_cone, a fresh Solver per XOR).  When all of them
//    are refuted the goal is constant 0 and the case is UNSAT without
//    encoding the window; only otherwise is the window solved.  On
//    flow-mnist's data-seed-11 model (13 stages, 15,378 outputs; 4-core
//    VM, Release) this took a proof's decisions from 2,638,368 to 360 and
//    its longest case from 169-211 ms to 2-3 ms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/trained_model.hpp"
#include "rtl/hcb_builder.hpp"
#include "sat/solver.hpp"
#include "util/json.hpp"

namespace matador::train {
class WorkerPool;
}

namespace matador::sat {

/// Version of the SAT subsystem's semantics (encoder + solver + miter +
/// induction).  Folded into proof cache keys so prover changes invalidate
/// cached verdicts; bump on any change that could alter a report.
/// 2: outputs are solved over their own miter cone and induction cases
/// refute each goal term over its own cone first.  Every verdict is the
/// same as at 1; the solver statistics (and a witness's bits outside the
/// output's cone) are not, and a cached version-1 report would carry the
/// old statistics.
inline constexpr unsigned kSatSubsystemVersion = 2;

/// All outputs (the default for ProveOptions::output).
inline constexpr std::size_t kAllOutputs = std::size_t(-1);

struct ProveOptions {
    /// Restrict to one global output index (hcb-major over each HCB's
    /// active_clauses); kAllOutputs = prove every output.
    std::size_t output = kAllOutputs;
    /// Induction depth over the HCB chain; 0 skips the sequential proof.
    std::size_t induction_k = 1;
    /// Worker threads draining the prove job list - the induction cases
    /// and the per-output obligations alike (0 = all hardware threads).
    /// The form of prove_design that takes a pool ignores it.
    unsigned threads = 1;
};

/// Proof result for one combinational output slice.
struct OutputProof {
    std::size_t hcb = 0;          ///< HCB index
    std::size_t local_output = 0; ///< PO index within the HCB
    std::size_t output = 0;       ///< global output index
    std::uint32_t clause_id = 0;  ///< flat clause id
    SolveResult result = SolveResult::kUnknown;
    /// UNSAT only: the RUP trace replayed to the empty clause.
    bool proof_checked = false;
    /// Don't-care cube assumptions were applied (X-insensitivity closed).
    bool cared_cube = false;
    /// SAT only: witness over the miter PIs (packet bits then chain
    /// inputs, netlist PI order; PIs outside the output's cone read 0),
    /// re-simulated concretely.
    std::vector<bool> counterexample;
    /// SAT only: the witness reproduced the mismatch outside the solver.
    bool counterexample_confirmed = false;
    SolverStats stats;
    double seconds = 0.0;

    bool proved() const { return result == SolveResult::kUnsat && proof_checked; }
};

/// One induction obligation (base depth or step window).
struct InductionCase {
    bool is_base = false;
    /// Base: unroll depth d (proves P(d) from reset).
    /// Step: window start t (assumes P(t..t+k-1), proves P(t+k)).
    std::size_t index = 0;
    SolveResult result = SolveResult::kUnknown;
    bool proof_checked = false;
    SolverStats stats;
    double seconds = 0.0;

    bool proved() const { return result == SolveResult::kUnsat && proof_checked; }
};

struct ProveReport {
    /// Every requested output slice proved UNSAT with a checked trace, and
    /// (when run) the sequential induction closed.
    bool equivalent = false;

    std::size_t outputs_total = 0;
    std::size_t outputs_proved = 0;
    std::size_t outputs_failed = 0;   ///< SAT: real mismatches
    std::size_t outputs_unknown = 0;  ///< UNSAT whose trace did not replay
    std::vector<OutputProof> outputs;

    std::size_t induction_k = 0;   ///< 0 = sequential proof skipped
    std::size_t chain_stages = 0;
    /// Base cases covered every stage (k >= stages): the "induction" is a
    /// complete bounded proof and no step cases were needed.
    bool induction_complete = false;
    bool induction_ok = false;
    std::vector<InductionCase> induction;

    SolverStats totals;
    double seconds = 0.0;
};

/// Prove scalar-vs-netlist equivalence for the given HCB netlists, on a
/// pool of `options.threads` workers built for the call.
ProveReport prove_design(const std::vector<rtl::HcbNetlist>& hcbs,
                         const model::TrainedModel& m,
                         const ProveOptions& options = {});

/// The same proof with its job list drained by `pool`'s workers
/// (`options.threads` is not read).  The report equals the three-argument
/// form's at any pool size, `seconds` fields aside.
ProveReport prove_design(const std::vector<rtl::HcbNetlist>& hcbs,
                         const model::TrainedModel& m,
                         const ProveOptions& options, train::WorkerPool& pool);

// -- serialization / formatting ---------------------------------------------

/// JSON form: {"format": "matador-prove-report", "version": 1, ...}.
/// Exact round-trip through prove_report_from_json (the proof cache's disk
/// representation).
util::Json prove_report_to_json(const ProveReport& r);
/// Strict parse; throws std::runtime_error on malformed or future-version
/// documents.
ProveReport prove_report_from_json(const util::Json& j);

/// Human-readable report for the CLI.
std::string format_prove_report(const ProveReport& r);

}  // namespace matador::sat
