// Staged compile pipeline: the Fig. 6 automation flow as a pass manager.
//
// The six stages of the paper's flow —
//   train -> analyze -> architect -> generate -> verify -> report
// — are individual `Stage` passes over a shared `CompileContext` artifact
// store (trained model, sharing stats, architecture, RTL design, reports).
// The `Pipeline` driver runs any contiguous stage range, records a
// `StageStatus` plus wall-clock seconds per stage, collects structured
// diagnostics instead of ad-hoc bools, and reuses expensive artifacts
// through the two-tier, stage-scoped `ArtifactStore`: trained models are
// keyed by the front-end config slice, generated HCB netlists by the
// backend slice (model hash + bus_width + strash), each backed by a
// single-flight memory tier and an optional on-disk tier (cache_dir).
// `Pipeline::sweep` (see sweep.hpp) fans a FlowConfig grid across worker
// threads sharing one store.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/flow.hpp"
#include "rtl/generators.hpp"

namespace matador::core {

// ---------------------------------------------------------------------------
// Stage identity and status
// ---------------------------------------------------------------------------

/// The six Fig. 6 stages, in execution order.
enum class StageKind : unsigned {
    kTrain = 0,
    kAnalyze,
    kArchitect,
    kGenerate,
    kVerify,
    kReport,
};

inline constexpr std::size_t kNumStages = 6;

constexpr std::size_t stage_index(StageKind k) { return std::size_t(k); }

/// All stages in execution order.
std::array<StageKind, kNumStages> stage_order();

/// Lower-case stage name ("train", "analyze", ...).
const char* stage_name(StageKind k);

/// Parse a stage name; nullopt for unknown names.
std::optional<StageKind> stage_from_name(const std::string& name);

/// Outcome of one stage execution.
enum class StageStatus {
    kNotRun,   ///< outside the requested range / pipeline not run yet
    kOk,       ///< ran and succeeded
    kCached,   ///< artifacts served from the ArtifactStore (see record tier)
    kSkipped,  ///< prerequisites missing (earlier stage failed or not run)
    kFailed,   ///< ran and found errors (see diagnostics)
};

const char* status_name(StageStatus s);

/// One structured diagnostic, attributed to the stage that emitted it.
struct Diagnostic {
    enum class Severity { kNote, kWarning, kError };
    Severity severity = Severity::kNote;
    StageKind stage = StageKind::kTrain;
    std::string message;
};

/// Per-stage execution record (status + wall-clock instrumentation).
struct StageRecord {
    StageKind kind = StageKind::kTrain;
    StageStatus status = StageStatus::kNotRun;
    double seconds = 0.0;
    /// For kCached: which store tier served the artifacts.
    ArtifactTier tier = ArtifactTier::kNone;
    /// Optional one-line stage summary for the stage report / sweep JSON
    /// (the train stage reports "epochs=7/20 stop=early-stop ...").
    std::string detail;
};

// ---------------------------------------------------------------------------
// CompileContext: the shared artifact store
// ---------------------------------------------------------------------------

/// Everything the stages read and write.  A context outlives a single
/// `Pipeline::run` call, so a caller can stop after one stage, inspect or
/// adjust artifacts, and resume from the next.
class CompileContext {
public:
    explicit CompileContext(FlowConfig cfg);

    FlowConfig cfg;

    // -- inputs (non-owning; must outlive the context's pipeline runs) -----
    const data::Dataset* train_set = nullptr;
    const data::Dataset* test_set = nullptr;

    // -- train ------------------------------------------------------------
    std::shared_ptr<const model::TrainedModel> trained;
    double train_accuracy = 0.0;
    double test_accuracy = 0.0;
    bool model_imported = false;  ///< yellow flow: model supplied, not trained
    /// Training record (epochs run, stop reason, accuracy history); absent
    /// for imported models.  Served from the artifact store on cache hits.
    std::optional<train::FitReport> train_report;

    // -- analyze ----------------------------------------------------------
    std::optional<model::SparsityStats> sparsity;
    std::optional<model::SharingStats> sharing;
    /// Computed by analyze; generate recomputes it when analyze was not in
    /// the executed range (the timing model needs it).
    std::optional<std::size_t> max_feature_fanout;

    // -- architect --------------------------------------------------------
    std::optional<model::ArchParams> arch;

    // -- generate ---------------------------------------------------------
    std::shared_ptr<rtl::RtlDesign> design;
    std::size_t hcb_mapped_luts = 0;
    unsigned hcb_max_depth = 0;
    std::optional<cost::TimingReport> timing;
    std::vector<std::string> rtl_files;

    // -- verify -----------------------------------------------------------
    /// Level-0 static analysis of the generated design (lint rung); filled
    /// before the simulation ladder runs.
    std::optional<lint::LintReport> lint_report;
    /// Level-3/4 SAT equivalence proof (per-output miters + k-induction);
    /// only filled when cfg.verify_sat is set.
    std::optional<sat::ProveReport> proof;
    std::optional<rtl::VerificationReport> verification;
    bool system_verified = false;
    std::size_t measured_latency_cycles = 0;
    double measured_ii = 0.0;

    // -- report -----------------------------------------------------------
    std::optional<cost::ResourceReport> resources;
    std::optional<cost::PowerReport> power;

    // -- bookkeeping ------------------------------------------------------
    std::shared_ptr<ArtifactStore> store;  ///< may be null (no caching)
    std::array<StageRecord, kNumStages> records;
    std::vector<Diagnostic> diagnostics;

    StageRecord& record(StageKind k) { return records[stage_index(k)]; }
    const StageRecord& record(StageKind k) const { return records[stage_index(k)]; }

    void note(StageKind stage, std::string message);
    void warn(StageKind stage, std::string message);
    void error(StageKind stage, std::string message);

    bool has_errors() const;
    /// True when no stage failed and no error diagnostic was emitted.
    bool ok() const;
    /// Sum of per-stage wall-clock seconds.
    double total_seconds() const;

    /// Assemble the classic FlowResult view from whatever artifacts exist.
    FlowResult to_flow_result() const;
};

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// One named pass of the pipeline.  Stages must be reentrant: `run` may be
/// called on many contexts (sweep workers run stages concurrently).
class Stage {
public:
    virtual ~Stage() = default;
    virtual StageKind kind() const = 0;
    const char* name() const { return stage_name(kind()); }
    /// Execute on `ctx`.  Missing prerequisites => return kSkipped (with a
    /// warning); detected errors => kFailed (with error diagnostics).
    /// Thrown exceptions are converted to kFailed by the driver.
    virtual StageStatus run(CompileContext& ctx) const = 0;
};

/// Construct the default implementation of a stage.
std::unique_ptr<Stage> make_default_stage(StageKind kind);

/// A contiguous range of stages to execute (inclusive on both ends).
struct StageRange {
    StageKind from = StageKind::kTrain;
    StageKind to = StageKind::kReport;
};

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

struct SweepOptions;  // sweep.hpp
struct SweepResult;   // sweep.hpp

class Pipeline {
public:
    /// `store` may be shared across pipelines (sweeps do).  When null, a
    /// pipeline-private store is created over cfg.cache_dir if that is set
    /// (so a restarted run rehydrates from disk); otherwise the run is
    /// uncached.
    explicit Pipeline(FlowConfig cfg,
                      std::shared_ptr<ArtifactStore> store = nullptr);

    const FlowConfig& config() const { return cfg_; }
    const std::shared_ptr<ArtifactStore>& store() const { return store_; }

    /// Replace the stage of the same kind (instrumentation / testing hook,
    /// in the pass-manager tradition).
    void set_stage(std::unique_ptr<Stage> stage);

    /// Full run: train on `train`, evaluate on `test`, execute `range`.
    CompileContext run(const data::Dataset& train, const data::Dataset& test,
                       StageRange range = {}) const;

    /// Yellow import flow: start from an existing model (no training).
    CompileContext run_with_model(const model::TrainedModel& m,
                                  const data::Dataset* test,
                                  StageRange range = {}) const;

    /// Incremental run: drive an existing context through `range`.  Use to
    /// stop after a stage, inspect artifacts, and resume later.
    void run(CompileContext& ctx, StageRange range = {}) const;

    /// Multi-threaded design-space exploration over a FlowConfig grid
    /// (implemented in sweep.cpp; see sweep.hpp for the result types).
    static SweepResult sweep(const data::Dataset& train,
                             const data::Dataset& test,
                             const std::vector<FlowConfig>& grid,
                             const SweepOptions& options);

private:
    FlowConfig cfg_;
    std::shared_ptr<ArtifactStore> store_;
    std::array<std::unique_ptr<Stage>, kNumStages> stages_;
};

/// Render the per-stage status / timing table of a context.
std::string format_stage_report(const CompileContext& ctx);

/// Render the diagnostics list ("[error] verify: ..." lines; empty when none).
std::string format_diagnostics(const CompileContext& ctx);

}  // namespace matador::core
