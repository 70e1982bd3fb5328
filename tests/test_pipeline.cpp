// Tests for the staged Pipeline API: stage ordering, run-from/stop-after
// selection, artifact-cache hit/miss behaviour, diagnostics propagation,
// the verify stage's contract with its SAT rung on (and the order its
// rungs run in on the stage's pool), and sweep determinism across thread
// counts.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace matador;
using core::ArtifactStore;
using core::CompileContext;
using core::FlowConfig;
using core::Pipeline;
using core::StageKind;
using core::StageRange;
using core::StageStatus;

FlowConfig small_config() {
    FlowConfig cfg;
    cfg.tm.clauses_per_class = 12;
    cfg.tm.threshold = 8;
    cfg.tm.seed = 21;
    cfg.epochs = 5;
    cfg.arch.bus_width = 8;
    cfg.verify_vectors = 6;
    cfg.sim_datapoints = 8;
    return cfg;
}

data::Split small_split(std::uint64_t seed = 3) {
    const auto ds = data::make_noisy_xor(900, 10, 0.03, seed);
    return data::train_test_split(ds, 0.8, 5);
}

TEST(PipelineStages, NamesRoundTripAndFollowExecutionOrder) {
    const auto order = core::stage_order();
    ASSERT_EQ(order.size(), core::kNumStages);
    EXPECT_EQ(order.front(), StageKind::kTrain);
    EXPECT_EQ(order.back(), StageKind::kReport);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(core::stage_index(order[i]), i);
        const auto parsed = core::stage_from_name(core::stage_name(order[i]));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, order[i]);
    }
    EXPECT_FALSE(core::stage_from_name("synthesize").has_value());
}

TEST(Pipeline, FullRunExecutesEveryStageInOrder) {
    const auto split = small_split();
    const Pipeline pipeline(small_config());
    const CompileContext ctx = pipeline.run(split.train, split.test);

    EXPECT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
    for (auto k : core::stage_order()) {
        EXPECT_EQ(ctx.record(k).status, StageStatus::kOk)
            << core::stage_name(k);
        EXPECT_GE(ctx.record(k).seconds, 0.0);
    }
    EXPECT_TRUE(ctx.trained);
    EXPECT_TRUE(ctx.sparsity.has_value());
    EXPECT_TRUE(ctx.arch.has_value());
    EXPECT_TRUE(ctx.design);
    EXPECT_TRUE(ctx.verification.has_value());
    EXPECT_TRUE(ctx.system_verified);
    EXPECT_TRUE(ctx.resources.has_value());
    EXPECT_GT(ctx.total_seconds(), 0.0);
}

TEST(Pipeline, StopAfterLeavesLaterStagesNotRun) {
    const auto split = small_split();
    const Pipeline pipeline(small_config());
    const CompileContext ctx = pipeline.run(
        split.train, split.test, {StageKind::kTrain, StageKind::kArchitect});

    EXPECT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kOk);
    EXPECT_EQ(ctx.record(StageKind::kArchitect).status, StageStatus::kOk);
    EXPECT_EQ(ctx.record(StageKind::kGenerate).status, StageStatus::kNotRun);
    EXPECT_EQ(ctx.record(StageKind::kVerify).status, StageStatus::kNotRun);
    EXPECT_EQ(ctx.record(StageKind::kReport).status, StageStatus::kNotRun);
    EXPECT_TRUE(ctx.arch.has_value());
    EXPECT_FALSE(ctx.design);
    EXPECT_FALSE(ctx.resources.has_value());
}

TEST(Pipeline, ResumeFromStoppedContextCompletesThePipeline) {
    const auto split = small_split();
    const Pipeline pipeline(small_config());
    CompileContext ctx = pipeline.run(split.train, split.test,
                                      {StageKind::kTrain, StageKind::kArchitect});
    ASSERT_TRUE(ctx.arch.has_value());

    // Resume: generate through report on the same context.
    pipeline.run(ctx, {StageKind::kGenerate, StageKind::kReport});
    EXPECT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
    EXPECT_TRUE(ctx.design);
    EXPECT_TRUE(ctx.system_verified);
    EXPECT_TRUE(ctx.resources.has_value());

    // The resumed run matches a straight-through run exactly.
    const CompileContext full = pipeline.run(split.train, split.test);
    EXPECT_EQ(ctx.to_flow_result().resources.luts,
              full.to_flow_result().resources.luts);
    EXPECT_EQ(ctx.arch->latency_cycles(), full.arch->latency_cycles());
}

TEST(Pipeline, RunFromWithoutArtifactsSkipsDependentStages) {
    CompileContext ctx(small_config());
    const Pipeline pipeline(small_config());
    // No dataset, no model: every stage lacks prerequisites.
    pipeline.run(ctx, {StageKind::kAnalyze, StageKind::kReport});
    EXPECT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kNotRun);
    EXPECT_EQ(ctx.record(StageKind::kAnalyze).status, StageStatus::kSkipped);
    EXPECT_EQ(ctx.record(StageKind::kGenerate).status, StageStatus::kSkipped);
    EXPECT_EQ(ctx.record(StageKind::kReport).status, StageStatus::kSkipped);
    EXPECT_FALSE(ctx.diagnostics.empty());
}

TEST(Pipeline, InvalidRangeThrows) {
    const Pipeline pipeline(small_config());
    CompileContext ctx(small_config());
    EXPECT_THROW(pipeline.run(ctx, {StageKind::kVerify, StageKind::kTrain}),
                 std::invalid_argument);
}

TEST(ArtifactStoreTest, BackendOnlyChangeHitsFrontendMiss) {
    const auto split = small_split();
    auto store = std::make_shared<ArtifactStore>();

    FlowConfig a = small_config();
    const CompileContext ctx_a = Pipeline(a, store).run(split.train, split.test);
    EXPECT_EQ(ctx_a.record(StageKind::kTrain).status, StageStatus::kOk);
    EXPECT_EQ(store->stats().train.misses, 1u);

    // Backend-only change: bus width.  Front-end key unchanged -> memory
    // hit for train; the generate key includes bus_width, so that misses.
    FlowConfig b = small_config();
    b.arch.bus_width = 16;
    const CompileContext ctx_b = Pipeline(b, store).run(split.train, split.test);
    EXPECT_EQ(ctx_b.record(StageKind::kTrain).status, StageStatus::kCached);
    EXPECT_EQ(ctx_b.record(StageKind::kTrain).tier, core::ArtifactTier::kMemory);
    EXPECT_EQ(store->stats().train.misses, 1u);
    EXPECT_EQ(store->stats().train.memory_hits, 1u);
    EXPECT_EQ(store->stats().generate.misses, 2u);
    // Same model, different architecture.
    EXPECT_DOUBLE_EQ(ctx_b.test_accuracy, ctx_a.test_accuracy);
    EXPECT_NE(ctx_b.arch->plan.num_packets(), ctx_a.arch->plan.num_packets());

    // Clock-only change: both stage keys unchanged -> both stages cached.
    FlowConfig c2 = small_config();
    c2.auto_frequency = false;
    c2.arch.clock_mhz = 55.0;
    const CompileContext ctx_c2 =
        Pipeline(c2, store).run(split.train, split.test);
    EXPECT_EQ(ctx_c2.record(StageKind::kTrain).status, StageStatus::kCached);
    EXPECT_EQ(ctx_c2.record(StageKind::kGenerate).status, StageStatus::kCached);
    EXPECT_EQ(ctx_c2.record(StageKind::kGenerate).tier,
              core::ArtifactTier::kMemory);
    EXPECT_EQ(store->stats().generate.misses, 2u);
    EXPECT_EQ(store->stats().generate.memory_hits, 1u);

    // Front-end change: TM seed.  New key -> miss.
    FlowConfig c = small_config();
    c.tm.seed = 99;
    const CompileContext ctx_c = Pipeline(c, store).run(split.train, split.test);
    EXPECT_EQ(ctx_c.record(StageKind::kTrain).status, StageStatus::kOk);
    EXPECT_EQ(store->stats().train.misses, 2u);
    EXPECT_EQ(store->stats().train.memory_entries, 2u);
}

TEST(ArtifactStoreTest, FrontendHashSeparatesTrainingKnobsFromBackendKnobs) {
    const FlowConfig base = small_config();

    FlowConfig backend = base;
    backend.arch.bus_width = 64;
    backend.device = "z7045";
    backend.strash = false;
    backend.verify_vectors = 99;
    EXPECT_EQ(core::frontend_config_hash(base),
              core::frontend_config_hash(backend));

    FlowConfig frontend = base;
    frontend.epochs += 1;
    EXPECT_NE(core::frontend_config_hash(base),
              core::frontend_config_hash(frontend));
}

TEST(ArtifactStoreTest, DatasetFingerprintTracksContent) {
    const auto a = data::make_noisy_xor(200, 10, 0.02, 1);
    const auto b = data::make_noisy_xor(200, 10, 0.02, 2);
    auto c = a;
    EXPECT_EQ(core::dataset_fingerprint(a), core::dataset_fingerprint(c));
    EXPECT_NE(core::dataset_fingerprint(a), core::dataset_fingerprint(b));
    c.labels[0] ^= 1;
    EXPECT_NE(core::dataset_fingerprint(a), core::dataset_fingerprint(c));
}

// A stand-in verify stage that always fails, for diagnostics-propagation
// coverage (a genuine ladder failure would need a miscompiled design).
class FailingVerifyStage final : public core::Stage {
public:
    StageKind kind() const override { return StageKind::kVerify; }
    StageStatus run(CompileContext& ctx) const override {
        rtl::VerificationReport rep;
        rep.first_failure = "injected: HCB 1 mismatch on vector 3";
        ctx.verification = rep;
        ctx.error(kind(), "equivalence ladder failed: " + rep.first_failure);
        return StageStatus::kFailed;
    }
};

TEST(Pipeline, EmptyTestSetReportsZeroTestAccuracy) {
    const auto split = small_split();
    data::Dataset empty;
    empty.name = "empty";
    empty.num_features = split.train.num_features;
    empty.num_classes = split.train.num_classes;

    const Pipeline pipeline(small_config());
    const CompileContext ctx = pipeline.run(
        split.train, empty, {StageKind::kTrain, StageKind::kTrain});
    ASSERT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kOk);
    EXPECT_GT(ctx.train_accuracy, 0.0);
    EXPECT_EQ(ctx.test_accuracy, 0.0) << "empty test set must not mirror "
                                         "train accuracy";
}

TEST(Pipeline, TrainStageSurfacesTrainingRecord) {
    const auto split = small_split();
    FlowConfig cfg = small_config();
    cfg.eval_every = 1;
    const Pipeline pipeline(cfg);
    const CompileContext ctx = pipeline.run(split.train, split.test);

    ASSERT_TRUE(ctx.train_report.has_value());
    EXPECT_EQ(ctx.train_report->epochs_run, cfg.epochs);
    EXPECT_EQ(ctx.train_report->history.size(), cfg.epochs);
    EXPECT_NE(ctx.record(StageKind::kTrain).detail.find("epochs=5/5"),
              std::string::npos);

    const auto r = ctx.to_flow_result();
    EXPECT_EQ(r.train_epochs_run, cfg.epochs);
    EXPECT_EQ(r.train_stop_reason, "max-epochs");
    ASSERT_EQ(r.accuracy_history.size(), cfg.epochs);
    EXPECT_DOUBLE_EQ(r.accuracy_history.back().eval_accuracy, r.test_accuracy);

    // And the record round-trips through the sweep JSON document.
    const auto back = core::flow_result_from_json(core::flow_result_to_json(r));
    ASSERT_EQ(back.accuracy_history.size(), r.accuracy_history.size());
    for (std::size_t i = 0; i < r.accuracy_history.size(); ++i) {
        EXPECT_EQ(back.accuracy_history[i].epoch, r.accuracy_history[i].epoch);
        EXPECT_EQ(back.accuracy_history[i].train_accuracy,
                  r.accuracy_history[i].train_accuracy);
        EXPECT_EQ(back.accuracy_history[i].eval_accuracy,
                  r.accuracy_history[i].eval_accuracy);
    }
    EXPECT_EQ(back.train_stop_reason, r.train_stop_reason);
}

TEST(ArtifactStoreTest, DiskRehydratedTrainingRecordMatchesFreshRun) {
    const auto split = small_split();
    FlowConfig cfg = small_config();
    cfg.eval_every = 2;
    cfg.patience = 0;

    const auto dir = std::filesystem::temp_directory_path() /
                     "matador_train_record_cache";
    std::filesystem::remove_all(dir);
    cfg.cache_dir = dir.string();

    core::FlowResult fresh, rehydrated;
    {
        const Pipeline pipeline(cfg);
        const CompileContext ctx = pipeline.run(split.train, split.test);
        ASSERT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kOk);
        fresh = ctx.to_flow_result();
    }
    {
        const Pipeline pipeline(cfg);  // new store: must come from disk
        const CompileContext ctx = pipeline.run(split.train, split.test);
        ASSERT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kCached);
        EXPECT_EQ(ctx.record(StageKind::kTrain).tier, core::ArtifactTier::kDisk);
        rehydrated = ctx.to_flow_result();
    }
    // The serialized JSON keeps every double's bits: equal strings mean the
    // disk tier reproduced the training record exactly.
    EXPECT_EQ(core::flow_result_to_json(fresh).dump(),
              core::flow_result_to_json(rehydrated).dump());
    std::filesystem::remove_all(dir);
}

TEST(Pipeline, FailingVerifyStagePropagatesDiagnostics) {
    const auto split = small_split();
    Pipeline pipeline(small_config());
    pipeline.set_stage(std::make_unique<FailingVerifyStage>());
    const CompileContext ctx = pipeline.run(split.train, split.test);

    EXPECT_FALSE(ctx.ok());
    EXPECT_TRUE(ctx.has_errors());
    EXPECT_EQ(ctx.record(StageKind::kVerify).status, StageStatus::kFailed);
    // The pipeline keeps going: the report stage still produces its row
    // (matching the classic flow, which never aborted on a verify failure).
    EXPECT_EQ(ctx.record(StageKind::kReport).status, StageStatus::kOk);

    bool found = false;
    for (const auto& d : ctx.diagnostics)
        if (d.severity == core::Diagnostic::Severity::kError &&
            d.stage == StageKind::kVerify &&
            d.message.find("injected") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
    EXPECT_NE(core::format_diagnostics(ctx).find("[error] verify"),
              std::string::npos);
    // And the classic view reflects the failure.
    EXPECT_FALSE(ctx.to_flow_result().verification.ok());
}

FlowConfig sat_config() {
    FlowConfig cfg = small_config();
    cfg.verify_sat = true;
    return cfg;
}

std::vector<std::string> verify_notes(const CompileContext& ctx) {
    std::vector<std::string> notes;
    for (const auto& d : ctx.diagnostics)
        if (d.stage == StageKind::kVerify && d.severity == core::Diagnostic::Severity::kNote)
            notes.push_back(d.message);
    return notes;
}

TEST(PipelineVerify, SatRungReportsTheSameAtAnyThreadCount) {
    const auto split = small_split();
    std::string diagnostics_1t;
    for (const std::size_t threads : {1u, 4u}) {
        FlowConfig cfg = sat_config();
        cfg.train_threads = threads;
        const CompileContext ctx = Pipeline(cfg).run(split.train, split.test);
        EXPECT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
        ASSERT_TRUE(ctx.proof.has_value()) << "threads=" << threads;
        EXPECT_TRUE(ctx.proof->equivalent) << "threads=" << threads;
        ASSERT_GT(ctx.proof->outputs_total, 0u);
        const std::string n = std::to_string(ctx.proof->outputs_total);
        const std::string& detail = ctx.record(StageKind::kVerify).detail;
        EXPECT_TRUE(detail.ends_with("; prove: " + n + "/" + n + " unsat")) << detail;
        if (threads == 1)
            diagnostics_1t = core::format_diagnostics(ctx);
        else
            EXPECT_EQ(core::format_diagnostics(ctx), diagnostics_1t);
    }
}

TEST(PipelineVerify, SecondRunServesLintThenProofFromMemory) {
    const auto split = small_split();
    const auto store = std::make_shared<ArtifactStore>();
    const CompileContext first = Pipeline(sat_config(), store).run(split.train, split.test);
    ASSERT_TRUE(first.proof.has_value());
    EXPECT_TRUE(verify_notes(first).empty());

    const CompileContext second = Pipeline(sat_config(), store).run(split.train, split.test);
    EXPECT_TRUE(second.ok()) << core::format_diagnostics(second);
    ASSERT_TRUE(second.proof.has_value());
    EXPECT_EQ(sat::prove_report_to_json(*second.proof).dump(),
              sat::prove_report_to_json(*first.proof).dump());
    EXPECT_EQ(verify_notes(second),
              (std::vector<std::string>{
                  "lint report served from artifact store (memory tier)",
                  "proof report served from artifact store (memory tier)"}));
}

/// The default generate stage, then an assign to an undeclared net in the
/// top module: a lint error the generated design does not otherwise have.
class LintBreakingGenerateStage final : public core::Stage {
public:
    StageKind kind() const override { return StageKind::kGenerate; }
    StageStatus run(CompileContext& ctx) const override {
        const StageStatus status = generate_->run(ctx);
        ctx.design->top.assigns.push_back({rtl::ref("ghost_out"), rtl::ref("ghost_in")});
        return status;
    }

private:
    std::unique_ptr<core::Stage> generate_ = core::make_default_stage(StageKind::kGenerate);
};

TEST(PipelineVerify, LintErrorFailsVerifyAndLeavesProofUnset) {
    const auto split = small_split();
    Pipeline pipeline(sat_config());
    pipeline.set_stage(std::make_unique<LintBreakingGenerateStage>());
    const CompileContext ctx = pipeline.run(split.train, split.test);

    EXPECT_EQ(ctx.record(StageKind::kVerify).status, StageStatus::kFailed);
    EXPECT_FALSE(ctx.proof.has_value());
    ASSERT_TRUE(ctx.lint_report.has_value());
    ASSERT_GT(ctx.lint_report->errors(), 0u);
    EXPECT_EQ(ctx.record(StageKind::kVerify).detail, "lint: " + ctx.lint_report->summary());
    // Lint's errors are the stage's only errors: no other rung reported.
    std::size_t errors = 0;
    for (const auto& d : ctx.diagnostics)
        if (d.stage == StageKind::kVerify && d.severity == core::Diagnostic::Severity::kError) {
            ++errors;
            EXPECT_TRUE(d.message.starts_with("lint [unknown-net] ")) << d.message;
        }
    EXPECT_EQ(errors, ctx.lint_report->errors());
}

TEST(PipelineVerify, TracedRungsRunInTurnOnThePool) {
    // A traced SAT-verify flow on 4 workers: lint, the ladder, the system
    // sim, golden predict and the proof run one after another on the
    // stage's thread, and the fanned-out rungs show their jobs.
#ifdef MATADOR_OBS_NO_TRACING
    GTEST_SKIP() << "tracing compiled out";
#endif
    const auto split = small_split();
    FlowConfig cfg = sat_config();
    cfg.train_threads = 4;
    auto& rec = obs::TraceRecorder::instance();
    rec.reset();
    rec.enable();
    const CompileContext ctx = Pipeline(cfg).run(split.train, split.test);
    rec.disable();
    const util::Json trace = rec.to_json();
    rec.reset();
    ASSERT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
    ASSERT_TRUE(ctx.proof.has_value());

    struct Span {
        double begin = -1, end = -1;
    };
    std::map<std::string, Span> rung;
    std::size_t module_jobs = 0;
    std::map<std::string, std::vector<std::size_t>> hcb_jobs;
    for (const util::Json& ev : trace.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() != "X") continue;
        const std::string name = ev.at("name").as_string();
        const double ts = ev.at("ts").as_double();
        if (name == "lint" || name == "ladder" || name == "system-sim" ||
            name == "golden-predict" || name == "prove-design") {
            EXPECT_EQ(rung[name].begin, -1) << name << " recorded twice";
            rung[name] = {ts, ts + ev.at("dur").as_double()};
        } else if (name == "module-lint") {
            ++module_jobs;
        } else if (name == "hcb-lint" || name == "level-3") {
            hcb_jobs[name].push_back(ev.at("args").at("hcb").as_count());
        }
    }
    const char* const order[] = {"lint", "ladder", "system-sim", "golden-predict",
                                 "prove-design"};
    for (const char* name : order) ASSERT_TRUE(rung.count(name)) << name;
    for (std::size_t i = 1; i < std::size(order); ++i)
        EXPECT_GE(rung[order[i]].begin, rung[order[i - 1]].end)
            << order[i] << " starts before " << order[i - 1] << " ends";

    const auto& design = *ctx.design;
    std::vector<std::size_t> every_hcb(design.hcbs.size());
    for (std::size_t i = 0; i < every_hcb.size(); ++i) every_hcb[i] = i;
    // One module-lint job per hcb_<k> wrapper plus class_sum, argmax,
    // controller and top; the comb modules are text, linted as AIGs.
    EXPECT_EQ(module_jobs, design.hcbs.size() + 4);
    for (const char* name : {"hcb-lint", "level-3"}) {
        std::sort(hcb_jobs[name].begin(), hcb_jobs[name].end());
        EXPECT_EQ(hcb_jobs[name], every_hcb) << name;
    }
}

TEST(Pipeline, StageExceptionBecomesFailedStatusWithDiagnostic) {
    const auto split = small_split();
    FlowConfig cfg = small_config();
    cfg.device = "no-such-device";
    const CompileContext ctx = Pipeline(cfg).run(split.train, split.test);
    EXPECT_EQ(ctx.record(StageKind::kReport).status, StageStatus::kFailed);
    EXPECT_FALSE(ctx.ok());
    EXPECT_NE(core::format_diagnostics(ctx).find("report"), std::string::npos);
}

TEST(Sweep, BackendOnlySweepTrainsExactlyOnce) {
    const auto split = small_split();
    FlowConfig base = small_config();
    base.skip_rtl_verification = true;

    // Two-point backend-only grid: bus width 8 vs 16.
    const auto grid =
        core::expand_grid(base, {{"bus_width", {"8", "16"}}});
    ASSERT_EQ(grid.size(), 2u);

    core::SweepOptions options;
    options.threads = 2;
    const auto sr = Pipeline::sweep(split.train, split.test, grid, options);

    ASSERT_EQ(sr.points.size(), 2u);
    for (const auto& p : sr.points) EXPECT_TRUE(p.ok);
    // The acceptance criterion: the train stage executed exactly once; the
    // other point was served from the shared artifact store.
    EXPECT_EQ(sr.store_stats.train.misses, 1u);
    EXPECT_EQ(sr.store_stats.train.hits(), 1u);
    // bus_width enters the generate key, so both points built HCBs.
    EXPECT_EQ(sr.store_stats.generate.misses, 2u);
    const auto trained_runs = std::count_if(
        sr.points.begin(), sr.points.end(), [](const core::SweepPoint& p) {
            return p.stages[core::stage_index(StageKind::kTrain)].status ==
                   StageStatus::kOk;
        });
    EXPECT_EQ(trained_runs, 1);
    // Identical front end, different backend.
    EXPECT_DOUBLE_EQ(sr.points[0].result.test_accuracy,
                     sr.points[1].result.test_accuracy);
    EXPECT_NE(sr.points[0].result.arch.plan.bus_width,
              sr.points[1].result.arch.plan.bus_width);
}

TEST(Sweep, StoreStatsOfEveryStageSurviveJson) {
    // With the SAT rung on, all four stages count: the proof tier's misses
    // and disk entries must reach the sweep document and come back.
    const auto split = small_split();
    const auto dir = std::filesystem::temp_directory_path() /
                     "matador_sweep_stats_cache";
    std::filesystem::remove_all(dir);
    FlowConfig base = small_config();
    base.skip_rtl_verification = true;
    base.verify_sat = true;
    base.cache_dir = dir.string();
    const auto grid = core::expand_grid(base, {{"bus_width", {"8", "16"}}});

    const auto sr = Pipeline::sweep(split.train, split.test, grid, {});
    for (const auto& p : sr.points) EXPECT_TRUE(p.ok);
    EXPECT_EQ(sr.store_stats.train.misses, 1u);
    EXPECT_EQ(sr.store_stats.lint.misses, 2u);
    EXPECT_EQ(sr.store_stats.proof.misses, 2u);
    EXPECT_EQ(sr.store_stats.proof.disk_entries, 2u);

    const auto back = core::sweep_result_from_json(
        util::Json::parse(core::sweep_result_to_json(sr).dump()));
    sr.store_stats.for_each([&](const char* stage, const ArtifactStore::TierStats& t) {
        const ArtifactStore::TierStats& b = back.store_stats[stage];
        EXPECT_EQ(b.misses, t.misses) << stage;
        EXPECT_EQ(b.memory_hits, t.memory_hits) << stage;
        EXPECT_EQ(b.disk_hits, t.disk_hits) << stage;
        EXPECT_EQ(b.memory_entries, t.memory_entries) << stage;
        EXPECT_EQ(b.disk_entries, t.disk_entries) << stage;
    });
    EXPECT_EQ(back.store_stats.proof.disk_entries, 2u);

    // A document from before the proof tier was counted still reads.
    util::Json older = util::Json::object();
    older.set("train", core::store_stats_to_json(sr.store_stats).at("train"));
    older.set("generate", core::store_stats_to_json(sr.store_stats).at("generate"));
    const auto old_stats = core::store_stats_from_json(older);
    EXPECT_EQ(old_stats.train.misses, 1u);
    EXPECT_EQ(old_stats.proof.misses, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
    const auto split = small_split();
    FlowConfig base = small_config();
    base.skip_rtl_verification = true;
    base.sim_datapoints = 4;

    const auto grid = core::expand_grid(
        base, {{"clauses_per_class", {"8", "12"}}, {"bus_width", {"8", "16"}}});
    ASSERT_EQ(grid.size(), 4u);

    core::SweepOptions serial;
    serial.threads = 1;
    core::SweepOptions parallel;
    parallel.threads = 3;
    const auto a = core::sweep(split.train, split.test, grid, serial);
    const auto b = core::sweep(split.train, split.test, grid, parallel);

    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].index, i);
        EXPECT_EQ(b.points[i].index, i);
        EXPECT_DOUBLE_EQ(a.points[i].result.test_accuracy,
                         b.points[i].result.test_accuracy);
        EXPECT_EQ(a.points[i].result.resources.luts,
                  b.points[i].result.resources.luts);
        EXPECT_EQ(a.points[i].result.arch.latency_cycles(),
                  b.points[i].result.arch.latency_cycles());
        EXPECT_DOUBLE_EQ(a.points[i].result.arch.options.clock_mhz,
                         b.points[i].result.arch.options.clock_mhz);
    }
    // Both sweeps trained each distinct front end exactly once.
    EXPECT_EQ(a.store_stats.train.misses, 2u);
    EXPECT_EQ(b.store_stats.train.misses, 2u);
}

TEST(Sweep, ExpandGridOrderAndValidation) {
    const FlowConfig base = small_config();
    const auto grid = core::expand_grid(
        base, {{"bus_width", {"8", "16"}}, {"epochs", {"1", "2", "3"}}});
    ASSERT_EQ(grid.size(), 6u);
    // Outermost-first: bus_width varies slowest.
    EXPECT_EQ(grid[0].arch.bus_width, 8u);
    EXPECT_EQ(grid[0].epochs, 1u);
    EXPECT_EQ(grid[2].epochs, 3u);
    EXPECT_EQ(grid[3].arch.bus_width, 16u);

    EXPECT_THROW(core::expand_grid(base, {{"no_such_key", {"1"}}}),
                 std::invalid_argument);
    EXPECT_THROW(core::expand_grid(base, {{"bus_width", {}}}),
                 std::invalid_argument);
}

TEST(Pipeline, ImportedModelSkipsTrainStage) {
    const auto split = small_split();
    const Pipeline pipeline(small_config());
    const CompileContext trained = pipeline.run(split.train, split.test);

    const CompileContext imported =
        pipeline.run_with_model(*trained.trained, &split.test);
    EXPECT_EQ(imported.record(StageKind::kTrain).status, StageStatus::kSkipped);
    EXPECT_TRUE(imported.model_imported);
    EXPECT_TRUE(imported.ok()) << core::format_diagnostics(imported);
    EXPECT_DOUBLE_EQ(imported.test_accuracy, trained.test_accuracy);
    EXPECT_DOUBLE_EQ(imported.train_accuracy, 0.0);
    EXPECT_EQ(imported.to_flow_result().resources.luts,
              trained.to_flow_result().resources.luts);
}

}  // namespace
