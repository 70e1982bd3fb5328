#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "infer/engine.hpp"
#include "logic/lut_mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "train/worker_pool.hpp"
#include "util/rng.hpp"

namespace matador::core {

// ---------------------------------------------------------------------------
// Stage identity
// ---------------------------------------------------------------------------

std::array<StageKind, kNumStages> stage_order() {
    return {StageKind::kTrain,    StageKind::kAnalyze, StageKind::kArchitect,
            StageKind::kGenerate, StageKind::kVerify,  StageKind::kReport};
}

const char* stage_name(StageKind k) {
    switch (k) {
        case StageKind::kTrain: return "train";
        case StageKind::kAnalyze: return "analyze";
        case StageKind::kArchitect: return "architect";
        case StageKind::kGenerate: return "generate";
        case StageKind::kVerify: return "verify";
        case StageKind::kReport: return "report";
    }
    return "?";
}

std::optional<StageKind> stage_from_name(const std::string& name) {
    for (auto k : stage_order())
        if (name == stage_name(k)) return k;
    return std::nullopt;
}

const char* status_name(StageStatus s) {
    switch (s) {
        case StageStatus::kNotRun: return "not-run";
        case StageStatus::kOk: return "ok";
        case StageStatus::kCached: return "cached";
        case StageStatus::kSkipped: return "skipped";
        case StageStatus::kFailed: return "FAILED";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// CompileContext
// ---------------------------------------------------------------------------

CompileContext::CompileContext(FlowConfig config) : cfg(std::move(config)) {
    for (auto k : stage_order()) records[stage_index(k)].kind = k;
}

void CompileContext::note(StageKind stage, std::string message) {
    diagnostics.push_back({Diagnostic::Severity::kNote, stage, std::move(message)});
}

void CompileContext::warn(StageKind stage, std::string message) {
    diagnostics.push_back(
        {Diagnostic::Severity::kWarning, stage, std::move(message)});
}

void CompileContext::error(StageKind stage, std::string message) {
    diagnostics.push_back({Diagnostic::Severity::kError, stage, std::move(message)});
}

bool CompileContext::has_errors() const {
    return std::any_of(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
        return d.severity == Diagnostic::Severity::kError;
    });
}

bool CompileContext::ok() const {
    if (has_errors()) return false;
    return std::none_of(records.begin(), records.end(), [](const auto& r) {
        return r.status == StageStatus::kFailed;
    });
}

double CompileContext::total_seconds() const {
    double s = 0.0;
    for (const auto& r : records) s += r.seconds;
    return s;
}

FlowResult CompileContext::to_flow_result() const {
    FlowResult r;
    if (trained) r.trained_model = *trained;
    r.train_accuracy = train_accuracy;
    r.test_accuracy = test_accuracy;
    if (train_report) {
        r.train_epochs_run = train_report->epochs_run;
        r.train_stop_reason = train::stop_reason_name(train_report->stop_reason);
        r.train_best_epoch = train_report->best_epoch;
        r.accuracy_history = train_report->history;
    }
    if (arch) r.arch = *arch;
    if (sparsity) r.sparsity = *sparsity;
    if (sharing) r.sharing = *sharing;
    r.max_feature_fanout = max_feature_fanout.value_or(0);
    r.hcb_mapped_luts = hcb_mapped_luts;
    r.hcb_max_depth = hcb_max_depth;
    if (timing) r.timing = *timing;
    if (resources) r.resources = *resources;
    if (power) r.power = *power;
    if (verification) r.verification = *verification;
    r.system_verified = system_verified;
    r.measured_latency_cycles = measured_latency_cycles;
    r.measured_ii = measured_ii;
    if (arch) {
        r.latency_us = arch->latency_us();
        r.throughput_inf_per_s = arch->throughput_inf_per_s();
    }
    r.rtl_files = rtl_files;
    return r;
}

// ---------------------------------------------------------------------------
// Stage implementations
// ---------------------------------------------------------------------------

namespace {

/// Max fanout of a packet-bit net: the number of live clauses that include
/// the most popular feature (either polarity).  Drives the timing model.
std::size_t compute_max_feature_fanout(const model::TrainedModel& m) {
    std::vector<std::size_t> fanout(m.num_features(), 0);
    for (std::size_t c = 0; c < m.num_classes(); ++c) {
        for (std::size_t j = 0; j < m.clauses_per_class(); ++j) {
            const auto& cl = m.clause(c, j);
            for (auto f : cl.include_pos.set_bits()) fanout[f]++;
            for (auto f : cl.include_neg.set_bits()) fanout[f]++;
        }
    }
    std::size_t mx = 0;
    for (auto v : fanout) mx = std::max(mx, v);
    return mx;
}

double evaluate_model(const model::TrainedModel& m, const data::Dataset& ds) {
    if (ds.size() == 0) return 0.0;
    // 64 examples per pass; predictions (and the accuracy double) are
    // bit-identical to the scalar m.predict loop this replaces.
    return infer::BatchEngine(m).accuracy(ds);
}

/// Per-stage cache hit/miss counters (only meaningful when a store was in
/// play; hits are further split by the tier that served them).
void count_cache_lookup(StageKind kind, ArtifactTier tier) {
    auto& registry = obs::MetricsRegistry::global();
    if (tier == ArtifactTier::kNone)
        registry.counter("pipeline_cache_misses", {{"stage", stage_name(kind)}})
            .add();
    else
        registry
            .counter("pipeline_cache_hits",
                     {{"stage", stage_name(kind)}, {"tier", tier_name(tier)}})
            .add();
}

class TrainStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kTrain; }

    StageStatus run(CompileContext& ctx) const override {
        if (ctx.trained) {
            // Yellow import flow: the model arrived from outside; only the
            // accuracy column needs computing.
            ctx.model_imported = true;
            if (ctx.test_set)
                ctx.test_accuracy = evaluate_model(*ctx.trained, *ctx.test_set);
            ctx.note(kind(), "model imported; training skipped (yellow flow)");
            return StageStatus::kSkipped;
        }
        if (!ctx.train_set) {
            ctx.error(kind(),
                      "train stage needs a training dataset or an imported model");
            return StageStatus::kFailed;
        }

        const auto train_fn = [&]() -> TrainedArtifact {
            tm::TsetlinMachine machine(ctx.cfg.tm, ctx.train_set->num_features,
                                       ctx.train_set->num_classes);
            train::FitOptions opts;
            opts.epochs = ctx.cfg.epochs;
            opts.threads = unsigned(ctx.cfg.train_threads);
            opts.eval_every = ctx.cfg.eval_every;
            opts.patience = ctx.cfg.patience;
            train::ParallelTrainer trainer(opts);
            // A present-but-empty test set must keep the historical
            // "no test accuracy" 0.0 (the trainer itself would fall back
            // to reporting train accuracy in the eval column).
            const data::Dataset* eval_set =
                ctx.test_set && ctx.test_set->size() > 0 ? ctx.test_set : nullptr;
            TrainedArtifact a;
            a.fit = trainer.fit(machine, *ctx.train_set, eval_set);
            a.model = std::make_shared<model::TrainedModel>(machine.export_model());
            a.train_accuracy = a.fit.train_accuracy;
            a.test_accuracy = eval_set ? a.fit.eval_accuracy : 0.0;
            return a;
        };

        ArtifactTier tier = ArtifactTier::kNone;
        TrainedArtifact a;
        if (ctx.store) {
            Fnv1a key;
            key.u64(frontend_config_hash(ctx.cfg));
            key.u64(dataset_fingerprint(*ctx.train_set));
            key.u64(ctx.test_set ? dataset_fingerprint(*ctx.test_set) : 0);
            a = ctx.store->get_or_compute_trained(
                key.digest(), train_fn, &tier,
                [&](const std::string& msg) { ctx.warn(kind(), msg); });
        } else {
            a = train_fn();
        }
        ctx.trained = a.model;
        ctx.train_accuracy = a.train_accuracy;
        ctx.test_accuracy = a.test_accuracy;
        ctx.train_report = a.fit;
        ctx.record(kind()).tier = tier;
        if (ctx.store) count_cache_lookup(kind(), tier);
        {
            char detail[96];
            std::snprintf(detail, sizeof detail, "epochs=%zu/%zu stop=%s best=%zu",
                          a.fit.epochs_run, ctx.cfg.epochs,
                          train::stop_reason_name(a.fit.stop_reason),
                          a.fit.best_epoch);
            ctx.record(kind()).detail = detail;
        }
        if (tier != ArtifactTier::kNone)
            ctx.note(kind(), std::string("trained model served from artifact "
                                         "store (") +
                                 tier_name(tier) + " tier)");
        return tier != ArtifactTier::kNone ? StageStatus::kCached
                                           : StageStatus::kOk;
    }
};

class AnalyzeStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kAnalyze; }

    StageStatus run(CompileContext& ctx) const override {
        if (!ctx.trained) {
            ctx.warn(kind(), "no trained model; analyze skipped");
            return StageStatus::kSkipped;
        }
        const auto& m = *ctx.trained;
        ctx.sparsity = model::analyze_sparsity(m);
        ctx.sharing = model::analyze_sharing(
            m, model::PacketPlan(m.num_features(), ctx.cfg.arch.bus_width));
        ctx.max_feature_fanout = compute_max_feature_fanout(m);
        return StageStatus::kOk;
    }
};

class ArchitectStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kArchitect; }

    StageStatus run(CompileContext& ctx) const override {
        if (!ctx.trained) {
            ctx.warn(kind(), "no trained model; architect skipped");
            return StageStatus::kSkipped;
        }
        // Initial derivation at the configured clock; the generate stage
        // refines the clock from the mapped LUT depth when auto_frequency
        // is on (it needs the HCB netlists to estimate timing).
        ctx.arch = model::derive_architecture(*ctx.trained, ctx.cfg.arch);
        return StageStatus::kOk;
    }
};

class GenerateStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kGenerate; }

    StageStatus run(CompileContext& ctx) const override {
        if (!ctx.trained || !ctx.arch) {
            ctx.warn(kind(), "missing model/architecture; generate skipped");
            return StageStatus::kSkipped;
        }
        const auto& m = *ctx.trained;

        // The expensive, backend-key-invariant part: HCB AIG construction
        // and LUT mapping.  Keyed by model content + bus_width + strash, so
        // clock/device-only variants reuse it.
        const auto generate_fn = [&]() -> GeneratedArtifact {
            GeneratedArtifact g;
            g.strash = ctx.cfg.strash;
            auto hcbs = rtl::build_hcbs(m, ctx.arch->plan, ctx.cfg.strash);
            for (const auto& hcb : hcbs) {
                if (ctx.cfg.strash) {
                    const auto mapped = logic::map_to_luts(hcb.aig);
                    g.hcb_mapped_luts += mapped.lut_count;
                    g.hcb_max_depth = std::max(g.hcb_max_depth, mapped.depth);
                } else {
                    // DON'T_TOUCH semantics (Fig. 8): synthesis may neither
                    // share nor repack the clause gates, so every AND
                    // instantiates as its own LUT and depth follows the raw
                    // gate network.
                    g.hcb_mapped_luts += hcb.aig.count_reachable_ands();
                    g.hcb_max_depth =
                        std::max(g.hcb_max_depth, hcb.aig.depth());
                }
            }
            g.hcbs = std::make_shared<std::vector<rtl::HcbNetlist>>(
                std::move(hcbs));
            return g;
        };

        ArtifactTier tier = ArtifactTier::kNone;
        GeneratedArtifact artifact;
        if (ctx.store) {
            const auto key = backend_config_hash(ctx.cfg, m.content_hash());
            artifact = ctx.store->get_or_compute_generated(
                key, generate_fn, &tier,
                [&](const std::string& msg) { ctx.warn(kind(), msg); });
        } else {
            artifact = generate_fn();
        }
        ctx.record(kind()).tier = tier;
        if (ctx.store) count_cache_lookup(kind(), tier);
        if (tier != ArtifactTier::kNone)
            ctx.note(kind(), std::string("HCB netlists and LUT mapping served "
                                         "from artifact store (") +
                                 tier_name(tier) + " tier)");

        // Cheap re-derivation per run: module emission (deterministic from
        // the netlists, so disk-tier RTL is byte-identical to fresh RTL).
        ctx.design = std::make_shared<rtl::RtlDesign>(rtl::assemble_rtl(
            m, *ctx.arch, *artifact.hcbs, ctx.cfg.strash));
        ctx.hcb_mapped_luts = artifact.hcb_mapped_luts;
        ctx.hcb_max_depth = artifact.hcb_max_depth;

        // Timing-driven frequency selection (50-65 MHz band).
        if (!ctx.max_feature_fanout)
            ctx.max_feature_fanout = compute_max_feature_fanout(m);
        ctx.timing = cost::estimate_timing(ctx.hcb_max_depth,
                                           *ctx.max_feature_fanout);
        if (ctx.cfg.auto_frequency) {
            model::ArchOptions opts = ctx.cfg.arch;
            opts.clock_mhz = ctx.timing->recommended_mhz;
            ctx.arch = model::derive_architecture(m, opts);
            ctx.design->arch = *ctx.arch;
        }

        if (!ctx.cfg.rtl_output_dir.empty()) {
            ctx.rtl_files = rtl::write_design(*ctx.design, ctx.cfg.rtl_output_dir);
            obs::MetricsRegistry::global()
                .counter("pipeline_artifacts_written", {{"kind", "rtl"}})
                .add(ctx.rtl_files.size());
            ctx.note(kind(), "wrote " + std::to_string(ctx.rtl_files.size()) +
                                 " RTL files to " + ctx.cfg.rtl_output_dir);
        }
        return tier != ArtifactTier::kNone ? StageStatus::kCached
                                           : StageStatus::kOk;
    }
};

/// The verify ladder, one rung after another: lint (level 0), the
/// equivalence ladder (levels 1-3), the cycle-accurate system sim with its
/// golden predictions, and - opt-in - the SAT rung (levels 3-4).  Every
/// rung that fans out (lint, ladder level 3, prove) runs its jobs on one
/// worker pool of `train_threads` workers that the stage builds once, so at
/// most that many verify threads exist, and allocate, at any time.
class VerifyStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kVerify; }

    StageStatus run(CompileContext& ctx) const override {
        if (!ctx.trained || !ctx.arch || !ctx.design) {
            ctx.warn(kind(), "missing design artifacts; verify skipped");
            return StageStatus::kSkipped;
        }
        const auto& m = *ctx.trained;
        train::WorkerPool pool(
            train::WorkerPool::resolve(unsigned(ctx.cfg.train_threads)));

        // Level 0 of the ladder: static analysis over the generated
        // netlists.  Pure structure - no vectors - so a lint error fails
        // the stage before any other rung starts.  Cached under the same
        // backend key as the netlists it analyzes.
        const auto lint_fn = [&]() -> LintArtifact {
            TRACE_SPAN("lint", "verify");
            LintArtifact a;
            a.report = lint::lint_design(*ctx.design, &m, &pool);
            return a;
        };
        ArtifactTier lint_tier = ArtifactTier::kNone;
        LintArtifact lint_artifact;
        if (ctx.store) {
            // lint_cache_key, not the raw backend hash: the key folds in the
            // lint subsystem version, so checker changes invalidate cached
            // verdicts instead of silently resurfacing stale ones.
            const auto key = lint_cache_key(ctx.cfg, m.content_hash());
            lint_artifact = ctx.store->get_or_compute_lint(
                key, lint_fn, &lint_tier,
                [&](const std::string& msg) { ctx.warn(kind(), msg); });
        } else {
            lint_artifact = lint_fn();
        }
        ctx.lint_report = std::move(lint_artifact.report);
        ctx.record(kind()).detail = "lint: " + ctx.lint_report->summary();
        if (ctx.store) count_cache_lookup(kind(), lint_tier);
        {
            const auto errors = ctx.lint_report->errors();
            const auto warnings = ctx.lint_report->warnings();
            auto& registry = obs::MetricsRegistry::global();
            const auto count = [&](const char* sev, std::size_t n) {
                if (n) registry
                           .counter("pipeline_lint_findings",
                                    {{"severity", sev}})
                           .add(n);
            };
            count("error", errors);
            count("warning", warnings);
            count("info",
                  ctx.lint_report->findings.size() - errors - warnings);
        }
        if (lint_tier != ArtifactTier::kNone)
            ctx.note(kind(), std::string("lint report served from artifact "
                                         "store (") +
                                 tier_name(lint_tier) + " tier)");
        if (ctx.lint_report->errors() > 0) {
            for (const auto& f : ctx.lint_report->findings)
                if (f.severity == lint::Severity::kError)
                    ctx.error(kind(),
                              "lint [" + f.check + "] " + f.where +
                                  (f.object.empty() ? "" : " / " + f.object) +
                                  ": " + f.message);
            return StageStatus::kFailed;
        }
        if (ctx.lint_report->warnings() > 0)
            ctx.warn(kind(),
                     "lint: " + std::to_string(ctx.lint_report->warnings()) +
                         " warning(s); run `matador lint` for details");

        // Equivalence ladder (the auto-debug flow).
        bool ladder_skipped = false;
        rtl::VerificationReport rep;
        if (!ctx.cfg.skip_rtl_verification) {
            TRACE_SPAN("ladder", "verify");
            rep = rtl::verify_design(*ctx.design, m, ctx.cfg.verify_vectors,
                                     /*seed=*/1234, &pool);
        } else {
            rep.expressions_match_model = true;
            rep.hcb_aigs_match_expressions = true;
            rep.rtl_matches_aigs = true;
            ladder_skipped = true;
        }
        ctx.verification = rep;

        // System-level streaming check (cycle-accurate).
        std::vector<util::BitVector> inputs;
        util::Xoshiro256ss rng(4321);
        const std::size_t n = std::max<std::size_t>(2, ctx.cfg.sim_datapoints);
        for (std::size_t i = 0; i < n; ++i) {
            if (ctx.test_set && i < ctx.test_set->size()) {
                inputs.push_back(ctx.test_set->examples[i]);
            } else {
                util::BitVector x(m.num_features());
                for (std::size_t w = 0; w < x.word_count(); ++w)
                    x.set_word(w, rng());
                inputs.push_back(std::move(x));
            }
        }
        obs::SpanGuard sim_span("system-sim", "verify");
        sim::AcceleratorSim simulator(m, *ctx.arch);
        const sim::SimResult sr = simulator.run(inputs);
        sim_span.close();

        // Golden predictions come from the batched engine (bit-identical
        // to m.predict, 64 streamed datapoints per pass).
        obs::SpanGuard golden_span("golden-predict", "verify");
        const auto golden =
            infer::BatchEngine(m).predict(inputs.data(), inputs.size());
        golden_span.close();
        bool ok = sr.predictions.size() == inputs.size();
        for (std::size_t i = 0; ok && i < inputs.size(); ++i)
            ok = sr.predictions[i] == golden[i];
        ok = ok && sr.first_latency_cycles == ctx.arch->latency_cycles();
        ok = ok && std::llround(sr.mean_initiation_interval) ==
                       (long long)(ctx.arch->initiation_interval());
        ctx.system_verified = ok;
        ctx.measured_latency_cycles = sr.first_latency_cycles;
        ctx.measured_ii = sr.mean_initiation_interval;

        // Levels 3-4 (opt-in): SAT-proved scalar-vs-netlist equivalence per
        // output slice plus k-induction over the chain, on the same pool.
        // Cached under the proof key (backend hash + SAT subsystem version +
        // induction depth).
        bool proof_ok = true;
        if (ctx.cfg.verify_sat) {
            const auto prove_fn = [&]() -> ProofArtifact {
                ProofArtifact a;
                sat::ProveOptions popt;
                popt.induction_k = ctx.cfg.induction_k;
                a.report = sat::prove_design(ctx.design->hcbs, m, popt, pool);
                return a;
            };
            ArtifactTier proof_tier = ArtifactTier::kNone;
            ProofArtifact proof;
            if (ctx.store) {
                const auto key = proof_cache_key(ctx.cfg, m.content_hash());
                proof = ctx.store->get_or_compute_proof(
                    key, prove_fn, &proof_tier,
                    [&](const std::string& msg) { ctx.warn(kind(), msg); });
            } else {
                proof = prove_fn();
            }
            ctx.proof = std::move(proof.report);
            if (ctx.store) count_cache_lookup(kind(), proof_tier);
            if (proof_tier != ArtifactTier::kNone)
                ctx.note(kind(),
                         std::string("proof report served from artifact store (") +
                             tier_name(proof_tier) + " tier)");
            ctx.record(kind()).detail +=
                "; prove: " + std::to_string(ctx.proof->outputs_proved) + "/" +
                std::to_string(ctx.proof->outputs_total) + " unsat";
            proof_ok = ctx.proof->equivalent;
            if (!proof_ok)
                ctx.error(kind(),
                          "SAT equivalence tier failed (" +
                              std::to_string(ctx.proof->outputs_failed) +
                              " output(s) refuted, " +
                              std::to_string(ctx.proof->outputs_unknown) +
                              " unknown" +
                              (ctx.proof->induction_k && !ctx.proof->induction_ok
                                   ? ", induction failed"
                                   : "") +
                              "); run `matador prove` for details");
        }

        if (!rep.ok()) {
            ctx.error(kind(), "equivalence ladder failed: " +
                                  (rep.first_failure.empty() ? "unknown failure"
                                                             : rep.first_failure));
        }
        if (!ok) ctx.error(kind(), "system-level streaming check failed");
        if (!rep.ok() || !ok || !proof_ok) return StageStatus::kFailed;
        if (ladder_skipped)
            ctx.note(kind(), "equivalence ladder skipped (fast sweep mode)");
        return StageStatus::kOk;
    }
};

class ReportStage final : public Stage {
public:
    StageKind kind() const override { return StageKind::kReport; }

    StageStatus run(CompileContext& ctx) const override {
        if (!ctx.arch || !ctx.design) {
            ctx.warn(kind(), "missing design artifacts; report skipped");
            return StageStatus::kSkipped;
        }
        cost::MatadorResourceInputs rin;
        rin.hcb_mapped_luts = ctx.hcb_mapped_luts;
        rin.arch = *ctx.arch;
        rin.schedule = ctx.design->schedule;
        ctx.resources = cost::estimate_matador_resources(rin);
        const cost::DeviceSpec device = cost::device_by_name(ctx.cfg.device);
        ctx.power = cost::estimate_power(*ctx.resources, device,
                                         ctx.arch->options.clock_mhz);
        return StageStatus::kOk;
    }
};

}  // namespace

std::unique_ptr<Stage> make_default_stage(StageKind kind) {
    switch (kind) {
        case StageKind::kTrain: return std::make_unique<TrainStage>();
        case StageKind::kAnalyze: return std::make_unique<AnalyzeStage>();
        case StageKind::kArchitect: return std::make_unique<ArchitectStage>();
        case StageKind::kGenerate: return std::make_unique<GenerateStage>();
        case StageKind::kVerify: return std::make_unique<VerifyStage>();
        case StageKind::kReport: return std::make_unique<ReportStage>();
    }
    throw std::invalid_argument("make_default_stage: bad stage kind");
}

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

Pipeline::Pipeline(FlowConfig cfg, std::shared_ptr<ArtifactStore> store)
    : cfg_(std::move(cfg)), store_(std::move(store)) {
    if (!store_ && !cfg_.cache_dir.empty())
        store_ = std::make_shared<ArtifactStore>(cfg_.cache_dir);
    for (auto k : stage_order())
        stages_[stage_index(k)] = make_default_stage(k);
}

void Pipeline::set_stage(std::unique_ptr<Stage> stage) {
    stages_[stage_index(stage->kind())] = std::move(stage);
}

CompileContext Pipeline::run(const data::Dataset& train, const data::Dataset& test,
                             StageRange range) const {
    CompileContext ctx(cfg_);
    ctx.store = store_;
    ctx.train_set = &train;
    ctx.test_set = &test;
    run(ctx, range);
    return ctx;
}

CompileContext Pipeline::run_with_model(const model::TrainedModel& m,
                                        const data::Dataset* test,
                                        StageRange range) const {
    CompileContext ctx(cfg_);
    ctx.store = store_;
    ctx.test_set = test;
    ctx.trained = std::make_shared<model::TrainedModel>(m);
    run(ctx, range);
    return ctx;
}

void Pipeline::run(CompileContext& ctx, StageRange range) const {
    if (stage_index(range.from) > stage_index(range.to))
        throw std::invalid_argument("Pipeline::run: range.from is after range.to");
    for (auto k : stage_order()) {
        if (stage_index(k) < stage_index(range.from) ||
            stage_index(k) > stage_index(range.to))
            continue;
        const Stage& stage = *stages_[stage_index(k)];
        StageRecord& rec = ctx.record(k);
        // One measurement feeds both the report and the trace: the span's
        // duration IS rec.seconds (same clock, same two reads).
        obs::TimedSpan span(stage_name(k), "pipeline");
        StageStatus status;
        try {
            status = stage.run(ctx);
        } catch (const std::exception& e) {
            ctx.error(k, std::string(stage.name()) + ": " + e.what());
            status = StageStatus::kFailed;
        }
        rec.status = status;
        {
            util::Json args = util::Json::object();
            args.set("status", status_name(status));
            if (rec.tier != ArtifactTier::kNone)
                args.set("tier", tier_name(rec.tier));
            rec.seconds = span.finish(std::move(args));
        }
    }
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

std::string format_stage_report(const CompileContext& ctx) {
    std::ostringstream out;
    out << "stage      status        wall(ms)\n";
    for (const auto& rec : ctx.records) {
        // "cached" entries say which tier served them (memory vs disk).
        std::string status = status_name(rec.status);
        if (rec.status == StageStatus::kCached)
            status += std::string("(") + tier_name(rec.tier) + ")";
        char line[96];
        std::snprintf(line, sizeof line, "%-10s %-13s %9.2f",
                      stage_name(rec.kind), status.c_str(), rec.seconds * 1e3);
        out << line;
        if (!rec.detail.empty()) out << "  " << rec.detail;
        out << "\n";
    }
    char total[80];
    std::snprintf(total, sizeof total, "%-10s %-13s %9.2f\n", "total",
                  ctx.ok() ? "ok" : "FAILED", ctx.total_seconds() * 1e3);
    out << total;
    return out.str();
}

std::string format_diagnostics(const CompileContext& ctx) {
    std::ostringstream out;
    for (const auto& d : ctx.diagnostics) {
        const char* sev = d.severity == Diagnostic::Severity::kError     ? "error"
                          : d.severity == Diagnostic::Severity::kWarning ? "warning"
                                                                         : "note";
        out << "[" << sev << "] " << stage_name(d.stage) << ": " << d.message
            << "\n";
    }
    return out.str();
}

}  // namespace matador::core
