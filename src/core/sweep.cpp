#include "core/sweep.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/config_io.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace matador::core {

SweepPoint run_sweep_point(std::size_t index, const FlowConfig& cfg,
                           const data::Dataset& train, const data::Dataset& test,
                           const StageRange& range,
                           const std::shared_ptr<ArtifactStore>& store) {
    SweepPoint p;
    p.index = index;
    p.cfg = cfg;
    obs::SpanGuard span("point " + std::to_string(index), "sweep");
    // An escaping exception in a worker thread would terminate the
    // process; fold it into the point's diagnostics instead.
    try {
        const Pipeline pipeline(cfg, store);
        CompileContext ctx = pipeline.run(train, test, range);
        p.result = ctx.to_flow_result();
        p.ok = ctx.ok();
        p.stages = ctx.records;
        p.diagnostics = std::move(ctx.diagnostics);
    } catch (const std::exception& e) {
        p.ok = false;
        p.diagnostics.push_back({Diagnostic::Severity::kError, range.from,
                                 std::string("sweep point: ") + e.what()});
    }
    return p;
}

SweepResult sweep(const data::Dataset& train, const data::Dataset& test,
                  const std::vector<FlowConfig>& grid,
                  const SweepOptions& options) {
    if (stage_index(options.range.from) > stage_index(options.range.to))
        throw std::invalid_argument("sweep: range.from is after range.to");

    SweepResult result;
    auto store = options.store
                     ? options.store
                     : std::make_shared<ArtifactStore>(
                           grid.empty() ? "" : grid.front().cache_dir);

    unsigned threads = options.threads;
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    threads = unsigned(std::min<std::size_t>(threads, std::max<std::size_t>(
                                                          1, grid.size())));
    result.threads_used = threads;
    result.points.resize(grid.size());

    obs::Timer watch;
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < grid.size();
             i = next.fetch_add(1))
            result.points[i] =
                run_sweep_point(i, grid[i], train, test, options.range, store);
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
        for (auto& th : pool) th.join();
    }

    result.wall_seconds = watch.seconds();
    result.store_stats = store->stats();
    return result;
}

std::vector<FlowConfig> expand_grid(
    const FlowConfig& base,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& axes) {
    std::vector<FlowConfig> grid{base};
    for (const auto& [key, values] : axes) {
        if (values.empty())
            throw std::invalid_argument("expand_grid: axis '" + key +
                                        "' has no values");
        std::vector<FlowConfig> expanded;
        expanded.reserve(grid.size() * values.size());
        for (const auto& cfg : grid) {
            for (const auto& value : values) {
                FlowConfig variant = cfg;
                if (!apply_flow_option(variant, key, value))
                    throw std::invalid_argument("expand_grid: unknown key '" +
                                                key + "'");
                expanded.push_back(std::move(variant));
            }
        }
        grid = std::move(expanded);
    }
    return grid;
}

SweepResult Pipeline::sweep(const data::Dataset& train, const data::Dataset& test,
                            const std::vector<FlowConfig>& grid,
                            const SweepOptions& options) {
    return core::sweep(train, test, grid, options);
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

using util::Json;

Json num(double v) { return Json(v); }
Json num(std::size_t v) { return Json(double(v)); }
Json num(unsigned v) { return Json(double(v)); }

/// Read a double; the writer emits non-finite values as the strings
/// "nan" / "inf" / "-inf" (JSON has no token for them).
double get_f64(const Json& j, const std::string& key) {
    const Json& v = j.at(key);
    if (v.is_string()) {
        const std::string& s = v.as_string();
        if (s == "nan") return std::nan("");
        if (s == "inf") return std::numeric_limits<double>::infinity();
        if (s == "-inf") return -std::numeric_limits<double>::infinity();
        throw std::runtime_error("json: bad number string '" + s + "' for " + key);
    }
    return v.as_double();
}

std::size_t get_size(const Json& j, const std::string& key) {
    return j.at(key).as_count();
}

unsigned get_u32(const Json& j, const std::string& key) {
    return unsigned(j.at(key).as_count(std::numeric_limits<std::uint32_t>::max()));
}

bool get_bool(const Json& j, const std::string& key) {
    return j.at(key).as_bool();
}

std::string get_str(const Json& j, const std::string& key) {
    return j.at(key).as_string();
}

void check_version(const Json& j, const char* format) {
    if (get_str(j, "format") != format)
        throw std::runtime_error(std::string("sweep json: not a ") + format +
                                 " document");
    const unsigned v = get_u32(j, "version");
    if (v == 0 || v > kSweepJsonVersion)
        throw std::runtime_error(
            std::string("sweep json: ") + format + " v" + std::to_string(v) +
            " is not supported (this build reads up to v" +
            std::to_string(kSweepJsonVersion) + ")");
}

StageStatus status_from_name(const std::string& name) {
    for (const StageStatus s :
         {StageStatus::kNotRun, StageStatus::kOk, StageStatus::kCached,
          StageStatus::kSkipped, StageStatus::kFailed})
        if (name == status_name(s)) return s;
    throw std::runtime_error("sweep json: unknown stage status '" + name + "'");
}

ArtifactTier tier_from_name(const std::string& name) {
    for (const ArtifactTier t :
         {ArtifactTier::kNone, ArtifactTier::kMemory, ArtifactTier::kDisk})
        if (name == tier_name(t)) return t;
    throw std::runtime_error("sweep json: unknown artifact tier '" + name + "'");
}

const char* severity_name(Diagnostic::Severity s) {
    switch (s) {
        case Diagnostic::Severity::kNote: return "note";
        case Diagnostic::Severity::kWarning: return "warning";
        case Diagnostic::Severity::kError: return "error";
    }
    return "?";
}

Diagnostic::Severity severity_from_name(const std::string& name) {
    for (const auto s : {Diagnostic::Severity::kNote,
                         Diagnostic::Severity::kWarning,
                         Diagnostic::Severity::kError})
        if (name == severity_name(s)) return s;
    throw std::runtime_error("sweep json: unknown severity '" + name + "'");
}

StageKind stage_from_name_checked(const std::string& name) {
    const auto k = stage_from_name(name);
    if (!k) throw std::runtime_error("sweep json: unknown stage '" + name + "'");
    return *k;
}

Json tier_stats_to_json(const ArtifactStore::TierStats& t) {
    Json j = Json::object();
    j.set("memory_hits", num(t.memory_hits));
    j.set("disk_hits", num(t.disk_hits));
    j.set("misses", num(t.misses));
    j.set("memory_entries", num(t.memory_entries));
    j.set("disk_entries", num(t.disk_entries));
    return j;
}

ArtifactStore::TierStats tier_stats_from_json(const Json& j) {
    ArtifactStore::TierStats t;
    t.memory_hits = get_size(j, "memory_hits");
    t.disk_hits = get_size(j, "disk_hits");
    t.misses = get_size(j, "misses");
    t.memory_entries = get_size(j, "memory_entries");
    t.disk_entries = get_size(j, "disk_entries");
    return t;
}

}  // namespace

std::string flow_config_to_text(const FlowConfig& cfg) {
    std::ostringstream out;
    save_flow_config(cfg, out);
    return out.str();
}

FlowConfig flow_config_from_text(const std::string& text) {
    std::istringstream in(text);
    return load_flow_config(in);
}

std::uint64_t grid_content_hash(const std::vector<FlowConfig>& grid) {
    Fnv1a h;
    h.u64(grid.size());
    for (const auto& cfg : grid) {
        const std::string text = flow_config_to_text(cfg);
        h.u64(text.size());
        h.bytes(text.data(), text.size());
    }
    return h.digest();
}

util::Json flow_result_to_json(const FlowResult& r) {
    Json j = Json::object();

    // Trained model, as its own versioned text format (empty models - e.g.
    // a point that failed before training - serialize and load fine too).
    {
        std::ostringstream model_text;
        r.trained_model.save(model_text);
        j.set("trained_model", model_text.str());
    }
    j.set("train_accuracy", num(r.train_accuracy));
    j.set("test_accuracy", num(r.test_accuracy));
    j.set("train_epochs_run", num(r.train_epochs_run));
    j.set("train_stop_reason", Json(r.train_stop_reason));
    j.set("train_best_epoch", num(r.train_best_epoch));
    {
        Json h = Json::array();
        for (const auto& m : r.accuracy_history) {
            Json e = Json::object();
            e.set("epoch", num(m.epoch));
            e.set("train_accuracy", num(m.train_accuracy));
            e.set("eval_accuracy", num(m.eval_accuracy));
            h.push_back(std::move(e));
        }
        j.set("accuracy_history", std::move(h));
    }

    {
        Json a = Json::object();
        a.set("input_bits", num(r.arch.input_bits));
        a.set("num_classes", num(r.arch.num_classes));
        a.set("clauses_per_class", num(r.arch.clauses_per_class));
        a.set("plan_input_bits", num(r.arch.plan.input_bits));
        a.set("plan_bus_width", num(r.arch.plan.bus_width));
        a.set("bus_width", num(r.arch.options.bus_width));
        a.set("clock_mhz", num(r.arch.options.clock_mhz));
        a.set("argmax_levels_per_stage", num(r.arch.options.argmax_levels_per_stage));
        a.set("adder_levels_per_stage", num(r.arch.options.adder_levels_per_stage));
        a.set("class_sum_levels", num(r.arch.class_sum_levels));
        a.set("class_sum_stages", num(r.arch.class_sum_stages));
        a.set("argmax_levels", num(r.arch.argmax_levels));
        a.set("argmax_stages", num(r.arch.argmax_stages));
        a.set("sum_width", num(r.arch.sum_width));
        j.set("arch", std::move(a));
    }
    {
        Json s = Json::object();
        s.set("total_clauses", num(r.sparsity.total_clauses));
        s.set("empty_clauses", num(r.sparsity.empty_clauses));
        s.set("total_includes", num(r.sparsity.total_includes));
        s.set("literal_slots", num(r.sparsity.literal_slots));
        s.set("include_density", num(r.sparsity.include_density));
        s.set("min_includes", num(r.sparsity.min_includes));
        s.set("max_includes", num(r.sparsity.max_includes));
        s.set("mean_includes", num(r.sparsity.mean_includes));
        j.set("sparsity", std::move(s));
    }
    {
        Json s = Json::object();
        Json per_packet = Json::array();
        for (const auto& p : r.sharing.per_packet) {
            Json e = Json::object();
            e.set("packet", num(p.packet));
            e.set("total_partials", num(p.total_partials));
            e.set("unique_partials", num(p.unique_partials));
            e.set("trivial_partials", num(p.trivial_partials));
            e.set("intra_class_duplicates", num(p.intra_class_duplicates));
            e.set("inter_class_duplicates", num(p.inter_class_duplicates));
            per_packet.push_back(std::move(e));
        }
        s.set("per_packet", std::move(per_packet));
        s.set("duplicate_full_clauses", num(r.sharing.duplicate_full_clauses));
        s.set("mean_sharing_ratio", num(r.sharing.mean_sharing_ratio));
        j.set("sharing", std::move(s));
    }

    j.set("hcb_mapped_luts", num(r.hcb_mapped_luts));
    j.set("hcb_max_depth", num(r.hcb_max_depth));
    j.set("max_feature_fanout", num(r.max_feature_fanout));

    {
        Json t = Json::object();
        t.set("critical_path_ns", num(r.timing.critical_path_ns));
        t.set("fmax_estimate_mhz", num(r.timing.fmax_estimate_mhz));
        t.set("recommended_mhz", num(r.timing.recommended_mhz));
        j.set("timing", std::move(t));
    }
    {
        Json s = Json::object();
        s.set("luts", num(r.resources.luts));
        s.set("lut_logic", num(r.resources.lut_logic));
        s.set("lut_mem", num(r.resources.lut_mem));
        s.set("registers", num(r.resources.registers));
        s.set("f7_mux", num(r.resources.f7_mux));
        s.set("f8_mux", num(r.resources.f8_mux));
        s.set("slices", num(r.resources.slices));
        s.set("bram36", num(r.resources.bram36));
        j.set("resources", std::move(s));
    }
    {
        Json p = Json::object();
        p.set("total_w", num(r.power.total_w));
        p.set("dynamic_w", num(r.power.dynamic_w));
        p.set("static_w", num(r.power.static_w));
        p.set("fabric_dynamic_w", num(r.power.fabric_dynamic_w));
        p.set("ps_dynamic_w", num(r.power.ps_dynamic_w));
        j.set("power", std::move(p));
    }
    {
        Json v = Json::object();
        v.set("expressions_match_model", Json(r.verification.expressions_match_model));
        v.set("hcb_aigs_match_expressions",
              Json(r.verification.hcb_aigs_match_expressions));
        v.set("rtl_matches_aigs", Json(r.verification.rtl_matches_aigs));
        v.set("hcbs_checked", num(r.verification.hcbs_checked));
        v.set("vectors_checked", num(r.verification.vectors_checked));
        v.set("first_failure", Json(r.verification.first_failure));
        j.set("verification", std::move(v));
    }

    j.set("system_verified", Json(r.system_verified));
    j.set("measured_latency_cycles", num(r.measured_latency_cycles));
    j.set("measured_ii", num(r.measured_ii));
    j.set("latency_us", num(r.latency_us));
    j.set("throughput_inf_per_s", num(r.throughput_inf_per_s));

    Json files = Json::array();
    for (const auto& f : r.rtl_files) files.push_back(Json(f));
    j.set("rtl_files", std::move(files));
    return j;
}

FlowResult flow_result_from_json(const util::Json& j) {
    FlowResult r;
    {
        std::istringstream model_text(get_str(j, "trained_model"));
        r.trained_model = model::TrainedModel::load(model_text);
    }
    r.train_accuracy = get_f64(j, "train_accuracy");
    r.test_accuracy = get_f64(j, "test_accuracy");
    // Training-record fields arrived with schema v2; default them when
    // reading a v1 document.
    if (j.contains("train_epochs_run")) {
        r.train_epochs_run = get_size(j, "train_epochs_run");
        r.train_stop_reason = get_str(j, "train_stop_reason");
        r.train_best_epoch = get_size(j, "train_best_epoch");
        for (const Json& e : j.at("accuracy_history").as_array()) {
            train::EpochMetrics m;
            m.epoch = get_size(e, "epoch");
            m.train_accuracy = get_f64(e, "train_accuracy");
            m.eval_accuracy = get_f64(e, "eval_accuracy");
            r.accuracy_history.push_back(m);
        }
    }

    {
        const Json& a = j.at("arch");
        r.arch.input_bits = get_size(a, "input_bits");
        r.arch.num_classes = get_size(a, "num_classes");
        r.arch.clauses_per_class = get_size(a, "clauses_per_class");
        // PacketPlan refuses zero input bits; a point that never reached the
        // architect stage keeps the default-constructed (empty) plan.
        const auto plan_bits = get_size(a, "plan_input_bits");
        if (plan_bits > 0)
            r.arch.plan = model::PacketPlan(plan_bits, get_size(a, "plan_bus_width"));
        r.arch.options.bus_width = get_size(a, "bus_width");
        r.arch.options.clock_mhz = get_f64(a, "clock_mhz");
        r.arch.options.argmax_levels_per_stage = get_u32(a, "argmax_levels_per_stage");
        r.arch.options.adder_levels_per_stage = get_u32(a, "adder_levels_per_stage");
        r.arch.class_sum_levels = get_u32(a, "class_sum_levels");
        r.arch.class_sum_stages = get_u32(a, "class_sum_stages");
        r.arch.argmax_levels = get_u32(a, "argmax_levels");
        r.arch.argmax_stages = get_u32(a, "argmax_stages");
        r.arch.sum_width = get_u32(a, "sum_width");
    }
    {
        const Json& s = j.at("sparsity");
        r.sparsity.total_clauses = get_size(s, "total_clauses");
        r.sparsity.empty_clauses = get_size(s, "empty_clauses");
        r.sparsity.total_includes = get_size(s, "total_includes");
        r.sparsity.literal_slots = get_size(s, "literal_slots");
        r.sparsity.include_density = get_f64(s, "include_density");
        r.sparsity.min_includes = get_size(s, "min_includes");
        r.sparsity.max_includes = get_size(s, "max_includes");
        r.sparsity.mean_includes = get_f64(s, "mean_includes");
    }
    {
        const Json& s = j.at("sharing");
        for (const Json& e : s.at("per_packet").as_array()) {
            model::PacketSharing p;
            p.packet = get_size(e, "packet");
            p.total_partials = get_size(e, "total_partials");
            p.unique_partials = get_size(e, "unique_partials");
            p.trivial_partials = get_size(e, "trivial_partials");
            p.intra_class_duplicates = get_size(e, "intra_class_duplicates");
            p.inter_class_duplicates = get_size(e, "inter_class_duplicates");
            r.sharing.per_packet.push_back(p);
        }
        r.sharing.duplicate_full_clauses = get_size(s, "duplicate_full_clauses");
        r.sharing.mean_sharing_ratio = get_f64(s, "mean_sharing_ratio");
    }

    r.hcb_mapped_luts = get_size(j, "hcb_mapped_luts");
    r.hcb_max_depth = get_u32(j, "hcb_max_depth");
    r.max_feature_fanout = get_size(j, "max_feature_fanout");

    {
        const Json& t = j.at("timing");
        r.timing.critical_path_ns = get_f64(t, "critical_path_ns");
        r.timing.fmax_estimate_mhz = get_f64(t, "fmax_estimate_mhz");
        r.timing.recommended_mhz = get_f64(t, "recommended_mhz");
    }
    {
        const Json& s = j.at("resources");
        r.resources.luts = get_size(s, "luts");
        r.resources.lut_logic = get_size(s, "lut_logic");
        r.resources.lut_mem = get_size(s, "lut_mem");
        r.resources.registers = get_size(s, "registers");
        r.resources.f7_mux = get_size(s, "f7_mux");
        r.resources.f8_mux = get_size(s, "f8_mux");
        r.resources.slices = get_size(s, "slices");
        r.resources.bram36 = get_f64(s, "bram36");
    }
    {
        const Json& p = j.at("power");
        r.power.total_w = get_f64(p, "total_w");
        r.power.dynamic_w = get_f64(p, "dynamic_w");
        r.power.static_w = get_f64(p, "static_w");
        r.power.fabric_dynamic_w = get_f64(p, "fabric_dynamic_w");
        r.power.ps_dynamic_w = get_f64(p, "ps_dynamic_w");
    }
    {
        const Json& v = j.at("verification");
        r.verification.expressions_match_model = get_bool(v, "expressions_match_model");
        r.verification.hcb_aigs_match_expressions =
            get_bool(v, "hcb_aigs_match_expressions");
        r.verification.rtl_matches_aigs = get_bool(v, "rtl_matches_aigs");
        r.verification.hcbs_checked = get_size(v, "hcbs_checked");
        r.verification.vectors_checked = get_size(v, "vectors_checked");
        r.verification.first_failure = get_str(v, "first_failure");
    }

    r.system_verified = get_bool(j, "system_verified");
    r.measured_latency_cycles = get_size(j, "measured_latency_cycles");
    r.measured_ii = get_f64(j, "measured_ii");
    r.latency_us = get_f64(j, "latency_us");
    r.throughput_inf_per_s = get_f64(j, "throughput_inf_per_s");

    for (const Json& f : j.at("rtl_files").as_array())
        r.rtl_files.push_back(f.as_string());
    return r;
}

util::Json sweep_point_to_json(const SweepPoint& p) {
    Json j = Json::object();
    j.set("format", "matador-sweep-point");
    j.set("version", num(kSweepJsonVersion));
    j.set("index", num(p.index));
    j.set("config", flow_config_to_text(p.cfg));
    j.set("ok", Json(p.ok));
    j.set("result", flow_result_to_json(p.result));

    Json stages = Json::array();
    for (const StageRecord& rec : p.stages) {
        Json s = Json::object();
        s.set("stage", stage_name(rec.kind));
        s.set("status", status_name(rec.status));
        s.set("seconds", num(rec.seconds));
        s.set("tier", tier_name(rec.tier));
        s.set("detail", Json(rec.detail));
        stages.push_back(std::move(s));
    }
    j.set("stages", std::move(stages));

    Json diags = Json::array();
    for (const Diagnostic& d : p.diagnostics) {
        Json e = Json::object();
        e.set("severity", severity_name(d.severity));
        e.set("stage", stage_name(d.stage));
        e.set("message", Json(d.message));
        diags.push_back(std::move(e));
    }
    j.set("diagnostics", std::move(diags));
    return j;
}

SweepPoint sweep_point_from_json(const util::Json& j) {
    check_version(j, "matador-sweep-point");
    SweepPoint p;
    p.index = get_size(j, "index");
    p.cfg = flow_config_from_text(get_str(j, "config"));
    p.ok = get_bool(j, "ok");
    p.result = flow_result_from_json(j.at("result"));

    const auto& stages = j.at("stages").as_array();
    if (stages.size() != kNumStages)
        throw std::runtime_error("sweep json: expected " +
                                 std::to_string(kNumStages) + " stage records");
    for (const Json& s : stages) {
        StageRecord rec;
        rec.kind = stage_from_name_checked(get_str(s, "stage"));
        rec.status = status_from_name(get_str(s, "status"));
        rec.seconds = get_f64(s, "seconds");
        rec.tier = tier_from_name(get_str(s, "tier"));
        if (s.contains("detail")) rec.detail = get_str(s, "detail");
        p.stages[stage_index(rec.kind)] = rec;
    }

    for (const Json& e : j.at("diagnostics").as_array()) {
        Diagnostic d;
        d.severity = severity_from_name(get_str(e, "severity"));
        d.stage = stage_from_name_checked(get_str(e, "stage"));
        d.message = get_str(e, "message");
        p.diagnostics.push_back(std::move(d));
    }
    return p;
}

util::Json store_stats_to_json(const ArtifactStore::Stats& s) {
    Json j = Json::object();
    s.for_each([&](const char* stage, const ArtifactStore::TierStats& t) {
        j.set(stage, tier_stats_to_json(t));
    });
    return j;
}

ArtifactStore::Stats store_stats_from_json(const util::Json& j) {
    ArtifactStore::Stats s;
    // Tolerant read: documents from older builds lack the later stages
    // (lint, proof), which then read as all-zero counters.
    s.for_each([&](const char* stage, ArtifactStore::TierStats& t) {
        if (j.contains(stage)) t = tier_stats_from_json(j.at(stage));
    });
    return s;
}

util::Json sweep_result_to_json(const SweepResult& r) {
    Json j = Json::object();
    j.set("format", "matador-sweep-result");
    j.set("version", num(kSweepJsonVersion));
    Json points = Json::array();
    for (const SweepPoint& p : r.points) points.push_back(sweep_point_to_json(p));
    j.set("points", std::move(points));
    j.set("store_stats", store_stats_to_json(r.store_stats));
    j.set("threads_used", num(r.threads_used));
    j.set("wall_seconds", num(r.wall_seconds));
    return j;
}

SweepResult sweep_result_from_json(const util::Json& j) {
    check_version(j, "matador-sweep-result");
    SweepResult r;
    for (const Json& p : j.at("points").as_array())
        r.points.push_back(sweep_point_from_json(p));
    r.store_stats = store_stats_from_json(j.at("store_stats"));
    r.threads_used = get_u32(j, "threads_used");
    r.wall_seconds = get_f64(j, "wall_seconds");
    return r;
}

}  // namespace matador::core
