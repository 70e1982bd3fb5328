// matador: the command-line face of the automation tool (the paper's GUI,
// Fig. 6(a), without the window).
//
// Subcommands (each drives the corresponding pipeline stage range):
//   matador flow      --dataset <spec> [options]        end-to-end run
//   matador train     --dataset <spec> --model-out m.tm [options]
//   matador eval      --model m.tm --dataset <spec> [--check]   batched scoring
//   matador generate  --model m.tm --rtl-out dir [options]
//   matador verify    --model m.tm [options]
//   matador prove     --model m.tm [--output n] [--induction k]
//                     [--miter-out f.aag] [--inject-fault n]  SAT equivalence
//   matador aig       export --model m.tm --out f.aag [--hcb n] | import
//                     <f.aag|f.aig> [--out g.aag]             AIGER round-trip
//   matador lint      --model m.tm | <files.v...>  [--json] [--fail-on sev]
//   matador simulate  --model m.tm [--vcd out.vcd] [--trace] [options]
//   matador sweep     --dataset <spec> --sweep key=v1,v2,... [--jobs n]
//                     [--shards n | --shard-id i --shards n] [--out r.json]
//   matador sweep-merge --cache-dir dir [--out r.json]   merge sharded sweep
//   matador sweep-status <cache_dir>                    live sweep progress
//   matador serve     [--model m.tm] [--cache-dir dir]  NDJSON scoring daemon
//   matador serve-status <status.json> [--json]         daemon metrics view
//   matador metrics   <cache_dir|metrics.json> [--json] merged metrics view
//   matador cache     <stats|ls|clear|gc> --cache-dir dir  store admin
//   matador chaos     <cache_dir> --dataset <spec> [--sweep ...] [--seed n]
//                     [--kill-shards k] [--corrupt-artifacts m]
//                     [--faults plan.json]              seeded recovery gate
//   matador stages                                      list pipeline stages
//   matador datasets                                    list dataset specs
//
// Distributed sweeps: 'sweep --shards n' forks n local shard processes over
// a work-stealing queue under <cache_dir>/queue and merges their results;
// 'sweep --shard-id i --shards n' runs ONE shard (any machine sharing the
// cache_dir), and 'sweep-merge' reassembles the grid-ordered result.
//
// Dataset specs:
//   mnist-like | kmnist-like | fmnist-like | cifar2-like | kws6-like |
//   noisy-xor | iris-like                (synthetic surrogates)
//   csv:<path>[:label=<col|last>][:levels=<n>]   (real data; thermometer
//                                                 booleanized when levels>1,
//                                                 threshold 0.5 otherwise)
//
// All FlowConfig keys are accepted as --<key> <value> (see config_io.hpp);
// --config <file> loads a key=value file first, explicit flags override.
// Unknown subcommands, unknown flags, and flags that do not apply to the
// chosen subcommand are usage errors.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "data/csv_loader.hpp"
#include "dist/gc.hpp"
#include "dist/shard_runner.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "dist/sweep_merge.hpp"
#include "dist/sweep_status.hpp"
#include "dist/work_queue.hpp"
#include "infer/engine.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/error.hpp"
#include "serve/server.hpp"
#include "train/fit.hpp"
#include "train/worker_pool.hpp"
#include "data/synthetic.hpp"
#include "model/architecture.hpp"
#include "rtl/generators.hpp"
#include "rtl/pynq_driver_gen.hpp"
#include "rtl/testbench_gen.hpp"
#include "lint/lint.hpp"
#include "logic/aiger.hpp"
#include "rtl/verification.hpp"
#include "sat/miter.hpp"
#include "sat/prove.hpp"
#include "rtl/verilog_parser.hpp"
#include "sim/accelerator_sim.hpp"
#include "util/fsio.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace matador;

[[noreturn]] void usage(int code) {
    std::puts(
        "usage: matador <flow|train|eval|generate|verify|prove|aig|lint|"
        "simulate|sweep|sweep-merge|sweep-status|serve|serve-status|metrics|"
        "cache|chaos|stages|datasets> [options]\n"
        "\n"
        "common options:\n"
        "  --dataset <spec>        dataset (see 'matador datasets')\n"
        "  --examples <n>          synthetic examples per class (default 200)\n"
        "  --data-seed <n>         synthetic dataset seed\n"
        "  --train-fraction <f>    train/test split (default 0.85)\n"
        "  --model <file>          trained model input (.tm)\n"
        "  --model-out <file>      trained model output (.tm)\n"
        "  --rtl-out <dir>         write the Verilog design here\n"
        "  --config <file>         key=value flow configuration\n"
        "  --stop-after <stage>    flow: stop the pipeline after this stage\n"
        "  --timing                flow: print the per-stage timing table\n"
        "  --check                 eval: also run the scalar reference path\n"
        "                          and fail on any prediction mismatch\n"
        "  --predictions-out <f>   eval: write test-split predictions, one\n"
        "                          per line (byte-comparable across runs)\n"
        "  --dump-requests <f>     eval: write the test split as NDJSON\n"
        "                          predict requests for 'matador serve'\n"
        "  --fail-on <sev>         lint: exit nonzero at this severity or\n"
        "                          above (info|warning|error; default error)\n"
        "  --json                  lint/prove: emit the report as JSON\n"
        "  --output <n>            prove: only this output (hcb-major index;\n"
        "                          default: all outputs + induction)\n"
        "  --induction <k>         prove: induction depth over the clause\n"
        "                          chain (default induction_k = 1)\n"
        "  --miter-out <f>         prove: write the whole-design miter as\n"
        "                          AIGER (.aag ascii, .aig binary)\n"
        "  --inject-fault <n>      prove: invert netlist output n first (the\n"
        "                          proof must then FAIL with a witness)\n"
        "  --metrics-out <f>       prove: write solver metrics JSON here\n"
        "  --hcb <n>               aig export: which HCB netlist (default 0)\n"
        "  --vcd <file>            simulate: dump ILA-probe waveforms\n"
        "  --trace                 simulate: print the cycle trace\n"
        "  --datapoints <n>        simulate: streamed datapoints (default 16)\n"
        "  --sweep <key=v1,v2,..>  sweep: one grid axis (repeatable)\n"
        "  --jobs <n>              sweep: worker threads (default: all cores;\n"
        "                          inside a shard the default is 1)\n"
        "  --shards <n>            sweep: fork n local shard processes over a\n"
        "                          work-stealing queue in --cache-dir, merge\n"
        "  --shard-id <i>          sweep: run only shard i of --shards n (for\n"
        "                          machines sharing one --cache-dir)\n"
        "  --lease-timeout <sec>   sweep: steal a shard's claimed point after\n"
        "                          this many seconds without a heartbeat (60)\n"
        "  --max-retries <n>       sweep: give a point up (queue/failed/)\n"
        "                          after n steals instead of re-running it\n"
        "                          forever (0 = unlimited)\n"
        "  --alias <name>          serve: alias for the --model (default\n"
        "                          'default')\n"
        "  --status-file <file>    serve: periodically write the serve-status\n"
        "                          JSON snapshot here\n"
        "  --status-interval <s>   serve: snapshot period (default 1.0)\n"
        "  --max-queue-depth <n>   serve: shed requests beyond this backlog\n"
        "                          with error 'overloaded' (default 1024)\n"
        "  --max-inflight <n>      serve: in-order response window (256)\n"
        "  --seed <n>              chaos: master seed (fault sequence, kill\n"
        "                          points, corruption targets; default 1)\n"
        "  --kill-shards <k>       chaos: SIGKILL this many shard children\n"
        "                          at a seeded result-write crash point (1)\n"
        "  --corrupt-artifacts <m> chaos: flip one seeded bit in m cached\n"
        "                          payload files before the chaos pass (1)\n"
        "  --faults <plan.json>    chaos: fault plan armed in the surviving\n"
        "                          shards (default: transient ENOSPC + EIO\n"
        "                          on durable publishes)\n"
        "  --max-age-days <d>      cache gc: collect results/ manifests and\n"
        "                          finished queues older than this\n"
        "  --max-bytes <n>         cache gc: shrink results/ to this size,\n"
        "                          oldest manifests first\n"
        "  --dry-run               cache gc: report, do not delete\n"
        "  --out <file>            sweep/sweep-merge: write the full result\n"
        "                          as machine-readable JSON\n"
        "  --trace-out <file>      record a Chrome trace-event timeline of\n"
        "                          this run (open in ui.perfetto.dev); a\n"
        "                          sharded sweep stitches every shard's\n"
        "                          timeline into the one file\n"
        "  --prometheus            metrics: Prometheus text instead of the\n"
        "                          table view\n"
        "  --cache-dir <dir>       persistent artifact store (trained models +\n"
        "                          generated RTL survive restarts)\n"
        "  --train-threads <n>     trainer worker threads (0 = all cores; the\n"
        "                          trained model is bit-identical either way)\n"
        "  --eval-every <n>        evaluate accuracy every n epochs (0 = end)\n"
        "  --patience <n>          early stop after n evals without\n"
        "                          improvement (0 = off)\n"
        "  --history               train: print the per-epoch accuracy table\n"
        "  --<flow-key> <value>    any FlowConfig key (clauses_per_class,\n"
        "                          threshold, specificity, epochs, bus_width,\n"
        "                          clock_mhz, device, strash, ...)\n"
        "\n"
        "each subcommand accepts only the options that apply to it; anything\n"
        "else is a usage error.");
    std::exit(code);
}

struct CliArgs {
    std::string command;
    std::map<std::string, std::string> options;
    std::vector<std::string> sweep_axes;  ///< raw "key=v1,v2,..." specs
    std::vector<std::string> files;       ///< lint: positional .v paths
    bool flag(const std::string& name) const { return options.count(name) > 0; }
    std::string get(const std::string& name, const std::string& def = "") const {
        const auto it = options.find(name);
        return it == options.end() ? def : it->second;
    }
};

/// Which CLI-only options each subcommand understands.  Every subcommand
/// also accepts the FlowConfig keys (apply_flow_option) except where
/// `flow_keys` is false.
struct CommandSpec {
    const char* name;
    std::vector<const char*> cli_options;
    bool flow_keys = true;
};

const std::vector<CommandSpec>& command_specs() {
    static const std::vector<CommandSpec> specs = {
        {"flow",
         {"dataset", "examples", "data-seed", "train-fraction", "model-out",
          "rtl-out", "config", "stop-after", "timing", "trace-out"}},
        {"train",
         {"dataset", "examples", "data-seed", "train-fraction", "model-out",
          "config", "history", "trace-out"}},
        {"eval",
         {"model", "dataset", "examples", "data-seed", "train-fraction",
          "check", "predictions-out", "dump-requests", "config", "trace-out"}},
        {"generate", {"model", "rtl-out", "config"}},
        {"verify", {"model", "config"}},
        {"prove",
         {"model", "output", "induction", "miter-out", "inject-fault",
          "metrics-out", "json", "config", "trace-out"}},
        {"aig", {"model", "out", "hcb", "config"}},
        {"lint", {"model", "fail-on", "json", "config"}},
        {"simulate", {"model", "vcd", "trace", "datapoints", "config"}},
        {"sweep",
         {"dataset", "examples", "data-seed", "train-fraction", "sweep",
          "jobs", "shards", "shard-id", "lease-timeout", "max-retries", "out",
          "config", "trace-out"}},
        {"sweep-merge", {"out", "config", "trace-out"}},
        {"sweep-status", {"lease-timeout", "config"}},
        {"serve",
         {"model", "alias", "status-file", "status-interval",
          "max-queue-depth", "max-inflight", "config", "trace-out"}},
        {"serve-status", {"status-file", "json", "config"}},
        {"metrics", {"metrics-file", "json", "prometheus", "config"}},
        {"cache",
         {"max-age-days", "max-bytes", "dry-run", "config"}},
        {"chaos",
         {"dataset", "examples", "data-seed", "train-fraction", "sweep",
          "seed", "shards", "kill-shards", "corrupt-artifacts", "faults",
          "lease-timeout", "jobs", "config"}},
        {"stages", {}, false},
        {"datasets", {}, false},
    };
    return specs;
}

const CommandSpec* find_command(const std::string& name) {
    for (const auto& spec : command_specs())
        if (name == spec.name) return &spec;
    return nullptr;
}

/// Options that take no value.
bool is_boolean_flag(const std::string& name) {
    return name == "trace" || name == "timing" || name == "history" ||
           name == "check" || name == "json" || name == "dry-run" ||
           name == "prometheus";
}

std::size_t parse_count_option(const std::string& name, const std::string& v) {
    try {
        std::size_t pos = 0;
        const auto n = std::stoul(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return n;
    } catch (...) {
        throw std::runtime_error("bad value for --" + name + ": " + v);
    }
}

double parse_fraction_option(const std::string& name, const std::string& v) {
    try {
        std::size_t pos = 0;
        const double f = std::stod(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return f;
    } catch (...) {
        throw std::runtime_error("bad value for --" + name + ": " + v);
    }
}

CliArgs parse_args(int argc, char** argv, core::FlowConfig& cfg) {
    if (argc < 2) usage(1);
    CliArgs args;
    args.command = argv[1];
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h")
        usage(0);
    const CommandSpec* spec = find_command(args.command);
    if (!spec) {
        std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
        usage(1);
    }

    // First pass: --config loads the base file (explicit flags override it).
    for (int i = 2; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--config")
            cfg = core::load_flow_config_file(argv[i + 1]);

    const auto allowed = [&](const std::string& name) {
        return std::find_if(spec->cli_options.begin(), spec->cli_options.end(),
                            [&](const char* o) { return name == o; }) !=
               spec->cli_options.end();
    };

    // 'matador cache <stats|ls|clear|gc>' takes a positional action.
    int first_option = 2;
    if (args.command == "cache") {
        if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
            std::fprintf(stderr, "cache needs an action: stats|ls|clear|gc\n");
            usage(1);
        }
        args.options["action"] = argv[2];
        first_option = 3;
    }
    // 'matador aig <export|import>' takes a positional action too; import
    // then takes the AIGER file as a positional path.
    if (args.command == "aig") {
        if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
            std::fprintf(stderr, "aig needs an action: export|import\n");
            usage(1);
        }
        args.options["action"] = argv[2];
        first_option = 3;
    }
    // 'matador sweep-status <cache_dir>' takes an optional positional dir
    // (equivalent to --cache-dir).
    if (args.command == "sweep-status" && argc >= 3 &&
        std::string(argv[2]).rfind("--", 0) != 0) {
        cfg.cache_dir = argv[2];
        first_option = 3;
    }
    // 'matador chaos <cache_dir>': positional dir, like sweep-status.
    if (args.command == "chaos" && argc >= 3 &&
        std::string(argv[2]).rfind("--", 0) != 0) {
        cfg.cache_dir = argv[2];
        first_option = 3;
    }
    // 'matador serve-status <status.json>': positional = --status-file.
    if (args.command == "serve-status" && argc >= 3 &&
        std::string(argv[2]).rfind("--", 0) != 0) {
        args.options["status-file"] = argv[2];
        first_option = 3;
    }
    // 'matador metrics <cache_dir|metrics.json>': a directory merges the
    // sharded sweep's per-shard drops, a file is shown as-is.
    if (args.command == "metrics" && argc >= 3 &&
        std::string(argv[2]).rfind("--", 0) != 0) {
        if (std::filesystem::is_directory(argv[2]))
            cfg.cache_dir = argv[2];
        else
            args.options["metrics-file"] = argv[2];
        first_option = 3;
    }

    for (int i = first_option; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            // 'matador lint a.v b.v' lints standalone Verilog files;
            // 'matador aig import f.aag' reads a standalone AIGER file.
            if (args.command == "lint" || args.command == "aig") {
                args.files.push_back(std::move(arg));
                continue;
            }
            std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
            usage(1);
        }
        arg = arg.substr(2);
        // CLI spelling aliases for FlowConfig keys.
        if (arg == "cache-dir") arg = "cache_dir";
        if (arg == "train-threads") arg = "train_threads";
        if (arg == "eval-every") arg = "eval_every";
        const bool is_flag = is_boolean_flag(arg);
        std::string value;
        if (!is_flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for --%s\n", arg.c_str());
                usage(1);
            }
            value = argv[++i];
        }
        if (allowed(arg)) {
            if (arg == "sweep")
                args.sweep_axes.push_back(value);
            else
                args.options[arg] = is_flag ? "1" : value;
        } else if (!spec->flow_keys || !core::apply_flow_option(cfg, arg, value)) {
            std::fprintf(stderr, "unknown option for '%s': --%s\n",
                         args.command.c_str(), arg.c_str());
            usage(1);
        }
    }
    return args;
}

data::Dataset make_dataset(const CliArgs& args) {
    TRACE_SPAN("make-dataset", "data");
    const std::string spec = args.get("dataset");
    if (spec.empty()) {
        std::fprintf(stderr, "--dataset is required for this command\n");
        usage(1);
    }
    const auto n = parse_count_option("examples", args.get("examples", "200"));
    const auto seed = std::uint64_t(parse_count_option("data-seed", args.get("data-seed", "11")));

    if (spec == "mnist-like") return data::make_mnist_like(n, seed);
    if (spec == "kmnist-like") return data::make_kmnist_like(n, seed);
    if (spec == "fmnist-like") return data::make_fmnist_like(n, seed);
    if (spec == "cifar2-like") return data::make_cifar2_like(n, seed);
    if (spec == "kws6-like") return data::make_kws6_like(n, seed);
    if (spec == "noisy-xor") return data::make_noisy_xor(n * 10, 10, 0.02, seed);
    if (spec == "iris-like") return data::make_iris_like(n, 4, seed);

    if (spec.rfind("csv:", 0) == 0) {
        // csv:<path>[:label=...][:levels=...]
        const auto parts = util::split(spec.substr(4), ':');
        data::CsvOptions opts;
        std::size_t levels = 1;
        for (std::size_t i = 1; i < parts.size(); ++i) {
            if (parts[i].rfind("label=", 0) == 0) {
                const std::string v = parts[i].substr(6);
                opts.label_column = v == "last" ? -1 : std::stoi(v);
            } else if (parts[i].rfind("levels=", 0) == 0) {
                levels = std::stoul(parts[i].substr(7));
            } else {
                throw std::runtime_error("bad csv spec field: " + parts[i]);
            }
        }
        const auto raw = data::load_csv_file(parts[0], opts);
        if (levels > 1) {
            data::QuantileBooleanizer q(levels);
            q.fit(raw.rows);
            return data::booleanize(raw, q, "csv");
        }
        // Features assumed normalized to [0, 1]: threshold at 0.5.
        return data::booleanize(raw, data::ThresholdBooleanizer(0.5), "csv");
    }
    throw std::runtime_error("unknown dataset spec: " + spec);
}

model::TrainedModel load_model_arg(const CliArgs& args) {
    const std::string path = args.get("model");
    if (path.empty()) {
        std::fprintf(stderr, "--model is required for this command\n");
        usage(1);
    }
    return model::TrainedModel::load_file(path);
}

/// --trace-out plumbing: arm the process recorder before the command runs,
/// write the timeline when it finishes (including on error exits).  A
/// command that assembles its own merged trace calls dismiss() first.
class TraceOutput {
public:
    explicit TraceOutput(const CliArgs& args) : path_(args.get("trace-out")) {
        if (!path_.empty()) obs::TraceRecorder::instance().enable();
    }
    ~TraceOutput() {
        if (path_.empty()) return;
        try {
            obs::TraceRecorder::instance().write_file(path_);
            std::fprintf(stderr, "trace written to %s\n", path_.c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "cannot write trace %s: %s\n", path_.c_str(),
                         e.what());
        }
    }
    bool active() const { return !path_.empty(); }
    const std::string& path() const { return path_; }
    void dismiss() { path_.clear(); }

private:
    std::string path_;
};

/// Stitch the queue's per-shard trace drops (plus this process's own
/// timeline) into trace.path() and report how many tracks went in.
void write_merged_shard_trace(TraceOutput& trace, const std::string& cache_dir) {
    auto shard_traces = dist::read_shard_obs_files(cache_dir, ".trace.json");
    std::vector<util::Json> docs;
    std::vector<std::string> names;
    for (auto& [owner, doc] : shard_traces) {
        names.push_back(owner);
        docs.push_back(std::move(doc));
    }
    docs.push_back(obs::TraceRecorder::instance().to_json());
    names.push_back("coordinator");
    util::write_file_atomic(trace.path(),
                            obs::merge_traces(docs, names).dump(1) + "\n");
    std::fprintf(stderr, "trace written to %s (%zu shard track(s))\n",
                 trace.path().c_str(), shard_traces.size());
    trace.dismiss();
}

int cmd_flow(const CliArgs& args, core::FlowConfig cfg) {
    if (!args.get("rtl-out").empty()) cfg.rtl_output_dir = args.get("rtl-out");
    core::StageRange range;
    if (!args.get("stop-after").empty()) {
        const auto stage = core::stage_from_name(args.get("stop-after"));
        if (!stage) {
            std::fprintf(stderr, "unknown stage: %s (see 'matador stages')\n",
                         args.get("stop-after").c_str());
            usage(1);
        }
        range.to = *stage;
    }
    const auto ds = make_dataset(args);
    const double frac = parse_fraction_option("train-fraction", args.get("train-fraction", "0.85"));
    const auto split = data::train_test_split(ds, frac, 3);

    const core::Pipeline pipeline(cfg);
    const core::CompileContext ctx = pipeline.run(split.train, split.test, range);
    const auto r = ctx.to_flow_result();
    if (core::stage_index(range.to) >=
        core::stage_index(core::StageKind::kReport)) {
        std::cout << core::format_flow_summary(r, ds.name);
        std::cout << core::format_table({{ds.name, {core::to_table_row(r)}}});
    }
    if (args.flag("timing")) std::cout << "\n" << core::format_stage_report(ctx);
    std::cout << core::format_diagnostics(ctx);
    if (!args.get("model-out").empty()) {
        if (ctx.trained &&
            ctx.record(core::StageKind::kTrain).status !=
                core::StageStatus::kFailed) {
            r.trained_model.save_file(args.get("model-out"));
            std::printf("model written to %s\n", args.get("model-out").c_str());
        } else {
            std::fprintf(stderr, "train stage failed; not writing %s\n",
                         args.get("model-out").c_str());
        }
    }
    return ctx.ok() ? 0 : 1;
}

int cmd_train(const CliArgs& args, const core::FlowConfig& cfg) {
    const auto ds = make_dataset(args);
    const double frac = parse_fraction_option("train-fraction", args.get("train-fraction", "0.85"));
    const auto split = data::train_test_split(ds, frac, 3);

    const core::Pipeline pipeline(cfg);
    const core::CompileContext ctx = pipeline.run(
        split.train, split.test, {core::StageKind::kTrain, core::StageKind::kTrain});
    if (!ctx.ok()) {
        std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
        return 1;
    }
    const auto& m = *ctx.trained;
    std::printf("trained: %.2f%% train / %.2f%% test accuracy, %zu includes, "
                "%.3f%% density (%.2f s)\n",
                100.0 * ctx.train_accuracy, 100.0 * ctx.test_accuracy,
                m.total_includes(), 100.0 * m.include_density(),
                ctx.record(core::StageKind::kTrain).seconds);
    if (ctx.train_report) {
        const auto& rep = *ctx.train_report;
        std::printf("epochs: %zu/%zu (%s), best epoch %zu, %u trainer "
                    "thread%s\n",
                    rep.epochs_run, cfg.epochs,
                    train::stop_reason_name(rep.stop_reason), rep.best_epoch,
                    rep.threads_used, rep.threads_used == 1 ? "" : "s");
        if (args.flag("history") && !rep.history.empty()) {
            std::printf("epoch   train%%    eval%%\n");
            for (const auto& e : rep.history)
                std::printf("%5zu  %7.2f  %7.2f\n", e.epoch,
                            100.0 * e.train_accuracy, 100.0 * e.eval_accuracy);
        }
    }

    const std::string out = args.get("model-out", "model.tm");
    m.save_file(out);
    std::printf("model written to %s\n", out.c_str());
    return 0;
}

int cmd_eval(const CliArgs& args, const core::FlowConfig& cfg) {
    const auto m = load_model_arg(args);
    const auto ds = make_dataset(args);
    // A model trained on a different booleanization would otherwise read
    // out of bounds (scalar path) or abort mid-batch; diagnose it up front.
    serve::check_feature_width(m.num_features(), ds.num_features,
                               "dataset '" + ds.name + "'");
    const double frac = parse_fraction_option("train-fraction",
                                              args.get("train-fraction", "0.85"));
    // Same split as 'matador train', so the accuracy columns are directly
    // comparable (and must match bit-for-bit on the model train wrote).
    const auto split = data::train_test_split(ds, frac, 3);

    const infer::BatchEngine engine(m);
    train::WorkerPool pool(
        train::WorkerPool::resolve(unsigned(cfg.train_threads)));
    obs::TimedSpan watch("eval", "cli");
    const double train_acc = engine.accuracy(split.train, &pool);
    const double test_acc = engine.accuracy(split.test, &pool);
    const double secs = watch.finish();
    std::printf("eval: %.2f%% train / %.2f%% test accuracy (batched 64-wide, "
                "%zu+%zu examples, %zu live clauses, %.3f s)\n",
                100.0 * train_acc, 100.0 * test_acc, split.train.size(),
                split.test.size(), engine.live_clauses(), secs);

    if (args.flag("check")) {
        // Scalar reference sweep over the full dataset: every batched
        // prediction must be bit-identical to TrainedModel::predict.
        const auto batched = engine.predict(ds.examples.data(), ds.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ds.size(); ++i)
            mismatches += batched[i] != m.predict(ds.examples[i]);
        std::printf("check: %zu examples, %zu scalar/batched mismatches\n",
                    ds.size(), mismatches);
        if (mismatches != 0) return 1;
    }

    // Serving parity artefacts: the same test split as a golden prediction
    // list and as the request stream that produces it.  Piping the request
    // file through 'matador serve' must yield predictions byte-identical to
    // the --predictions-out file.
    if (!args.get("predictions-out").empty() ||
        !args.get("dump-requests").empty()) {
        const auto preds =
            engine.predict(split.test.examples.data(), split.test.size());
        if (!args.get("predictions-out").empty()) {
            std::string text;
            for (const auto p : preds) text += std::to_string(p) + "\n";
            util::write_file_atomic(args.get("predictions-out"), text);
            std::printf("%zu test-split predictions written to %s\n",
                        preds.size(), args.get("predictions-out").c_str());
        }
        if (!args.get("dump-requests").empty()) {
            std::string text;
            for (std::size_t i = 0; i < split.test.size(); ++i) {
                util::Json req = util::Json::object();
                req.set("id", double(i));
                req.set("x", split.test.examples[i].to_string());
                req.set("label", double(split.test.labels[i]));
                text += req.dump() + "\n";
            }
            util::write_file_atomic(args.get("dump-requests"), text);
            std::printf("%zu serve requests written to %s\n",
                        split.test.size(), args.get("dump-requests").c_str());
        }
    }
    return 0;
}

int cmd_serve(const CliArgs& args, const core::FlowConfig& cfg) {
    serve::ServerOptions options;
    options.cache_dir = cfg.cache_dir;
    options.threads = unsigned(cfg.train_threads);
    options.batch.max_queue_depth =
        parse_count_option("max-queue-depth", args.get("max-queue-depth", "1024"));
    options.status_file = args.get("status-file");
    options.status_interval_s = parse_fraction_option(
        "status-interval", args.get("status-interval", "1"));
    options.max_inflight = std::max<std::size_t>(
        1, parse_count_option("max-inflight", args.get("max-inflight", "256")));
    if (options.batch.max_queue_depth == 0) {
        std::fprintf(stderr, "--max-queue-depth must be at least 1\n");
        usage(1);
    }

    serve::Server server(options);
    // stdout is the protocol channel; all human chatter goes to stderr.
    if (!args.get("model").empty()) {
        const auto servable = server.registry().load_file(args.get("model"));
        server.registry().set_alias(args.get("alias", "default"),
                                    servable->hash_hex);
        std::fprintf(stderr, "matador serve: %s -> %s (%s)\n",
                     args.get("alias", "default").c_str(),
                     servable->hash_hex.c_str(), args.get("model").c_str());
    }
    if (!cfg.cache_dir.empty()) {
        const auto added = server.registry().scan_store(
            [](const std::string& w) {
                std::fprintf(stderr, "matador serve: %s\n", w.c_str());
            });
        std::fprintf(stderr,
                     "matador serve: %zu model(s) from the artifact store\n",
                     added);
    }
    // A one-model registry serves that model as "default" without flags.
    const auto entries = server.registry().list();
    if (args.get("model").empty() && entries.size() == 1)
        server.registry().set_alias("default", entries[0].hash_hex);
    if (entries.empty())
        std::fprintf(stderr,
                     "matador serve: registry empty - load models with "
                     "{\"op\":\"load\",...} requests\n");
    std::fprintf(stderr, "matador serve: ready (%zu model(s))\n",
                 entries.size());
    // The protocol streams are iostream-only, so they may drop C stdio
    // sync and keep their own buffers: a synced std::cin fetches every
    // request byte through a separate locked stdio call.
    std::ios::sync_with_stdio(false);
    return server.run(std::cin, std::cout);
}

int cmd_serve_status(const CliArgs& args) {
    const std::string path = args.get("status-file");
    if (path.empty()) {
        std::fprintf(stderr,
                     "serve-status needs the daemon's --status-file: "
                     "'matador serve-status <status.json>'\n");
        usage(1);
    }
    const auto doc = util::Json::parse(util::read_file(path));
    if (!doc.contains("format") ||
        doc.at("format").as_string() != "matador-serve-status")
        throw std::runtime_error(path + " is not a matador-serve-status file");
    if (args.flag("json")) {
        std::printf("%s\n", doc.dump(2).c_str());
        return 0;
    }
    // The formatter lives in the serve lib so its version back-compat
    // (v1 files have no queue_depth / spans_dropped) is unit-tested.
    std::fputs(serve::format_status_text(doc).c_str(), stdout);
    return 0;
}

int cmd_metrics(const CliArgs& args, const core::FlowConfig& cfg) {
    util::Json doc;
    if (!args.get("metrics-file").empty()) {
        doc = util::Json::parse(util::read_file(args.get("metrics-file")));
    } else if (!cfg.cache_dir.empty()) {
        // Merge every shard's metrics drop from the sweep queue.
        auto shard_docs =
            dist::read_shard_obs_files(cfg.cache_dir, ".metrics.json");
        if (shard_docs.empty()) {
            std::fprintf(stderr,
                         "no metrics under %s/queue/stats - run the sweep "
                         "with --trace-out to export them\n",
                         cfg.cache_dir.c_str());
            return 1;
        }
        std::vector<util::Json> docs;
        for (auto& [owner, d] : shard_docs) docs.push_back(std::move(d));
        doc = obs::merge_metrics(docs);
        // stderr: keep --json / --prometheus output clean for piping.
        std::fprintf(stderr, "%zu shard metrics file(s) merged\n",
                     shard_docs.size());
    } else {
        std::fprintf(stderr,
                     "metrics needs a target: 'matador metrics "
                     "<cache_dir|metrics.json>'\n");
        usage(1);
    }
    if (args.flag("json"))
        std::printf("%s\n", doc.dump(2).c_str());
    else if (args.flag("prometheus"))
        std::fputs(obs::format_metrics_prometheus(doc).c_str(), stdout);
    else
        std::fputs(obs::format_metrics_text(doc).c_str(), stdout);
    return 0;
}

int cmd_generate(const CliArgs& args, core::FlowConfig cfg) {
    const auto m = load_model_arg(args);
    const std::string dir = args.get("rtl-out", "./matador_rtl");
    cfg.rtl_output_dir = dir;

    const core::Pipeline pipeline(cfg);
    const core::CompileContext ctx = pipeline.run_with_model(
        m, nullptr, {core::StageKind::kTrain, core::StageKind::kGenerate});
    if (!ctx.ok() || !ctx.design) {
        std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
        return 1;
    }
    const auto& design = *ctx.design;
    const auto& arch = *ctx.arch;
    std::ofstream(dir + "/ila_stub.vh") << rtl::generate_ila_stub(design);
    // Deploy-side validation artefacts: random stimulus + golden labels.
    {
        util::Xoshiro256ss rng(17);
        std::vector<util::BitVector> samples;
        for (int i = 0; i < 8; ++i) {
            util::BitVector x(m.num_features());
            for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
            samples.push_back(std::move(x));
        }
        std::ofstream(dir + "/matador_tb.v")
            << rtl::generate_testbench(design, m, samples);
        std::ofstream(dir + "/validate_deploy.py")
            << rtl::generate_pynq_driver(design, m, samples);
    }
    std::printf("%zu RTL files written to %s (+ testbench, ILA stub, deploy driver)\n",
                ctx.rtl_files.size(), dir.c_str());
    std::printf("architecture: %zu packets x %zub, latency %zu cycles, II %zu\n",
                arch.plan.num_packets(), arch.options.bus_width,
                arch.latency_cycles(), arch.initiation_interval());
    std::printf("generate stage: %.2f s (%zu mapped LUTs, depth %u)\n",
                ctx.record(core::StageKind::kGenerate).seconds,
                ctx.hcb_mapped_luts, ctx.hcb_max_depth);
    return 0;
}

int cmd_verify(const CliArgs& args, core::FlowConfig cfg) {
    const auto m = load_model_arg(args);
    // The dedicated verify subcommand always runs the full equivalence
    // ladder, even if a loaded --config file carries the fast-sweep skip.
    cfg.skip_rtl_verification = false;
    const core::Pipeline pipeline(cfg);
    const core::CompileContext ctx = pipeline.run_with_model(
        m, nullptr, {core::StageKind::kTrain, core::StageKind::kVerify});
    if (!ctx.verification) {
        std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
        return 1;
    }
    const auto& rep = *ctx.verification;
    std::printf("expressions vs model : %s\n",
                rep.expressions_match_model ? "OK" : "FAIL");
    std::printf("HCB netlists         : %s\n",
                rep.hcb_aigs_match_expressions ? "OK" : "FAIL");
    std::printf("RTL text co-sim      : %s (%zu HCBs)\n",
                rep.rtl_matches_aigs ? "OK" : "FAIL", rep.hcbs_checked);
    std::printf("system streaming sim : %s (latency %zu cycles, II %.1f)\n",
                ctx.system_verified ? "OK" : "FAIL",
                ctx.measured_latency_cycles, ctx.measured_ii);
    if (!rep.first_failure.empty())
        std::printf("first failure: %s\n", rep.first_failure.c_str());
    return ctx.ok() ? 0 : 1;
}

int cmd_prove(const CliArgs& args, const core::FlowConfig& cfg) {
    const auto m = load_model_arg(args);
    const core::Pipeline pipeline(cfg);
    const core::CompileContext ctx = pipeline.run_with_model(
        m, nullptr, {core::StageKind::kTrain, core::StageKind::kGenerate});
    if (!ctx.design) {
        std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
        return 1;
    }
    // Copy the netlists: fault injection must not poison the (possibly
    // cached, possibly shared) generate artifact.
    std::vector<rtl::HcbNetlist> hcbs = ctx.design->hcbs;

    if (!args.get("inject-fault").empty()) {
        std::size_t n =
            parse_count_option("inject-fault", args.get("inject-fault"));
        const std::size_t asked = n;
        bool injected = false;
        for (auto& hcb : hcbs) {
            if (n < hcb.aig.num_pos()) {
                hcb.aig.set_po(n, logic::lit_not(hcb.aig.po(n)));
                injected = true;
                break;
            }
            n -= hcb.aig.num_pos();
        }
        if (!injected)
            throw std::runtime_error("--inject-fault " + std::to_string(asked) +
                                     ": design has no such output");
        std::printf("injected fault: netlist output %zu inverted\n", asked);
    }

    if (!args.get("miter-out").empty()) {
        const auto miter = sat::build_design_miter(hcbs, m);
        logic::write_aiger_file(miter.aig, args.get("miter-out"));
        std::printf("miter written to %s (%zu inputs, %zu ands, %zu outputs)\n",
                    args.get("miter-out").c_str(), miter.aig.num_pis(),
                    miter.aig.num_ands(), miter.aig.num_pos());
    }

    sat::ProveOptions opt;
    opt.induction_k = cfg.induction_k;
    opt.threads = unsigned(cfg.train_threads);
    if (!args.get("output").empty())
        opt.output = parse_count_option("output", args.get("output"));
    if (!args.get("induction").empty())
        opt.induction_k = parse_count_option("induction", args.get("induction"));
    const auto report = sat::prove_design(hcbs, m, opt);

    if (args.flag("json"))
        std::printf("%s\n", sat::prove_report_to_json(report).dump(2).c_str());
    else
        std::fputs(sat::format_prove_report(report).c_str(), stdout);

    if (!args.get("metrics-out").empty()) {
        util::write_file_atomic(
            args.get("metrics-out"),
            obs::MetricsRegistry::global().to_json().dump(2) + "\n");
        std::printf("solver metrics written to %s\n",
                    args.get("metrics-out").c_str());
    }
    return report.equivalent ? 0 : 1;
}

int cmd_aig(const CliArgs& args, const core::FlowConfig& cfg) {
    const std::string action = args.get("action");
    if (action == "export") {
        const std::string out = args.get("out");
        if (out.empty()) {
            std::fprintf(stderr, "aig export needs --out <file.aag|file.aig>\n");
            usage(1);
        }
        const auto m = load_model_arg(args);
        const core::Pipeline pipeline(cfg);
        const core::CompileContext ctx = pipeline.run_with_model(
            m, nullptr, {core::StageKind::kTrain, core::StageKind::kGenerate});
        if (!ctx.design) {
            std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
            return 1;
        }
        const auto n = parse_count_option("hcb", args.get("hcb", "0"));
        if (n >= ctx.design->hcbs.size())
            throw std::runtime_error(
                "--hcb " + std::to_string(n) + ": design has only " +
                std::to_string(ctx.design->hcbs.size()) + " HCB(s)");
        const auto& aig = ctx.design->hcbs[n].aig;
        logic::write_aiger_file(aig, out);
        std::printf("hcb %zu written to %s (%zu inputs, %zu ands, %zu outputs)\n",
                    n, out.c_str(), aig.num_pis(), aig.num_ands(),
                    aig.num_pos());
        return 0;
    }
    if (action == "import") {
        if (args.files.empty()) {
            std::fprintf(stderr, "aig import needs a <file.aag|file.aig>\n");
            usage(1);
        }
        const auto aig = logic::read_aiger_file(args.files[0]);
        std::printf("%s: %zu inputs, %zu ands, %zu outputs\n",
                    args.files[0].c_str(), aig.num_pis(), aig.num_ands(),
                    aig.num_pos());
        if (!args.get("out").empty()) {
            logic::write_aiger_file(aig, args.get("out"));
            std::printf("rewritten to %s\n", args.get("out").c_str());
        }
        return 0;
    }
    std::fprintf(stderr, "unknown aig action: %s (want export|import)\n",
                 action.c_str());
    usage(1);
}

int cmd_lint(const CliArgs& args, const core::FlowConfig& cfg) {
    lint::Severity fail_on = lint::Severity::kError;
    if (!args.get("fail-on").empty()) {
        const auto sev = lint::severity_from_name(args.get("fail-on"));
        if (!sev) {
            std::fprintf(stderr,
                         "bad --fail-on: %s (want info|warning|error)\n",
                         args.get("fail-on").c_str());
            usage(1);
        }
        fail_on = *sev;
    }

    lint::LintReport report;
    if (!args.files.empty()) {
        // Standalone structural Verilog files: parse back into AIGs and run
        // the netlist-level checks.  A file outside the structural subset
        // (or unreadable) is itself a finding, not a crash.
        for (const auto& path : args.files) {
            try {
                const auto parsed = rtl::parse_structural_verilog(
                    util::read_file(path), /*strash=*/false);
                lint::lint_aig(parsed.aig, path + " (" + parsed.name + ")",
                               report.findings, &report.stats.aig);
            } catch (const std::exception& e) {
                report.findings.push_back({lint::check::kParseError,
                                           lint::Severity::kError, path, "",
                                           e.what()});
            }
        }
    } else {
        // Full-design lint: regenerate the netlists from the model (served
        // from the artifact store when cached) and run every check.
        const auto m = load_model_arg(args);
        const core::Pipeline pipeline(cfg);
        const core::CompileContext ctx = pipeline.run_with_model(
            m, nullptr, {core::StageKind::kTrain, core::StageKind::kGenerate});
        if (!ctx.design) {
            std::fputs(core::format_diagnostics(ctx).c_str(), stderr);
            return 1;
        }
        train::WorkerPool pool(
            train::WorkerPool::resolve(unsigned(cfg.train_threads)));
        report = lint::lint_design(*ctx.design, &m, &pool);
    }

    if (args.flag("json"))
        std::printf("%s\n", lint::lint_report_to_json(report).dump(2).c_str());
    else
        std::fputs(lint::format_lint_report(report).c_str(), stdout);
    return report.clean(fail_on) ? 0 : 1;
}

int cmd_simulate(const CliArgs& args, const core::FlowConfig& cfg) {
    const auto m = load_model_arg(args);
    const auto arch = model::derive_architecture(m, cfg.arch);
    sim::AcceleratorSim simulator(m, arch);

    // Random stimulus (a dataset file may not exist for an imported model).
    util::Xoshiro256ss rng(7);
    const auto n = parse_count_option("datapoints", args.get("datapoints", "16"));
    std::vector<util::BitVector> inputs;
    for (std::size_t i = 0; i < n; ++i) {
        util::BitVector x(m.num_features());
        for (std::size_t w = 0; w < x.word_count(); ++w) x.set_word(w, rng());
        inputs.push_back(std::move(x));
    }

    sim::SimConfig sc;
    sc.record_trace = args.flag("trace");
    sc.vcd_path = args.get("vcd");
    const auto r = simulator.run(inputs, sc);

    const auto golden =
        infer::BatchEngine(m).predict(inputs.data(), inputs.size());
    bool ok = r.predictions.size() == inputs.size();
    for (std::size_t i = 0; ok && i < inputs.size(); ++i)
        ok = r.predictions[i] == golden[i];
    std::printf("streamed %zu datapoints: predictions %s golden model\n", n,
                ok ? "match" : "MISMATCH");
    std::printf("latency %zu cycles (formula %zu), II %.1f (formula %zu)\n",
                r.first_latency_cycles, arch.latency_cycles(),
                r.mean_initiation_interval, arch.initiation_interval());
    if (sc.record_trace)
        for (const auto& e : r.trace)
            std::printf("  cycle %3zu | %s\n", e.cycle, e.what.c_str());
    if (!sc.vcd_path.empty()) std::printf("waveforms: %s\n", sc.vcd_path.c_str());
    return ok ? 0 : 1;
}

void write_sweep_json(const CliArgs& args, const core::SweepResult& sr) {
    const std::string path = args.get("out");
    if (path.empty()) return;
    std::ofstream out(path);
    out << core::sweep_result_to_json(sr).dump(2) << "\n";
    out.flush();  // surface close-time failures before claiming success
    if (!out) throw std::runtime_error("cannot write --out file " + path);
    std::printf("sweep results written to %s\n", path.c_str());
}

/// One Table-I-style row per design point, labelled by its axis values,
/// plus the wall-clock line and the per-tier store stats.  Returns the
/// all-points-ok flag.  The table is identical whether the points came
/// from Pipeline::sweep or from a sharded run's merge.
bool print_sweep_result(const core::SweepResult& sr,
                        const std::vector<std::string>& labels) {
    std::vector<std::pair<std::string, std::vector<core::TableRow>>> groups;
    bool all_ok = true;
    for (const auto& p : sr.points) {
        groups.emplace_back(labels[p.index],
                            std::vector<core::TableRow>{
                                core::to_table_row(p.result, "MATADOR")});
        all_ok = all_ok && p.ok;
        if (!p.ok)
            std::printf("[point %zu (%s) FAILED]\n", p.index,
                        labels[p.index].c_str());
    }
    std::cout << core::format_table(groups);
    std::printf("\n%zu design points, %u threads, %.2f s wall\n",
                sr.points.size(), sr.threads_used, sr.wall_seconds);
    sr.store_stats.for_each(
        [](const char* stage, const core::ArtifactStore::TierStats& t) {
            std::printf(
                "%s cache: misses=%zu mem_hits=%zu disk_hits=%zu "
                "(entries: mem=%zu disk=%zu)\n",
                stage, t.misses, t.memory_hits, t.disk_hits, t.memory_entries,
                t.disk_entries);
        });
    return all_ok;
}

void print_shard_lines(const std::vector<dist::ShardReport>& shards) {
    for (const auto& s : shards)
        std::printf("shard %s: %zu points (%zu stolen, %zu failed), %.2f s\n",
                    s.owner.c_str(), s.points_run, s.points_stolen,
                    s.points_failed, s.wall_seconds);
}

int cmd_sweep(const CliArgs& args, const core::FlowConfig& cfg,
              TraceOutput& trace) {
    if (args.sweep_axes.empty()) {
        std::fprintf(stderr,
                     "sweep needs at least one --sweep key=v1,v2,... axis\n");
        usage(1);
    }
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    for (const auto& spec : args.sweep_axes) {
        const auto eq = spec.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
            std::fprintf(stderr, "bad --sweep axis (want key=v1,v2,...): %s\n",
                         spec.c_str());
            usage(1);
        }
        axes.emplace_back(spec.substr(0, eq),
                          util::split(spec.substr(eq + 1), ','));
    }

    const bool sharded = args.flag("shards") || args.flag("shard-id");
    if (sharded && cfg.cache_dir.empty()) {
        std::fprintf(stderr,
                     "sharded sweeps need --cache-dir (the shared queue and "
                     "artifact store live there)\n");
        usage(1);
    }
    if (args.flag("shard-id") && !args.flag("shards")) {
        std::fprintf(stderr, "--shard-id needs --shards <n>\n");
        usage(1);
    }

    const auto ds = make_dataset(args);
    const double frac = parse_fraction_option("train-fraction", args.get("train-fraction", "0.85"));
    const auto split = data::train_test_split(ds, frac, 3);

    const auto grid = core::expand_grid(cfg, axes);
    // Labels follow the same outermost-first expansion order as expand_grid.
    std::vector<std::string> labels{""};
    for (const auto& [key, values] : axes) {
        std::vector<std::string> next;
        for (const auto& prefix : labels)
            for (const auto& value : values)
                next.push_back(prefix.empty() ? key + "=" + value
                                              : prefix + "  " + key + "=" + value);
        labels = std::move(next);
    }

    if (!sharded) {
        core::SweepOptions options;
        options.threads =
            unsigned(parse_count_option("jobs", args.get("jobs", "0")));
        const auto sr = core::Pipeline::sweep(split.train, split.test, grid, options);
        const bool all_ok = print_sweep_result(sr, labels);
        write_sweep_json(args, sr);
        return all_ok ? 0 : 1;
    }

    dist::ShardOptions options;
    // Inside a shard the thread default is 1: process-level parallelism is
    // what --shards is for, and multi-machine shards size themselves.
    options.threads = unsigned(parse_count_option("jobs", args.get("jobs", "1")));
    options.queue.lease_timeout_seconds = parse_fraction_option(
        "lease-timeout", args.get("lease-timeout", "60"));
    if (options.queue.lease_timeout_seconds <= 0.0) {
        // 0 would turn every live lease into a steal target: each point
        // would run once per shard, all overhead, no protection.
        std::fprintf(stderr, "--lease-timeout must be positive\n");
        usage(1);
    }
    options.queue.max_retries =
        parse_count_option("max-retries", args.get("max-retries", "0"));
    // With --trace-out every shard drops its timeline + metrics under
    // queue/stats/ for the coordinator (or sweep-merge) to stitch.
    options.export_obs = trace.active();
    const auto shards =
        unsigned(parse_count_option("shards", args.get("shards", "1")));
    if (shards == 0) {
        std::fprintf(stderr, "--shards must be at least 1\n");
        usage(1);
    }

    if (args.flag("shard-id")) {
        if (args.flag("out")) {
            // A lone shard has no merged result to serialize.
            std::fprintf(stderr,
                         "--out does not apply to a single shard; use "
                         "'matador sweep-merge --cache-dir ... --out ...'\n");
            usage(1);
        }
        // One shard of a (possibly multi-machine) sweep sharing --cache-dir.
        const auto shard_id =
            parse_count_option("shard-id", args.get("shard-id"));
        if (shard_id >= shards) {
            std::fprintf(stderr, "--shard-id must be in [0, --shards)\n");
            usage(1);
        }
        const std::string owner = "s" + std::to_string(shard_id) + "-" +
                                  std::to_string(::getpid());
        const auto report = dist::run_shard(split.train, split.test, grid,
                                            cfg.cache_dir, owner, options);
        std::printf(
            "shard %zu/%u (%s): %zu points (%zu stolen, %zu failed), %.2f s\n",
            shard_id, shards, report.owner.c_str(), report.points_run,
            report.points_stolen, report.points_failed, report.wall_seconds);
        std::printf("merge with: matador sweep-merge --cache-dir %s\n",
                    cfg.cache_dir.c_str());
        return report.points_failed == 0 ? 0 : 1;
    }

    // Coordinator: fresh epoch, fork local shard processes, merge.
    const auto codes = dist::run_local_shards(split.train, split.test, grid,
                                              cfg.cache_dir, shards, options);
    for (std::size_t i = 0; i < codes.size(); ++i)
        if (codes[i] >= 2)
            std::fprintf(stderr, "shard %zu exited with code %d\n", i, codes[i]);
    const auto merged = dist::merge_sweep(cfg.cache_dir);
    if (trace.active()) write_merged_shard_trace(trace, cfg.cache_dir);
    if (!merged.complete()) {
        std::fprintf(stderr, "sweep incomplete: %zu of %zu points missing\n",
                     merged.missing.size(), merged.expected);
        for (const auto& why : merged.missing_reasons)
            std::fprintf(stderr, "  %s\n", why.c_str());
        return 1;
    }
    const bool all_ok = print_sweep_result(merged.result, labels);
    std::printf("%u shards\n", shards);
    print_shard_lines(merged.shards);
    write_sweep_json(args, merged.result);
    return all_ok ? 0 : 1;
}

int cmd_sweep_merge(const CliArgs& args, const core::FlowConfig& cfg,
                    TraceOutput& trace) {
    if (cfg.cache_dir.empty()) {
        std::fprintf(stderr,
                     "sweep-merge needs --cache-dir (or cache_dir in --config)\n");
        usage(1);
    }
    const auto merged = dist::merge_sweep(cfg.cache_dir);
    if (trace.active()) write_merged_shard_trace(trace, cfg.cache_dir);
    if (!merged.complete()) {
        std::fprintf(stderr, "sweep incomplete: %zu of %zu points missing\n",
                     merged.missing.size(), merged.expected);
        for (const auto& why : merged.missing_reasons)
            std::fprintf(stderr, "  %s\n", why.c_str());
        return 1;
    }
    // The merge has no --sweep axes to label rows with; index labels keep
    // the row <-> grid-point mapping explicit.
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < merged.result.points.size(); ++i)
        labels.push_back("point " + std::to_string(i));
    const bool all_ok = print_sweep_result(merged.result, labels);
    print_shard_lines(merged.shards);
    write_sweep_json(args, merged.result);
    return all_ok ? 0 : 1;
}

int cmd_sweep_status(const CliArgs& args, const core::FlowConfig& cfg) {
    if (cfg.cache_dir.empty()) {
        std::fprintf(stderr,
                     "sweep-status needs a cache dir: 'matador sweep-status "
                     "<cache_dir>' (or --cache-dir / cache_dir in --config)\n");
        usage(1);
    }
    const double timeout = parse_fraction_option(
        "lease-timeout", args.get("lease-timeout", "60"));
    if (timeout <= 0.0) {
        std::fprintf(stderr, "--lease-timeout must be positive\n");
        usage(1);
    }
    const auto status = dist::read_sweep_status(cfg.cache_dir, timeout);
    std::fputs(dist::format_sweep_status(status).c_str(), stdout);
    return 0;
}

int cmd_cache(const CliArgs& args, const core::FlowConfig& cfg) {
    const std::string action = args.get("action");
    if (action != "stats" && action != "ls" && action != "clear" &&
        action != "gc") {
        std::fprintf(stderr,
                     "unknown cache action: %s (want stats|ls|clear|gc)\n",
                     action.c_str());
        usage(1);
    }
    if (cfg.cache_dir.empty()) {
        std::fprintf(stderr,
                     "cache %s needs --cache-dir (or cache_dir in --config)\n",
                     action.c_str());
        usage(1);
    }

    if (action == "gc") {
        dist::GcOptions gc;
        if (!args.get("max-age-days").empty())
            gc.max_age_seconds =
                86400.0 *
                parse_fraction_option("max-age-days", args.get("max-age-days"));
        if (!args.get("max-bytes").empty())
            gc.max_total_bytes =
                parse_count_option("max-bytes", args.get("max-bytes"));
        gc.dry_run = args.flag("dry-run");
        const auto report = dist::collect_garbage(cfg.cache_dir, gc);
        const char* verb = gc.dry_run ? "would remove" : "removed";
        if (gc.dry_run)
            for (const auto& path : report.removed)
                std::printf("  %s %s\n", verb, path.c_str());
        std::printf(
            "cache gc: %s %zu manifest(s) (%ju bytes), %zu orphaned init "
            "temp(s), %zu committed lease(s)%s\n",
            verb, report.manifests_removed,
            std::uintmax_t(report.bytes_freed), report.tmp_dirs_removed,
            report.stale_leases_removed,
            report.queue_removed ? ", and the finished sweep queue" : "");
        if (report.results_skipped_live_sweep)
            std::printf(
                "cache gc: results/ untouched - the queue under %s is still "
                "incomplete (live sweep)\n",
                cfg.cache_dir.c_str());
        return 0;
    }

    core::ArtifactStore store(cfg.cache_dir);

    if (action == "clear") {
        const auto bytes = store.clear_disk();
        std::printf("cleared %s (%ju bytes freed)\n", cfg.cache_dir.c_str(),
                    std::uintmax_t(bytes));
        return 0;
    }

    const auto entries = store.list_disk();
    if (action == "ls") {
        if (entries.empty()) {
            std::printf("no artifacts under %s\n", cfg.cache_dir.c_str());
            return 0;
        }
        std::printf("%-10s %-18s %10s %6s\n", "stage", "key", "bytes", "files");
        for (const auto& e : entries)
            std::printf("%-10s %-18s %10ju %6zu\n", e.stage.c_str(),
                        e.key_hex.c_str(), std::uintmax_t(e.bytes), e.files);
        return 0;
    }

    // stats
    std::printf("artifact store: %s\n", cfg.cache_dir.c_str());
    for (const char* stage : core::ArtifactStore::kStages) {
        std::size_t n = 0;
        std::uintmax_t bytes = 0;
        for (const auto& e : entries)
            if (e.stage == stage) {
                n++;
                bytes += e.bytes;
            }
        std::printf("  %-9s %zu entries, %ju bytes\n",
                    (std::string(stage) + ":").c_str(), n, bytes);
    }
    return 0;
}

int cmd_chaos(const CliArgs& args, const core::FlowConfig& cfg) {
    if (cfg.cache_dir.empty()) {
        std::fprintf(stderr,
                     "chaos needs a cache dir: 'matador chaos <cache_dir>' "
                     "(or --cache-dir / cache_dir in --config)\n");
        usage(1);
    }
    // Optional --sweep axes shape the grid exactly as 'matador sweep' does;
    // with none, the chaos pass runs the single configured point.
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    for (const auto& spec : args.sweep_axes) {
        const auto eq = spec.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
            std::fprintf(stderr, "bad --sweep axis (want key=v1,v2,...): %s\n",
                         spec.c_str());
            usage(1);
        }
        axes.emplace_back(spec.substr(0, eq),
                          util::split(spec.substr(eq + 1), ','));
    }

    const auto ds = make_dataset(args);
    const double frac = parse_fraction_option(
        "train-fraction", args.get("train-fraction", "0.85"));
    const auto split = data::train_test_split(ds, frac, 3);
    const auto grid = core::expand_grid(cfg, axes);

    fault::ChaosOptions opts;
    opts.seed = parse_count_option("seed", args.get("seed", "1"));
    opts.shards = unsigned(parse_count_option("shards", args.get("shards", "2")));
    opts.kill_shards = unsigned(
        parse_count_option("kill-shards", args.get("kill-shards", "1")));
    opts.corrupt_artifacts = unsigned(parse_count_option(
        "corrupt-artifacts", args.get("corrupt-artifacts", "1")));
    opts.lease_timeout_seconds = parse_fraction_option(
        "lease-timeout", args.get("lease-timeout", "2"));
    opts.threads_per_shard =
        unsigned(parse_count_option("jobs", args.get("jobs", "1")));
    if (opts.shards == 0) {
        std::fprintf(stderr, "--shards must be at least 1\n");
        usage(1);
    }
    if (opts.kill_shards > opts.shards) {
        std::fprintf(stderr, "--kill-shards cannot exceed --shards\n");
        usage(1);
    }
    if (!args.get("faults").empty())
        opts.plan = fault::FaultPlan::parse(util::read_file(args.get("faults")));

    const fault::ChaosReport r =
        fault::run_chaos(split.train, split.test, grid, cfg.cache_dir, opts);
    if (!r.ran) {
        std::printf("chaos: fork() unavailable on this platform; skipped\n");
        return 0;
    }
    std::printf(
        "chaos: seed %ju, %u shard(s) (%zu killed), %zu corrupted "
        "artifact(s)\n",
        std::uintmax_t(opts.seed), opts.shards, r.shards_killed,
        r.artifacts_corrupted);
    std::printf("  merge: %s, %s\n",
                r.complete ? "complete" : "INCOMPLETE",
                r.identical ? "bit-identical to the clean reference"
                            : "DIFFERS from the clean reference");
    std::printf("  crc: %zu payload(s) repaired, %ju detection(s) counted\n",
                r.crc_repaired, std::uintmax_t(r.crc_detected));
    std::printf(
        "  faults: %ju injected in survivors (%ju transient), %ju fs "
        "retry(ies)\n",
        std::uintmax_t(r.faults_injected), std::uintmax_t(r.transient_fired),
        std::uintmax_t(r.retries));
    const bool ok = r.ok(opts);
    if (ok)
        std::printf("  recovery proven: every fault detected or retried\n");
    else
        std::printf("  FAILED: %s\n",
                    r.detail.empty() ? "(no detail)" : r.detail.c_str());
    return ok ? 0 : 1;
}

int cmd_stages() {
    std::puts("pipeline stages, in order (Fig. 6):");
    for (auto k : core::stage_order()) std::printf("  %s\n", core::stage_name(k));
    std::puts(
        "\n'matador flow --stop-after <stage>' runs a prefix of the pipeline;\n"
        "'train'/'generate'/'verify' drive the corresponding stage ranges.");
    return 0;
}

int cmd_datasets() {
    std::puts(
        "synthetic surrogates (paper evaluation shapes):\n"
        "  mnist-like    784 bits, 10 classes\n"
        "  kmnist-like   784 bits, 10 classes (harder)\n"
        "  fmnist-like   784 bits, 10 classes (denser)\n"
        "  cifar2-like  1024 bits,  2 classes\n"
        "  kws6-like     377 bits,  6 classes (13 bands x 29 frames)\n"
        "  noisy-xor      12 bits,  2 classes\n"
        "  iris-like      16 bits,  3 classes\n"
        "real data:\n"
        "  csv:<path>[:label=<col|last>][:levels=<n>]");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        // MATADOR_FAULT_PLAN (inline JSON or a plan-file path) arms the
        // fault-injection seam for ANY subcommand — the chaos driver's
        // shard children re-arm their own plans after fork.
        fault::FsHooks::instance().arm_from_env();
        core::FlowConfig cfg;
        const CliArgs args = parse_args(argc, argv, cfg);
        // Arms tracing when --trace-out was given; its destructor writes
        // the timeline after the command returns (error exits included).
        TraceOutput trace(args);
        if (args.command == "flow") return cmd_flow(args, cfg);
        if (args.command == "train") return cmd_train(args, cfg);
        if (args.command == "eval") return cmd_eval(args, cfg);
        if (args.command == "generate") return cmd_generate(args, cfg);
        if (args.command == "verify") return cmd_verify(args, cfg);
        if (args.command == "prove") return cmd_prove(args, cfg);
        if (args.command == "aig") return cmd_aig(args, cfg);
        if (args.command == "lint") return cmd_lint(args, cfg);
        if (args.command == "simulate") return cmd_simulate(args, cfg);
        if (args.command == "sweep") return cmd_sweep(args, cfg, trace);
        if (args.command == "sweep-merge")
            return cmd_sweep_merge(args, cfg, trace);
        if (args.command == "sweep-status") return cmd_sweep_status(args, cfg);
        if (args.command == "serve") return cmd_serve(args, cfg);
        if (args.command == "serve-status") return cmd_serve_status(args);
        if (args.command == "metrics") return cmd_metrics(args, cfg);
        if (args.command == "cache") return cmd_cache(args, cfg);
        if (args.command == "chaos") return cmd_chaos(args, cfg);
        if (args.command == "stages") return cmd_stages();
        if (args.command == "datasets") return cmd_datasets();
        std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
        usage(1);
    } catch (const serve::ServeError& e) {
        // Typed serving errors (feature-mismatch, unknown-model, ...) keep
        // their machine-readable tag on the CLI path too.
        std::fprintf(stderr, "matador: [%s] %s\n", e.code_name(), e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "matador: %s\n", e.what());
        return 1;
    }
}
