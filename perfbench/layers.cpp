// Traced, in-process layer breakdown for the MATADOR benchmark.
//
// Replays what `matador flow` and `matador serve` do, one public layer call
// at a time, and records every call as a span from this file (the program
// itself runs with its own tracer off).  The spans go to a Chrome
// trace-event file for ui.perfetto.dev; the per-layer numbers go to stdout
// as one JSON object.  run.py starts this program for `--trace 1` runs and
// checks its model bytes against the `matador flow --model-out` file.
//
// usage: perfbench_layers --dataset <mnist-like|kws6-like> --examples <n>
//          --clauses <n> --epochs <n> --data-seed <n> --threads <n>
//          --model-out <file> --trace-out <file>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "cost/timing_model.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "infer/engine.hpp"
#include "lint/lint.hpp"
#include "logic/lut_mapper.hpp"
#include "model/architecture.hpp"
#include "model/sharing_analysis.hpp"
#include "rtl/generators.hpp"
#include "rtl/hcb_builder.hpp"
#include "rtl/verification.hpp"
#include "sat/prove.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sim/accelerator_sim.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "train/worker_pool.hpp"
#include "util/bitvector.hpp"
#include "util/json.hpp"

namespace {

using namespace matador;
using Clock = std::chrono::steady_clock;

// The serve front end replays this many request lines; the batcher is
// driven open loop at kPacedRate for kPacedSeconds.
constexpr std::size_t kRequests = 20000;
constexpr double kPacedRate = 1000.0;  // req/s
constexpr double kPacedSeconds = 2.0;

double seconds_since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Spans recorded around layer calls, kept in memory and written at exit.
class SpanLog {
public:
    /// Run `f` as one span; returns its wall time in seconds.
    double span(const std::string& name, const std::string& cat,
                const std::function<void()>& f, double count = 0) {
        const auto start = Clock::now();
        f();
        const auto end = Clock::now();
        spans_.push_back({name, cat, start, end, count});
        return std::chrono::duration<double>(end - start).count();
    }

    void write_chrome_trace(const std::string& path) const {
        util::Json events = util::Json::array();
        for (const auto& s : spans_) {
            util::Json e = util::Json::object();
            e.set("name", s.name);
            e.set("cat", s.cat);
            e.set("ph", "X");
            e.set("ts", us(s.start - origin_));
            e.set("dur", us(s.end - s.start));
            e.set("pid", 1.0);
            e.set("tid", 1.0);
            if (s.count > 0) {
                util::Json args = util::Json::object();
                args.set("count", s.count);
                e.set("args", std::move(args));
            }
            events.push_back(std::move(e));
        }
        util::Json doc = util::Json::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", "ms");
        std::ofstream(path) << doc.dump() << "\n";
    }

private:
    struct Span {
        std::string name, cat;
        Clock::time_point start, end;
        double count;
    };
    static double us(Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    }
    const Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

struct Args {
    std::map<std::string, std::string> kv;
    const std::string& get(const std::string& k) const {
        const auto it = kv.find(k);
        if (it == kv.end()) throw std::runtime_error("missing --" + k);
        return it->second;
    }
    std::size_t count(const std::string& k) const { return std::stoul(get(k)); }
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::runtime_error("bad argument: " + key);
        a.kv[key.substr(2)] = argv[i + 1];
    }
    return a;
}

data::Dataset make_dataset(const std::string& name, std::size_t n,
                           std::uint64_t seed) {
    if (name == "mnist-like") return data::make_mnist_like(n, seed);
    if (name == "kws6-like") return data::make_kws6_like(n, seed);
    throw std::runtime_error("unsupported dataset: " + name);
}

/// Same quantity the pipeline's analyze stage feeds the timing model.
std::size_t max_feature_fanout(const model::TrainedModel& m) {
    std::vector<std::size_t> fanout(m.num_features(), 0);
    for (std::size_t c = 0; c < m.num_classes(); ++c)
        for (std::size_t j = 0; j < m.clauses_per_class(); ++j) {
            const auto& cl = m.clause(c, j);
            for (auto f : cl.include_pos.set_bits()) fanout[f]++;
            for (auto f : cl.include_neg.set_bits()) fanout[f]++;
        }
    return fanout.empty() ? 0 : *std::max_element(fanout.begin(), fanout.end());
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = std::size_t(std::ceil(double(v.size()) * p / 100.0));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Mean microseconds per call of `f` over repeated calls lasting ~`budget_s`.
double mean_call_us(const std::function<void()>& f, double budget_s) {
    const auto start = Clock::now();
    std::size_t calls = 0;
    do {
        for (int i = 0; i < 64; ++i) f();
        calls += 64;
    } while (seconds_since(start) < budget_s);
    return seconds_since(start) * 1e6 / double(calls);
}

struct PacedRun {
    std::vector<double> wait_us;  // submit until the future is ready
    std::vector<double> late_ms;  // submit time past its due time
    std::vector<std::uint32_t> predictions;
};

/// Submit the test split to the batcher open loop, one request every
/// 1/kPacedRate seconds for kPacedSeconds, and time each request.
PacedRun drive_batcher(serve::Batcher& batcher,
                       const std::shared_ptr<const serve::ServableModel>& model,
                       const data::Dataset& test) {
    struct InFlight {
        std::future<serve::Reply> future;
        Clock::time_point submitted;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> queue;
    bool done = false;
    PacedRun run;

    std::thread collector([&] {
        for (;;) {
            InFlight f;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return done || !queue.empty(); });
                if (queue.empty()) return;
                f = std::move(queue.front());
                queue.pop_front();
            }
            const serve::Reply r = f.future.get();
            run.wait_us.push_back(std::chrono::duration<double, std::micro>(
                                      Clock::now() - f.submitted).count());
            run.predictions.push_back(r.prediction);
        }
    });

    const auto start = Clock::now();
    const auto n = std::size_t(kPacedRate * kPacedSeconds);
    for (std::size_t i = 0; i < n; ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(double(i) / kPacedRate));
        std::this_thread::sleep_until(due);
        const std::size_t k = i % test.size();
        InFlight f;
        f.submitted = Clock::now();
        run.late_ms.push_back(
            std::chrono::duration<double, std::milli>(f.submitted - due).count());
        f.future = batcher.submit(model, test.examples[k], test.labels[k]);
        {
            std::lock_guard<std::mutex> lock(mu);
            queue.push_back(std::move(f));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
    }
    cv.notify_one();
    batcher.flush();
    collector.join();
    return run;
}

int run(const Args& args) {
    SpanLog log;
    util::Json metrics = util::Json::object();
    util::Json gates = util::Json::object();
    const auto metric = [&](const std::string& name, double v) {
        metrics.set(name, v);
    };

    core::FlowConfig cfg;  // the flow's defaults for everything not passed
    cfg.tm.clauses_per_class = args.count("clauses");
    cfg.epochs = args.count("epochs");
    cfg.train_threads = args.count("threads");
    const unsigned threads = unsigned(cfg.train_threads);

    // -- data ---------------------------------------------------------------
    data::Dataset ds;
    data::Split split;
    metric("data.synth_s", log.span("data.synth", "data", [&] {
        ds = make_dataset(args.get("dataset"), args.count("examples"),
                          args.count("data-seed"));
        split = data::train_test_split(ds, 0.85, 3);
    }));

    // -- train --------------------------------------------------------------
    tm::TsetlinMachine machine(cfg.tm, split.train.num_features,
                               split.train.num_classes);
    train::FitReport fit;
    {
        train::FitOptions opts;
        opts.epochs = cfg.epochs;
        opts.threads = threads;
        train::ParallelTrainer trainer(opts);
        const double s = log.span("train.fit", "train", [&] {
            fit = trainer.fit(machine, split.train, &split.test);
        });
        metric("train.fit_s", s);
        metric("train.examples_per_s",
               double(split.train.size() * fit.epochs_run) / s);
    }
    const model::TrainedModel m = machine.export_model();
    m.save_file(args.get("model-out"));
    {
        tm::TsetlinMachine single(cfg.tm, split.train.num_features,
                                  split.train.num_classes);
        train::FitOptions opts;
        opts.epochs = cfg.epochs;
        opts.threads = 1;
        train::ParallelTrainer trainer(opts);
        metric("train.fit_1t_s", log.span("train.fit_1t", "train", [&] {
            trainer.fit(single, split.train, &split.test);
        }));
        gates.set("thread_invariant_model",
                  single.export_model().content_hash() == m.content_hash());
    }

    // -- infer --------------------------------------------------------------
    std::unique_ptr<infer::BatchEngine> engine;
    log.span("infer.compile", "infer",
             [&] { engine = std::make_unique<infer::BatchEngine>(m); });
    double test_acc = 0.0;
    metric("infer.accuracy_s", log.span("infer.accuracy", "infer", [&] {
        test_acc = engine->accuracy(split.test);
    }));
    gates.set("accuracy_matches_fit", test_acc == fit.eval_accuracy);
    metric("test_accuracy", test_acc);
    {
        const std::size_t stride = machine.literal_words();
        const std::size_t n = std::min<std::size_t>(64, split.test.size());
        std::vector<std::uint64_t> lits(n * stride);
        for (std::size_t i = 0; i < n; ++i)
            machine.build_literals(split.test.examples[i], &lits[i * stride]);
        auto scratch = engine->make_scratch();
        std::vector<std::uint32_t> out(64);
        metric("infer.block64_us", mean_call_us([&] {
            engine->predict_block(lits.data(), stride, n, out.data(), scratch);
        }, 0.2));
        const auto golden = engine->predict(split.test.examples.data(), n);
        gates.set("predict_block_matches",
                  std::equal(golden.begin(), golden.end(), out.begin()));
        metric("infer.block1_us", mean_call_us([&] {
            engine->predict_block(lits.data(), stride, 1, out.data(), scratch);
        }, 0.1));
    }

    // -- analyze + architect ------------------------------------------------
    std::size_t fanout = 0;
    metric("analyze.s", log.span("analyze", "analyze", [&] {
        model::analyze_sparsity(m);
        model::analyze_sharing(
            m, model::PacketPlan(m.num_features(), cfg.arch.bus_width));
        fanout = max_feature_fanout(m);
    }));
    model::ArchParams arch;
    log.span("architect", "architect",
             [&] { arch = model::derive_architecture(m, cfg.arch); });

    // -- generate -----------------------------------------------------------
    std::vector<rtl::HcbNetlist> hcbs;
    metric("generate.hcb_s", log.span("generate.build_hcbs", "generate", [&] {
        hcbs = rtl::build_hcbs(m, arch.plan, cfg.strash);
    }));
    unsigned max_depth = 0;
    double ands = 0;
    metric("generate.lut_map_s", log.span("generate.map_to_luts", "generate", [&] {
        for (const auto& hcb : hcbs) {
            max_depth = std::max(max_depth, logic::map_to_luts(hcb.aig).depth);
            ands += double(hcb.aig.count_reachable_ands());
        }
    }));
    metric("generate.aig_ands", ands);
    rtl::RtlDesign design;
    metric("generate.assemble_s", log.span("generate.assemble_rtl", "generate", [&] {
        design = rtl::assemble_rtl(m, arch, hcbs, cfg.strash);
    }));
    if (cfg.auto_frequency) {
        model::ArchOptions opts = cfg.arch;
        opts.clock_mhz = cost::estimate_timing(max_depth, fanout).recommended_mhz;
        arch = model::derive_architecture(m, opts);
        design.arch = arch;
    }

    // -- verify -------------------------------------------------------------
    lint::LintReport lint_report;
    metric("verify.lint_s", log.span("verify.lint", "verify", [&] {
        lint_report = lint::lint_design(design, &m);
    }));
    gates.set("lint_clean", lint_report.errors() == 0);
    rtl::VerificationReport ladder;
    metric("verify.ladder_s", log.span("verify.ladder", "verify", [&] {
        ladder = rtl::verify_design(design, m, cfg.verify_vectors, 1234);
    }));
    gates.set("ladder_ok", ladder.ok());
    {
        std::vector<util::BitVector> inputs;
        const std::size_t n = std::max<std::size_t>(2, cfg.sim_datapoints);
        for (std::size_t i = 0; i < n; ++i)
            inputs.push_back(split.test.examples[i % split.test.size()]);
        sim::SimResult sr;
        metric("verify.sim_s", log.span("verify.system_sim", "verify", [&] {
            sr = sim::AcceleratorSim(m, arch).run(inputs);
        }));
        const auto golden = engine->predict(inputs.data(), inputs.size());
        gates.set("system_sim_ok", sr.predictions == golden &&
                                       sr.first_latency_cycles == arch.latency_cycles());
        metric("design_latency_cycles", double(arch.latency_cycles()));
    }

    // -- sat ------------------------------------------------------------------
    {
        sat::ProveOptions popt;
        popt.threads = threads;
        popt.induction_k = 0;
        sat::ProveReport outputs_only;
        const double outputs_s = log.span("sat.prove_outputs", "sat", [&] {
            outputs_only = sat::prove_design(design.hcbs, m, popt);
        });
        popt.induction_k = cfg.induction_k;
        sat::ProveReport full;
        const double prove_s = log.span("sat.prove_design", "sat", [&] {
            full = sat::prove_design(design.hcbs, m, popt);
        }, double(cfg.induction_k));
        metric("sat.prove_s", prove_s);
        metric("sat.outputs_s", outputs_s);
        metric("sat.induction_s", prove_s - outputs_s);
        metric("sat.obligations", double(full.outputs_total + full.induction.size()));
        metric("sat.conflicts", double(full.totals.conflicts));
        metric("sat.decisions", double(full.totals.decisions));
        gates.set("prove_all_unsat", full.equivalent && outputs_only.equivalent &&
                                         full.outputs_proved == full.outputs_total);
    }

    // -- registry -------------------------------------------------------------
    serve::ModelRegistry registry;
    std::shared_ptr<const serve::ServableModel> servable;
    metric("registry.load_s", log.span("registry.load_file", "registry", [&] {
        servable = registry.load_file(args.get("model-out"));
    }));

    // -- serve front end --------------------------------------------------------
    std::vector<std::string> lines;
    lines.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        const std::size_t k = i % split.test.size();
        util::Json req = util::Json::object();
        req.set("id", double(i));
        req.set("x", split.test.examples[k].to_string());
        req.set("label", double(split.test.labels[k]));
        lines.push_back(req.dump());
    }
    std::vector<util::BitVector> parsed(kRequests);
    const double parse_s = log.span("serve.parse", "serve", [&] {
        for (std::size_t i = 0; i < kRequests; ++i) {
            const auto req = util::Json::parse(lines[i]);
            parsed[i] = util::BitVector::from_string(req.at("x").as_string());
        }
    }, double(kRequests));
    metric("serve.parse_us", parse_s * 1e6 / double(kRequests));
    const auto golden = engine->predict(parsed.data(), parsed.size());
    std::size_t emitted_bytes = 0;
    const double emit_s = log.span("serve.emit", "serve", [&] {
        for (std::size_t i = 0; i < kRequests; ++i) {
            util::Json r = util::Json::object();
            r.set("ok", true);
            r.set("id", double(i));
            r.set("prediction", double(golden[i]));
            r.set("model", servable->hash_hex);
            r.set("lat_us", 1234.5678);
            emitted_bytes += r.dump().size();
        }
    }, double(kRequests));
    metric("serve.emit_us", emit_s * 1e6 / double(kRequests));
    {
        std::string input;
        for (const auto& l : lines) input += l + "\n";
        std::istringstream in(input);
        std::ostringstream out;
        serve::Server server;
        server.registry().set_alias(
            "default", server.registry().load_file(args.get("model-out"))->hash_hex);
        const double s = log.span("serve.server_run", "serve",
                                  [&] { server.run(in, out); }, double(kRequests));
        metric("serve.inproc_rps", double(kRequests) / s);
        std::istringstream replies(out.str());
        std::string line;
        std::size_t i = 0, good = 0;
        while (std::getline(replies, line)) {
            const auto r = util::Json::parse(line);
            good += i < kRequests && r.at("ok").as_bool() &&
                    std::uint32_t(r.at("prediction").as_double()) == golden[i];
            ++i;
        }
        gates.set("inproc_replies_match", i == kRequests && good == kRequests);
    }

    // -- batcher --------------------------------------------------------------
    {
        train::WorkerPool pool(train::WorkerPool::resolve(0));
        serve::ServeMetrics serve_metrics;
        serve::Batcher batcher(pool, {}, &serve_metrics);
        PacedRun paced;
        log.span("batcher.paced", "batcher",
                 [&] { paced = drive_batcher(batcher, servable, split.test); });
        batcher.stop();
        bool match = !paced.predictions.empty();
        const auto expect = engine->predict(split.test.examples.data(),
                                            split.test.size());
        for (std::size_t i = 0; match && i < paced.predictions.size(); ++i)
            match = paced.predictions[i] == expect[i % expect.size()];
        gates.set("batcher_predictions_match", match);
        metric("batcher.wait_p50_us", percentile(paced.wait_us, 50));
        metric("batcher.wait_p99_us", percentile(paced.wait_us, 99));
        metric("client.late_p99_ms", percentile(paced.late_ms, 99));
        const auto snap = serve_metrics.snapshot();
        metric("batcher.occupancy",
               snap.models.empty() ? 0.0 : snap.models[0].batch_occupancy());
    }

    log.write_chrome_trace(args.get("trace-out"));
    util::Json doc = util::Json::object();
    doc.set("metrics", std::move(metrics));
    doc.set("gates", std::move(gates));
    doc.set("model_hash", servable->hash_hex);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
}
