// Serving-throughput bench: closed-loop load generator against the
// admission-control micro-batcher.
//
// Each client thread submits one request, waits for the reply, and
// immediately submits the next (a closed loop), so the offered load is the
// client count.  Sweeping that count shows the batcher's whole operating
// range: at 1 client every block is a single lane (the latency floor); at
// 64+ clients the dispatcher packs full 64-lane transpose blocks and the
// word-parallel engine's throughput win carries through the serving path.
//
// Two gates make the numbers trustworthy, and the exit code reports both:
//   * every served prediction must be bit-identical to the offline
//     BatchEngine on the same example (the ISSUE's equivalence bar), and
//   * batch occupancy at the highest load level must reach 32/64 lanes -
//     below that, micro-batching is not actually happening at saturation.
//
// Usage: bench_serve_throughput [examples_per_class] [seconds_per_level]
//                               [out.json]
//   defaults: 100 examples/class, 0.3 s/level, no JSON file; a count or
//   duration that is not a positive number is a usage error (exit 2)
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "serve/batcher.hpp"
#include "serve/error.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/parallel_trainer.hpp"
#include "train/worker_pool.hpp"
#include "util/json.hpp"
#include "obs/clock.hpp"

using namespace matador;

namespace {

struct LevelResult {
    unsigned clients = 0;
    std::size_t replies = 0;
    std::size_t mismatches = 0;
    std::size_t shed = 0;
    double seconds = 0.0;
    double requests_per_s = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double occupancy = 0.0;  ///< mean occupied lanes per 64-lane block
    std::size_t batches = 0;
};

/// Run `clients` closed-loop threads against a fresh batcher for roughly
/// `seconds` of wall clock and report what the metrics layer saw.
LevelResult run_level(const std::shared_ptr<const serve::ServableModel>& model,
                      const data::Dataset& ds,
                      const std::vector<std::uint32_t>& golden,
                      unsigned clients, double seconds) {
    serve::ServeMetrics metrics;
    train::WorkerPool pool(1);
    serve::BatcherOptions options;
    options.max_queue_depth = 4096;  // closed loop: <= clients pending
    options.max_batch_delay_ms = 2.0;
    serve::Batcher batcher(pool, options, &metrics);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> replies{0};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> shed{0};
    const std::size_t n = ds.size();

    std::vector<std::thread> threads;
    threads.reserve(clients);
    obs::Timer watch;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            // Stagger starting examples so concurrent lanes differ.
            std::size_t i = (std::size_t(c) * 17) % n;
            while (!stop.load(std::memory_order_relaxed)) {
                try {
                    serve::Reply reply =
                        batcher
                            .submit(model, ds.examples[i], ds.labels[i])
                            .get();
                    if (reply.prediction != golden[i])
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                    replies.fetch_add(1, std::memory_order_relaxed);
                } catch (const serve::ServeError& e) {
                    if (e.code() == serve::ErrorCode::kShuttingDown) break;
                    shed.fetch_add(1, std::memory_order_relaxed);
                    // Honor the server's backoff hint: sleep out the
                    // advertised drain time instead of hammering a full
                    // queue (capped so a level change is never missed).
                    const double hint_ms =
                        std::min(e.retry_after_ms(), 50.0);
                    if (hint_ms > 0.0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double, std::milli>(
                                hint_ms));
                }
                i = (i + 1) % n;
            }
        });
    }
    while (watch.seconds() < seconds)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true);
    for (auto& t : threads) t.join();
    batcher.stop();
    const double elapsed = watch.seconds();

    LevelResult r;
    r.clients = clients;
    r.replies = replies.load();
    r.mismatches = mismatches.load();
    r.shed = shed.load();
    r.seconds = elapsed;
    r.requests_per_s = double(r.replies) / elapsed;
    const serve::ServeMetrics::Snapshot snap = metrics.snapshot();
    for (const serve::ModelMetrics& m : snap.models) {
        if (m.hash_hex != model->hash_hex) continue;
        r.p50_us = m.latency.p50_us;
        r.p99_us = m.latency.p99_us;
        r.occupancy = m.batch_occupancy();
        r.batches = m.batches;
    }
    return r;
}

/// `text` as a positive number, or 0 when it is not one.
double positive_arg(const char* text) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    return end != text && *end == '\0' && v > 0.0 ? v : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const double count = argc > 1 ? positive_arg(argv[1]) : 100.0;
    const double seconds_per_level = argc > 2 ? positive_arg(argv[2]) : 0.3;
    if (argc > 4 || count < 1.0 || count > 1e6 || count != std::floor(count) ||
        seconds_per_level <= 0.0 || seconds_per_level > 3600.0) {
        std::fprintf(stderr,
                     "usage: bench_serve_throughput [examples_per_class] "
                     "[seconds_per_level] [out.json]\n"
                     "  examples_per_class: a whole number in 1..1000000 "
                     "(default 100)\n"
                     "  seconds_per_level: a number in (0, 3600] "
                     "(default 0.3)\n");
        return 2;
    }
    const auto examples_per_class = std::size_t(count);
    const std::string json_path = argc > 3 ? argv[3] : "";

    const data::Dataset ds = data::make_kws6_like(examples_per_class, 15);
    tm::TmConfig cfg;
    cfg.clauses_per_class = 200;
    cfg.threshold = 20;
    cfg.specificity = 2.8;
    cfg.seed = 42;
    tm::TsetlinMachine machine(cfg, ds.num_features, ds.num_classes);
    {
        train::FitOptions opts;
        opts.epochs = 2;
        opts.threads = 2;
        train::ParallelTrainer(opts).fit(machine, ds);
    }

    serve::ModelRegistry registry;
    const std::shared_ptr<const serve::ServableModel> model =
        registry.add(machine.export_model(), "(bench)");

    // Offline golden predictions: the bar every served reply must meet.
    const std::vector<std::uint32_t> golden =
        model->engine.predict(ds.examples.data(), ds.size());

    std::printf("serve throughput: %s (%zu bits, %zu classes, %zu examples), "
                "%zu live clauses\n\n",
                ds.name.c_str(), ds.num_features, ds.num_classes, ds.size(),
                model->engine.live_clauses());
    std::printf("clients   requests/s     p50 us     p99 us  occupancy/64  "
                "batches  shed\n");

    const unsigned levels[] = {1, 4, 16, 64, 128};
    std::vector<LevelResult> results;
    for (unsigned clients : levels) {
        LevelResult r =
            run_level(model, ds, golden, clients, seconds_per_level);
        std::printf("%7u %12.0f %10.0f %10.0f %13.1f %8zu %5zu\n", r.clients,
                    r.requests_per_s, r.p50_us, r.p99_us, r.occupancy,
                    r.batches, r.shed);
        results.push_back(r);
    }

    std::size_t total_mismatches = 0;
    for (const LevelResult& r : results) total_mismatches += r.mismatches;
    const double saturated_occupancy = results.back().occupancy;
    const bool equivalent = total_mismatches == 0;
    const bool saturates = saturated_occupancy >= 32.0;
    std::printf("\nequivalence: %s\n",
                equivalent ? "every served prediction bit-identical to the "
                             "offline engine"
                           : "PREDICTION MISMATCH (bug)");
    std::printf("saturation: %.1f/64 lanes at %u clients (%s the 32-lane "
                "bar)\n",
                saturated_occupancy, results.back().clients,
                saturates ? "clears" : "BELOW");

    if (!json_path.empty()) {
        util::Json j = util::Json::object();
        j.set("dataset", ds.name);
        j.set("examples", double(ds.size()));
        j.set("features", double(ds.num_features));
        j.set("classes", double(ds.num_classes));
        j.set("clauses_per_class", double(cfg.clauses_per_class));
        j.set("live_clauses", double(model->engine.live_clauses()));
        j.set("model_hash", model->hash_hex);
        j.set("max_batch_delay_ms", 2.0);
        util::Json levels_json = util::Json::array();
        for (const LevelResult& r : results) {
            util::Json level = util::Json::object();
            level.set("clients", double(r.clients));
            level.set("requests_per_s", r.requests_per_s);
            level.set("p50_us", r.p50_us);
            level.set("p99_us", r.p99_us);
            level.set("batch_occupancy", r.occupancy);
            level.set("batches", double(r.batches));
            level.set("shed", double(r.shed));
            level.set("replies", double(r.replies));
            levels_json.push_back(std::move(level));
        }
        j.set("levels", std::move(levels_json));
        j.set("saturated_occupancy", saturated_occupancy);
        j.set("equivalent", equivalent);
        j.set("saturates_32_of_64", saturates);
        std::ofstream out(json_path);
        out << j.dump(2) << "\n";
        std::printf("results written to %s\n", json_path.c_str());
    }
    return equivalent && saturates ? 0 : 1;
}
