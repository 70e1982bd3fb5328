#include "dist/shard_runner.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fault/fault.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fsio.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define MATADOR_HAS_FORK 1
#endif

namespace fs = std::filesystem;

namespace matador::dist {

namespace {

using util::Json;

/// Wraps a point as the on-disk manifest document: the point itself plus
/// the provenance the merge step validates (grid hash, producing shard).
Json point_manifest_to_json(const core::SweepPoint& p, std::uint64_t grid_hash,
                            const std::string& owner) {
    Json j = core::sweep_point_to_json(p);
    j.set("grid_hash", core::key_hex(grid_hash));
    j.set("shard", owner);
    return j;
}

}  // namespace

util::Json shard_report_to_json(const ShardReport& r) {
    Json j = Json::object();
    j.set("format", "matador-shard-report");
    j.set("version", Json(double(core::kSweepJsonVersion)));
    j.set("owner", r.owner);
    j.set("points_run", Json(double(r.points_run)));
    j.set("points_stolen", Json(double(r.points_stolen)));
    j.set("points_failed", Json(double(r.points_failed)));
    j.set("threads_used", Json(double(r.threads_used)));
    j.set("wall_seconds", Json(r.wall_seconds));
    j.set("store_stats", core::store_stats_to_json(r.store_stats));
    j.set("in_progress", Json(r.in_progress));
    return j;
}

ShardReport shard_report_from_json(const util::Json& j) {
    if (j.at("format").as_string() != "matador-shard-report")
        throw std::runtime_error("shard report: wrong document format");
    ShardReport r;
    r.owner = j.at("owner").as_string();
    r.points_run = j.at("points_run").as_count();
    r.points_stolen = j.at("points_stolen").as_count();
    r.points_failed = j.at("points_failed").as_count();
    r.threads_used = unsigned(j.at("threads_used").as_count(
        std::numeric_limits<std::uint32_t>::max()));
    r.wall_seconds = j.at("wall_seconds").as_double();
    r.store_stats = core::store_stats_from_json(j.at("store_stats"));
    if (j.contains("in_progress")) r.in_progress = j.at("in_progress").as_bool();
    return r;
}

ShardReport run_shard(const data::Dataset& train, const data::Dataset& test,
                      const std::vector<core::FlowConfig>& grid,
                      const std::string& cache_dir, const std::string& owner,
                      const ShardOptions& options) {
    if (cache_dir.empty())
        throw std::invalid_argument("run_shard: cache_dir must be set");
    if (core::stage_index(options.range.from) >
        core::stage_index(options.range.to))
        throw std::invalid_argument("run_shard: range.from is after range.to");

    auto& recorder = obs::TraceRecorder::instance();
    if (options.export_obs) {
        // A forked shard inherits the parent's recorded events and metric
        // values; start this process's timeline clean.  (Only call with the
        // shard single-threaded, i.e. here, before workers start.)
        recorder.reset();
        obs::MetricsRegistry::global().reset();
        recorder.set_process_name(owner);
        recorder.enable();
    }

    obs::Timer watch;
    // Background heartbeat interval; also feeds the lease-timeout floor
    // below, so it is resolved before the queue opens.
    double heartbeat = options.heartbeat_seconds;
    if (heartbeat <= 0.0)
        heartbeat = std::max(0.05, options.queue.lease_timeout_seconds / 4.0);
    // Floor the effective lease timeout at 2× the heartbeat interval: one
    // missed beat plus clock skew/granularity must never make a LIVING
    // shard's lease stealable (see work_queue.hpp's clock assumptions).
    WorkQueueOptions queue_options = options.queue;
    queue_options.lease_timeout_seconds =
        std::max(queue_options.lease_timeout_seconds, 2.0 * heartbeat);

    const GridManifest manifest = GridManifest::from_grid(grid, train, test);
    WorkQueue queue(cache_dir, manifest, owner, queue_options);
    const auto store = std::make_shared<core::ArtifactStore>(cache_dir);

    unsigned threads = options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads =
        unsigned(std::min<std::size_t>(threads, std::max<std::size_t>(1, grid.size())));

    std::atomic<std::size_t> run_count{0}, failed_count{0};
    const auto make_report = [&](bool in_progress) {
        ShardReport r;
        r.owner = queue.owner();
        r.points_run = run_count.load();
        r.points_stolen = queue.stolen_count();
        r.points_failed = failed_count.load();
        r.threads_used = threads;
        r.wall_seconds = watch.seconds();
        r.store_stats = store->stats();
        r.in_progress = in_progress;
        return r;
    };

    // Background heartbeat: keep every held lease visibly alive while its
    // point computes (a single point can run far longer than the timeout),
    // and publish an in-progress stats snapshot so `matador sweep-status`
    // on any machine sees live per-shard progress.
    std::mutex stop_mu;
    std::condition_variable stop_cv;
    bool stop = false;
    std::thread heartbeat_thread([&] {
        obs::set_thread_name("heartbeat");
        std::unique_lock<std::mutex> lock(stop_mu);
        while (!stop_cv.wait_for(lock,
                                 std::chrono::duration<double>(heartbeat),
                                 [&] { return stop; })) {
            queue.heartbeat();
            TRACE_INSTANT("heartbeat", "shard");
            try {
                queue.write_owner_stats(
                    shard_report_to_json(make_report(/*in_progress=*/true)));
            } catch (const std::exception&) {
                // Progress snapshots are best-effort; the final report at
                // the end of run_shard is the authoritative write.
            }
        }
    });
    // First fatal worker error (manifest write, queue I/O).  Pipeline
    // errors are NOT fatal - run_sweep_point folds them into the point's
    // diagnostics; this catches the infrastructure failing around it.  The
    // failed point's lease is left to expire so another shard re-runs it.
    std::mutex error_mu;
    std::string fatal_error;
    std::atomic<bool> abort_workers{false};
    const auto worker = [&] {
        while (!abort_workers.load()) {
            try {
                const std::size_t stolen_before = queue.stolen_count();
                const auto index = queue.claim();
                if (!index) {
                    if (queue.drained()) return;
                    // With stealing disabled this shard can never touch the
                    // outstanding leases; draining todo/ is all it can do.
                    if (!options.queue.steal) return;
                    // Other shards hold live leases; wait for them to finish
                    // or for a dead shard's lease to expire.
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(options.poll_seconds));
                    continue;
                }
                if (recorder.enabled()) {
                    util::Json claim_args = util::Json::object();
                    claim_args.set("point", double(*index));
                    claim_args.set("stolen",
                                   queue.stolen_count() > stolen_before);
                    recorder.instant("claim", "shard", std::move(claim_args));
                }
                const core::SweepPoint point = core::run_sweep_point(
                    *index, grid[*index], train, test, options.range, store);
                util::write_file_atomic(
                    point_manifest_path(cache_dir, *index),
                    point_manifest_to_json(point, manifest.grid_hash,
                                           queue.owner())
                            .dump(2) +
                        "\n");
                // Death here leaves a published manifest but no done
                // marker: the lease expires, a thief re-runs the point
                // (cache-hot), and its atomic rewrite is bit-identical.
                fault::FsHooks::instance().crash_point(
                    "shard.result.pre-complete");
                queue.complete(*index);
                run_count.fetch_add(1);
                if (!point.ok) failed_count.fetch_add(1);
                auto& registry = obs::MetricsRegistry::global();
                registry.counter("shard_points_run").add();
                if (!point.ok) registry.counter("shard_points_failed").add();
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (fatal_error.empty()) fatal_error = e.what();
                abort_workers.store(true);
                return;
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
        for (auto& th : pool) th.join();
    }

    {
        std::lock_guard<std::mutex> lock(stop_mu);
        stop = true;
    }
    stop_cv.notify_all();
    heartbeat_thread.join();

    if (!fatal_error.empty())
        throw std::runtime_error("run_shard: " + fatal_error);

    const ShardReport report = make_report(/*in_progress=*/false);
    queue.write_owner_stats(shard_report_to_json(report));

    if (options.export_obs) {
        auto& registry = obs::MetricsRegistry::global();
        registry.counter("shard_points_stolen").add(report.points_stolen);
        registry.gauge("shard_wall_seconds").set(report.wall_seconds);
        queue.write_owner_file(".metrics.json",
                               registry.to_json().dump(1) + "\n");
        queue.write_owner_file(".trace.json", recorder.to_json().dump(1) + "\n");
    }
    return report;
}

std::vector<int> run_local_shards(const data::Dataset& train,
                                  const data::Dataset& test,
                                  const std::vector<core::FlowConfig>& grid,
                                  const std::string& cache_dir,
                                  unsigned num_shards,
                                  const ShardOptions& options) {
#ifndef MATADOR_HAS_FORK
    (void)train; (void)test; (void)grid; (void)cache_dir; (void)num_shards;
    (void)options;
    throw std::runtime_error(
        "run_local_shards: local shard processes need POSIX fork(); on this "
        "platform start shards manually with 'matador sweep --shard-id'");
#else
    if (num_shards == 0)
        throw std::invalid_argument("run_local_shards: need at least one shard");
    // Fresh epoch: drop the previous queue and its stats, plus stale point
    // manifests (a different grid could alias old indices).
    WorkQueue::reset(cache_dir);
    fs::remove_all(results_dir(cache_dir));
    // Initialize the queue in the parent so every child joins the same
    // epoch deterministically.
    const GridManifest manifest = GridManifest::from_grid(grid, train, test);
    WorkQueue(cache_dir, manifest, "coordinator", options.queue);

    // Children inherit the parent's stdio buffers and flush them on exit;
    // drain them here so piped output is not duplicated per shard.
    std::fflush(nullptr);

    std::vector<pid_t> children;
    children.reserve(num_shards);
    for (unsigned i = 0; i < num_shards; ++i) {
        const pid_t pid = fork();
        if (pid < 0) {
            for (const pid_t child : children) waitpid(child, nullptr, 0);
            throw std::runtime_error("run_local_shards: fork failed");
        }
        if (pid == 0) {
            // Child: run the shard and leave without unwinding the parent's
            // state (atexit handlers, static destructors).
            int code = 0;
            try {
                const std::string owner =
                    "s" + std::to_string(i) + "-" + std::to_string(getpid());
                const ShardReport report =
                    run_shard(train, test, grid, cache_dir, owner, options);
                code = report.points_failed == 0 ? 0 : 1;
            } catch (const std::exception& e) {
                std::fprintf(stderr, "shard %u: %s\n", i, e.what());
                code = 2;
            }
            std::fflush(nullptr);
            _exit(code);
        }
        children.push_back(pid);
    }

    std::vector<int> codes;
    codes.reserve(num_shards);
    for (const pid_t child : children) {
        int status = 0;
        waitpid(child, &status, 0);
        codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : 128);
    }
    return codes;
#endif
}

}  // namespace matador::dist
