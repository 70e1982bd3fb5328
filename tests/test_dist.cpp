// Tests for the distributed sweep subsystem: the filesystem work-stealing
// queue (atomic claims, lease expiry / steal, crash cleanup), the shard
// runner, the sweep JSON round-trips, and the acceptance property - a grid
// swept through shards sharing one cache_dir, then merged, is point-for-
// point identical to a single-process Pipeline::sweep over the same grid,
// even when a shard dies mid-sweep.
#include "dist/shard_runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "dist/gc.hpp"
#include "dist/sweep_merge.hpp"
#include "dist/sweep_status.hpp"
#include "dist/work_queue.hpp"
#include "util/fsio.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador;
using core::FlowConfig;
using dist::GridManifest;
using dist::WorkQueue;
using dist::WorkQueueOptions;

FlowConfig small_config() {
    FlowConfig cfg;
    cfg.tm.clauses_per_class = 8;
    cfg.tm.threshold = 8;
    cfg.tm.seed = 21;
    cfg.epochs = 2;
    cfg.arch.bus_width = 8;
    cfg.verify_vectors = 4;
    cfg.sim_datapoints = 4;
    cfg.skip_rtl_verification = true;
    return cfg;
}

data::Split small_split() {
    const auto ds = data::make_noisy_xor(400, 10, 0.03, 3);
    return data::train_test_split(ds, 0.8, 5);
}

/// bus_width x clock grid: two distinct backend keys, one frontend key,
/// and clock-only variants that exercise the generate-stage dedupe.
std::vector<FlowConfig> small_grid() {
    return core::expand_grid(
        small_config(), {{"bus_width", {"8", "16"}}, {"clock_mhz", {"50", "60"}}});
}

/// A unique scratch cache_dir per test.
std::string fresh_cache_dir(const std::string& tag) {
    const fs::path dir = fs::temp_directory_path() /
                         ("matador_dist_" + tag + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/// Exact FlowResult fingerprint: the serialized JSON keeps every double's
/// bits, so equal strings mean bit-identical results.
std::string result_text(const core::FlowResult& r) {
    return core::flow_result_to_json(r).dump();
}

void age_lease(const std::string& path, double seconds) {
    ASSERT_TRUE(fs::exists(path)) << path;
    fs::last_write_time(
        path, fs::file_time_type::clock::now() -
                  std::chrono::duration_cast<fs::file_time_type::duration>(
                      std::chrono::duration<double>(seconds)));
}

TEST(GridManifest, RoundTripsThroughJson) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto m = GridManifest::from_grid(grid, split.train, split.test);
    EXPECT_EQ(m.size(), 4u);
    EXPECT_EQ(m.grid_hash, core::grid_content_hash(grid));

    const auto back = GridManifest::from_json(
        util::Json::parse(m.to_json().dump(2)));
    EXPECT_EQ(back.grid_hash, m.grid_hash);
    EXPECT_EQ(back.train_fingerprint, m.train_fingerprint);
    EXPECT_EQ(back.test_fingerprint, m.test_fingerprint);
    EXPECT_EQ(back.config_texts, m.config_texts);

    const auto regrid = back.to_grid();
    ASSERT_EQ(regrid.size(), grid.size());
    EXPECT_EQ(core::grid_content_hash(regrid), m.grid_hash);

    // A negative version is refused, not cast.
    util::Json bad = m.to_json();
    bad.set("version", util::Json(-1.0));
    EXPECT_THROW(GridManifest::from_json(bad), std::runtime_error);
}

TEST(WorkQueue, RejectsAForeignGridInTheSameDirectory) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("foreign_grid");
    const auto grid = small_grid();
    const auto m = GridManifest::from_grid(grid, split.train, split.test);
    WorkQueue a(dir, m, "a");

    // Same grid: a second shard joins fine.
    EXPECT_NO_THROW(WorkQueue(dir, m, "b"));

    // Different grid: refused with a pointer to a fresh epoch.
    auto other = core::expand_grid(small_config(), {{"bus_width", {"32"}}});
    const auto m2 = GridManifest::from_grid(other, split.train, split.test);
    EXPECT_THROW(WorkQueue(dir, m2, "c"), std::runtime_error);

    // Same grid, different data: also refused.
    const auto other_ds = data::make_noisy_xor(400, 10, 0.03, 99);
    const auto other_split = data::train_test_split(other_ds, 0.8, 5);
    const auto m3 =
        GridManifest::from_grid(grid, other_split.train, other_split.test);
    EXPECT_THROW(WorkQueue(dir, m3, "d"), std::runtime_error);
    fs::remove_all(dir);
}

TEST(WorkQueue, ClaimsEveryIndexOnceLowestFirstThenDrains) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("claim_all");
    const auto m = GridManifest::from_grid(small_grid(), split.train, split.test);
    WorkQueue q(dir, m, "solo");

    for (std::size_t i = 0; i < m.size(); ++i) {
        const auto idx = q.claim();
        ASSERT_TRUE(idx.has_value());
        EXPECT_EQ(*idx, i);  // lowest unclaimed index first
        EXPECT_FALSE(q.drained());
        q.complete(*idx);
    }
    EXPECT_FALSE(q.claim().has_value());
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.done_count(), m.size());
    EXPECT_EQ(q.stolen_count(), 0u);
    fs::remove_all(dir);
}

TEST(WorkQueue, TwoShardsNeverClaimTheSameIndex) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("two_shards");
    const auto m = GridManifest::from_grid(small_grid(), split.train, split.test);
    WorkQueue a(dir, m, "a"), b(dir, m, "b");

    std::set<std::size_t> seen;
    for (std::size_t round = 0; round < m.size(); ++round) {
        WorkQueue& q = round % 2 ? b : a;
        const auto idx = q.claim();
        ASSERT_TRUE(idx.has_value());
        EXPECT_TRUE(seen.insert(*idx).second) << "index claimed twice: " << *idx;
    }
    // Everything is claimed (held by live leases): nothing left to take,
    // for either handle.
    EXPECT_FALSE(a.claim().has_value());
    EXPECT_FALSE(b.claim().has_value());
    EXPECT_EQ(seen.size(), m.size());
    fs::remove_all(dir);
}

TEST(WorkQueue, ExpiredLeaseIsStolenFreshOneIsNot) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("steal");
    const auto m = GridManifest::from_grid(small_grid(), split.train, split.test);
    WorkQueue dead(dir, m, "dead"), live(dir, m, "live");

    const auto victim = dead.claim();
    ASSERT_TRUE(victim.has_value());

    // Drain the todo pool so the thief can only look at leases.
    std::vector<std::size_t> rest;
    while (const auto idx = live.claim()) rest.push_back(*idx);
    EXPECT_EQ(rest.size(), m.size() - 1);

    // The dead shard's lease is fresh: not stealable yet.
    EXPECT_FALSE(live.claim().has_value());
    EXPECT_EQ(live.stolen_count(), 0u);

    // Once expired it is stolen - exactly once.
    age_lease(dead.lease_path(*victim), 1e4);
    const auto stolen = live.claim();
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(*stolen, *victim);
    EXPECT_EQ(live.stolen_count(), 1u);
    EXPECT_FALSE(live.claim().has_value());

    // The original owner's complete() of a stolen point stays harmless.
    for (const auto idx : rest) live.complete(idx);
    live.complete(*stolen);
    EXPECT_TRUE(live.drained());
    fs::remove_all(dir);
}

TEST(WorkQueue, StaleLeaseOfACompletedPointIsCleanedUpNotRerun) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("stale_done");
    const auto m = GridManifest::from_grid(small_grid(), split.train, split.test);
    WorkQueue crashed(dir, m, "crashed"), live(dir, m, "live");

    // Simulate a shard that wrote the done marker but died before removing
    // its lease: the marker exists, the lease lingers and then expires.
    const auto idx = crashed.claim();
    ASSERT_TRUE(idx.has_value());
    std::ofstream(fs::path(crashed.queue_dir()) / "done" / "00000000.done")
        << "crashed\n";
    age_lease(crashed.lease_path(*idx), 1e4);

    std::set<std::size_t> claimed;
    while (const auto i = live.claim()) claimed.insert(*i);
    EXPECT_EQ(claimed.count(*idx), 0u) << "completed point was re-claimed";
    EXPECT_EQ(claimed.size(), m.size() - 1);
    EXPECT_EQ(live.stolen_count(), 0u);
    // The stale lease was garbage-collected during the scan.
    EXPECT_FALSE(fs::exists(crashed.lease_path(*idx)));
    fs::remove_all(dir);
}

TEST(SweepJson, PointAndResultRoundTripExactly) {
    const auto split = small_split();
    const auto grid = core::expand_grid(small_config(), {{"bus_width", {"8"}}});
    core::SweepOptions options;
    options.threads = 1;
    const auto sr = core::sweep(split.train, split.test, grid, options);
    ASSERT_EQ(sr.points.size(), 1u);
    ASSERT_TRUE(sr.points[0].ok);

    // Value -> text -> value -> text must be a fixed point.
    const auto text = core::sweep_result_to_json(sr).dump(2);
    const auto back = core::sweep_result_from_json(util::Json::parse(text));
    EXPECT_EQ(core::sweep_result_to_json(back).dump(2), text);

    // The round-tripped point carries bit-identical results and metadata.
    const auto& a = sr.points[0];
    const auto& b = back.points[0];
    EXPECT_EQ(b.index, a.index);
    EXPECT_EQ(b.ok, a.ok);
    EXPECT_EQ(result_text(b.result), result_text(a.result));
    EXPECT_EQ(core::flow_config_to_text(b.cfg), core::flow_config_to_text(a.cfg));
    EXPECT_EQ(b.result.trained_model.content_hash(),
              a.result.trained_model.content_hash());
    EXPECT_EQ(b.diagnostics.size(), a.diagnostics.size());
    for (std::size_t s = 0; s < core::kNumStages; ++s) {
        EXPECT_EQ(b.stages[s].status, a.stages[s].status);
        EXPECT_EQ(b.stages[s].seconds, a.stages[s].seconds);
        EXPECT_EQ(b.stages[s].tier, a.stages[s].tier);
    }

    // Future versions and negative counts are refused, not misparsed.
    auto doc = core::sweep_result_to_json(sr);
    doc.set("version", util::Json(99.0));
    EXPECT_THROW(core::sweep_result_from_json(doc), std::runtime_error);
    doc = core::sweep_result_to_json(sr);
    doc.set("threads_used", util::Json(-1.0));
    EXPECT_THROW(core::sweep_result_from_json(doc), std::runtime_error);
}

TEST(SweepJson, FailedPointsSerializeToo) {
    const auto split = small_split();
    auto bad = small_config();
    bad.device = "not-a-device";
    core::SweepOptions options;
    options.threads = 1;
    const auto sr = core::sweep(split.train, split.test, {bad}, options);
    ASSERT_EQ(sr.points.size(), 1u);
    EXPECT_FALSE(sr.points[0].ok);

    const auto back = core::sweep_point_from_json(
        util::Json::parse(core::sweep_point_to_json(sr.points[0]).dump()));
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(result_text(back.result), result_text(sr.points[0].result));
    EXPECT_EQ(back.diagnostics.size(), sr.points[0].diagnostics.size());
}

TEST(ShardRunner, SingleShardDrainsQueueAndMergeMatchesInProcessSweep) {
    const auto split = small_split();
    // With the SAT rung on, so that every store stage has counters to merge.
    auto grid = small_grid();
    for (auto& cfg : grid) cfg.verify_sat = true;
    const auto dir = fresh_cache_dir("merge_equiv");

    // Reference: plain in-process sweep with a private memory-only store.
    core::SweepOptions ref_options;
    ref_options.threads = 2;
    ref_options.store = std::make_shared<core::ArtifactStore>("");
    const auto ref = core::sweep(split.train, split.test, grid, ref_options);

    dist::ShardOptions options;
    options.poll_seconds = 0.01;
    const auto report =
        dist::run_shard(split.train, split.test, grid, dir, "s0", options);
    EXPECT_EQ(report.points_run, grid.size());
    EXPECT_EQ(report.points_failed, 0u);
    EXPECT_EQ(report.points_stolen, 0u);
    // One frontend key; two backend keys (bus_width variants); the two
    // clock-only variants dedupe through the generate cache.
    EXPECT_EQ(report.store_stats.train.misses, 1u);
    EXPECT_EQ(report.store_stats.generate.misses, 2u);
    EXPECT_EQ(report.store_stats.lint.misses, 2u);
    EXPECT_EQ(report.store_stats.proof.misses, 2u);
    const auto reread = dist::shard_report_from_json(
        util::Json::parse(dist::shard_report_to_json(report).dump()));
    EXPECT_EQ(reread.store_stats.proof.misses, 2u);
    EXPECT_EQ(reread.store_stats.proof.disk_entries, 2u);

    // A late shard joining a drained queue finds nothing and reports so.
    const auto late =
        dist::run_shard(split.train, split.test, grid, dir, "s1", options);
    EXPECT_EQ(late.points_run, 0u);
    EXPECT_EQ(late.store_stats.train.misses, 0u);
    EXPECT_EQ(late.store_stats.proof.misses, 0u);

    const auto merged = dist::merge_sweep(dir);
    ASSERT_TRUE(merged.complete());
    EXPECT_EQ(merged.expected, grid.size());
    ASSERT_EQ(merged.result.points.size(), ref.points.size());
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
        EXPECT_EQ(merged.result.points[i].index, i);
        EXPECT_EQ(merged.result.points[i].ok, ref.points[i].ok);
        EXPECT_EQ(result_text(merged.result.points[i].result),
                  result_text(ref.points[i].result))
            << "point " << i;
    }
    // Merged store stats: both shard reports summed...
    EXPECT_EQ(merged.shards.size(), 2u);
    EXPECT_EQ(merged.result.store_stats.train.misses, 1u);
    EXPECT_EQ(merged.result.store_stats.generate.misses, 2u);
    EXPECT_EQ(merged.result.store_stats.lint.misses, 2u);
    EXPECT_EQ(merged.result.store_stats.proof.misses, 2u);
    // ...and disk entry counts re-scanned from the store itself.
    EXPECT_EQ(merged.result.store_stats.train.disk_entries, 1u);
    EXPECT_EQ(merged.result.store_stats.generate.disk_entries, 2u);
    EXPECT_EQ(merged.result.store_stats.lint.disk_entries, 2u);
    EXPECT_EQ(merged.result.store_stats.proof.disk_entries, 2u);
    fs::remove_all(dir);
}

// The crash-recovery acceptance test: a shard claims points and dies (its
// leases are artificially aged); a second shard steals and completes them,
// and the merged result is still complete, in grid order, and identical to
// the single-process sweep.
TEST(ShardRunner, CrashedShardsPointsAreStolenCompletedAndMergedInOrder) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("crash_recovery");

    core::SweepOptions ref_options;
    ref_options.threads = 1;
    ref_options.store = std::make_shared<core::ArtifactStore>("");
    const auto ref = core::sweep(split.train, split.test, grid, ref_options);

    // "Crash" a shard mid-sweep: it claims two points, writes no results,
    // and never heartbeats again.
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);
    WorkQueue dead(dir, manifest, "dead-shard");
    const auto first = dead.claim();
    const auto second = dead.claim();
    ASSERT_TRUE(first && second);
    age_lease(dead.lease_path(*first), 1e4);
    age_lease(dead.lease_path(*second), 1e4);

    dist::ShardOptions options;
    options.poll_seconds = 0.01;
    const auto report = dist::run_shard(split.train, split.test, grid, dir,
                                        "survivor", options);
    EXPECT_EQ(report.points_run, grid.size()) << "stolen points not re-run";
    EXPECT_EQ(report.points_stolen, 2u);
    EXPECT_EQ(report.points_failed, 0u);

    const auto merged = dist::merge_sweep(dir);
    ASSERT_TRUE(merged.complete()) << "merged sweep lost points";
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
        EXPECT_EQ(merged.result.points[i].index, i);
        EXPECT_EQ(merged.result.points[i].ok, ref.points[i].ok);
        EXPECT_EQ(result_text(merged.result.points[i].result),
                  result_text(ref.points[i].result))
            << "point " << i;
    }
    fs::remove_all(dir);
}

TEST(ShardRunner, MultiThreadedShardNeverStealsItsOwnFreshClaims) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("self_steal");

    // Make every todo entry ancient: rename() preserves mtime, so without
    // the owner check a sibling worker thread would see a just-claimed
    // lease as expired and "steal" it (rename onto the identical path
    // succeeds), running the same point twice in one shard.
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);
    { WorkQueue init(dir, manifest, "init"); }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "%08zu.task", i);
        age_lease((fs::path(dir) / "queue" / "todo" / name).string(), 1e4);
    }

    dist::ShardOptions options;
    options.threads = 4;
    options.poll_seconds = 0.01;
    const auto report =
        dist::run_shard(split.train, split.test, grid, dir, "mt", options);
    EXPECT_EQ(report.points_run, grid.size()) << "a point ran twice (or not)";
    EXPECT_EQ(report.points_stolen, 0u);

    const auto merged = dist::merge_sweep(dir);
    EXPECT_TRUE(merged.complete());
    fs::remove_all(dir);
}

TEST(ShardRunner, WithStealingDisabledAShardReturnsOnceTodoIsDrained) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("no_steal");

    // A partner holds one lease and never completes (or heartbeats) it.
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);
    WorkQueue partner(dir, manifest, "partner");
    const auto held = partner.claim();
    ASSERT_TRUE(held.has_value());

    // A no-steal shard must drain the remaining todo entries and RETURN -
    // not poll forever for a lease it is never allowed to take.
    dist::ShardOptions options;
    options.queue.steal = false;
    options.poll_seconds = 0.01;
    const auto report =
        dist::run_shard(split.train, split.test, grid, dir, "nosteal", options);
    EXPECT_EQ(report.points_run, grid.size() - 1);
    EXPECT_EQ(report.points_stolen, 0u);

    const auto merged = dist::merge_sweep(dir);
    EXPECT_FALSE(merged.complete());
    EXPECT_EQ(merged.missing, std::vector<std::size_t>{*held});
    fs::remove_all(dir);
}

TEST(SweepStatus, CountsQueueStateAndFlagsStaleLeases) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("status");
    const auto m = GridManifest::from_grid(small_grid(), split.train, split.test);
    WorkQueue q(dir, m, "worker");

    // 4 points: complete one, hold one fresh lease, age one into staleness,
    // leave one in todo.
    const auto a = q.claim();
    ASSERT_TRUE(a.has_value());
    q.complete(*a);
    const auto b = q.claim();
    const auto c = q.claim();
    ASSERT_TRUE(b && c);
    age_lease(q.lease_path(*c), 1e4);

    const auto status = dist::read_sweep_status(dir, 60.0);
    EXPECT_EQ(status.total, m.size());
    EXPECT_EQ(status.done, 1u);
    EXPECT_EQ(status.leased, 2u);
    EXPECT_EQ(status.todo, m.size() - 3);
    EXPECT_FALSE(status.complete());
    EXPECT_EQ(status.stale_leases(), 1u);
    for (const auto& lease : status.leases) {
        EXPECT_EQ(lease.owner, "worker");
        EXPECT_EQ(lease.stale, lease.index == *c);
        if (lease.index == *c) EXPECT_GT(lease.heartbeat_age_seconds, 60.0);
    }
    const std::string text = dist::format_sweep_status(status);
    EXPECT_NE(text.find("STALE"), std::string::npos);
    EXPECT_NE(text.find("todo=1 leased=2 done=1"), std::string::npos);
    fs::remove_all(dir);
}

TEST(SweepStatus, SeesShardReportsAndCompletion) {
    const auto split = small_split();
    const auto dir = fresh_cache_dir("status_done");
    const auto grid = core::expand_grid(small_config(), {{"bus_width", {"8"}}});
    dist::ShardOptions options;
    options.threads = 1;
    const auto report =
        dist::run_shard(split.train, split.test, grid, dir, "s0-test", options);
    EXPECT_EQ(report.points_run, 1u);

    const auto status = dist::read_sweep_status(dir);
    EXPECT_TRUE(status.complete());
    EXPECT_EQ(status.done, 1u);
    EXPECT_EQ(status.leased, 0u);
    ASSERT_EQ(status.shards.size(), 1u);
    EXPECT_EQ(status.shards[0].owner, "s0-test");
    EXPECT_EQ(status.shards[0].points_run, 1u);
    EXPECT_FALSE(status.shards[0].in_progress);
    fs::remove_all(dir);
}

TEST(SweepStatus, ThrowsWithoutAQueue) {
    const auto dir = fresh_cache_dir("status_none");
    EXPECT_THROW(dist::read_sweep_status(dir), std::runtime_error);
    fs::remove_all(dir);
}

TEST(SweepMerge, ReportsMissingPointsInsteadOfInventingThem) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("partial_merge");

    // Queue exists, but nobody has produced any results yet.
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);
    WorkQueue queue(dir, manifest, "init-only");
    const auto merged = dist::merge_sweep(dir);
    EXPECT_FALSE(merged.complete());
    EXPECT_EQ(merged.expected, grid.size());
    EXPECT_EQ(merged.missing.size(), grid.size());
    ASSERT_EQ(merged.result.points.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(merged.result.points[i].index, i);
        EXPECT_FALSE(merged.result.points[i].ok);
    }

    // No queue at all is an error, not an empty merge.
    const auto empty_dir = fresh_cache_dir("no_queue");
    EXPECT_THROW(dist::merge_sweep(empty_dir), std::runtime_error);
    fs::remove_all(dir);
    fs::remove_all(empty_dir);
}

TEST(RetryBudget, ExhaustedPointLandsInFailedState) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("retry_budget");
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);

    WorkQueueOptions options;
    options.lease_timeout_seconds = 30.0;
    options.max_retries = 2;

    // A "crashy" point: claim it, let the lease expire, steal it, repeat.
    WorkQueue dead(dir, manifest, "dead", options);
    const auto victim = dead.claim();
    ASSERT_TRUE(victim.has_value());

    // Finish every other point so only the victim remains in play.
    WorkQueue helper(dir, manifest, "helper", options);
    while (const auto got = helper.claim()) helper.complete(*got);

    // A handle never steals a lease it already holds (nor its own owner
    // name), so each re-claim needs a fresh thief - exactly the real
    // topology, where the re-runner is a different shard process.
    std::string lease = dead.lease_path(*victim);
    for (std::size_t retry = 1; retry <= options.max_retries; ++retry) {
        age_lease(lease, 1e4);
        WorkQueue thief(dir, manifest, "thief" + std::to_string(retry),
                        options);
        const auto got = thief.claim();
        ASSERT_TRUE(got.has_value()) << "retry " << retry << " not claimable";
        EXPECT_EQ(*got, *victim);
        EXPECT_EQ(thief.retry_count(*victim), retry);
        lease = thief.lease_path(*victim);
    }

    // Budget spent: the next expiry fails the point instead of re-running.
    age_lease(lease, 1e4);
    WorkQueue judge(dir, manifest, "judge", options);
    EXPECT_FALSE(judge.claim().has_value());
    EXPECT_EQ(judge.failed_count(), 1u);
    ASSERT_EQ(judge.failed_indices().size(), 1u);
    EXPECT_EQ(judge.failed_indices()[0], *victim);
    EXPECT_FALSE(fs::exists(lease));

    // Terminal states add up: done + failed drain the queue.
    EXPECT_TRUE(judge.drained());

    // sweep-status surfaces the failure...
    const auto status = dist::read_sweep_status(dir, 30.0);
    ASSERT_EQ(status.failed.size(), 1u);
    EXPECT_EQ(status.failed[0], *victim);
    EXPECT_TRUE(status.complete());
    EXPECT_FALSE(status.all_done());
    EXPECT_NE(dist::format_sweep_status(status).find("retry budget"),
              std::string::npos);

    // ... and sweep-merge explains the hole instead of waiting forever.
    const auto merged = dist::merge_sweep(dir);
    EXPECT_FALSE(merged.complete());
    bool explained = false;
    for (const auto& why : merged.missing_reasons)
        explained = explained ||
                    (why.find(std::to_string(*victim)) != std::string::npos &&
                     why.find("retry budget exhausted") != std::string::npos);
    EXPECT_TRUE(explained) << "merge did not name the failed point";
    fs::remove_all(dir);
}

TEST(RetryBudget, ZeroMeansUnlimitedSteals) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("retry_unlimited");
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);

    WorkQueueOptions options;
    options.lease_timeout_seconds = 30.0;  // max_retries stays 0
    WorkQueue dead(dir, manifest, "dead", options);
    const auto victim = dead.claim();
    ASSERT_TRUE(victim.has_value());
    WorkQueue helper(dir, manifest, "helper", options);
    while (const auto got = helper.claim()) helper.complete(*got);

    std::string lease = dead.lease_path(*victim);
    for (std::size_t retry = 1; retry <= 5; ++retry) {
        age_lease(lease, 1e4);
        WorkQueue thief(dir, manifest, "thief" + std::to_string(retry),
                        options);
        const auto got = thief.claim();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, *victim);
        EXPECT_EQ(thief.retry_count(*victim), retry);
        lease = thief.lease_path(*victim);
    }
    WorkQueue judge(dir, manifest, "judge", options);
    EXPECT_EQ(judge.failed_count(), 0u);
    fs::remove_all(dir);
}

TEST(CacheGc, CollectsDebrisAndBoundsResults) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("gc");
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);

    // A live (incomplete) queue guards results/ from collection.
    WorkQueue queue(dir, manifest, "gc-owner");
    fs::create_directories(dist::results_dir(dir));
    for (std::size_t i = 0; i < grid.size(); ++i)
        util::write_file_atomic(dist::point_manifest_path(dir, i),
                                std::string(600, 'x'));
    // Orphaned init temp, old enough to be unambiguous debris.
    fs::create_directories(fs::path(dir) / "queue.tmp.ghost" / "todo");
    age_lease((fs::path(dir) / "queue.tmp.ghost").string(), 1e4);

    dist::GcOptions gc;
    gc.max_age_seconds = 3600.0;
    gc.max_total_bytes = 1;  // everything in results/ is over budget
    gc.dry_run = true;
    auto report = dist::collect_garbage(dir, gc);
    EXPECT_EQ(report.tmp_dirs_removed, 1u);
    EXPECT_TRUE(report.results_skipped_live_sweep)
        << "results of a live sweep must not be collected";
    EXPECT_EQ(report.manifests_removed, 0u);
    // Dry run: the ghost dir is still there.
    EXPECT_TRUE(fs::exists(fs::path(dir) / "queue.tmp.ghost"));

    // Finish the sweep; now results are collectable, oldest first.
    while (const auto index = queue.claim()) queue.complete(*index);
    EXPECT_TRUE(queue.drained());
    age_lease(dist::point_manifest_path(dir, 0), 5e4);  // point 0 is oldest

    gc.dry_run = false;
    gc.max_age_seconds = 0.0;  // size bound only
    gc.max_total_bytes = 600 * (grid.size() - 1);
    report = dist::collect_garbage(dir, gc);
    EXPECT_EQ(report.tmp_dirs_removed, 1u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "queue.tmp.ghost"));
    EXPECT_EQ(report.manifests_removed, 1u);
    EXPECT_EQ(report.bytes_freed, 600u);
    EXPECT_FALSE(fs::exists(dist::point_manifest_path(dir, 0)))
        << "oldest manifest should go first";
    EXPECT_TRUE(fs::exists(dist::point_manifest_path(dir, 1)));

    // Age-bound collection of an old finished queue.
    gc.max_age_seconds = 3600.0;
    age_lease((fs::path(dir) / "queue" / "grid.json").string(), 1e5);
    report = dist::collect_garbage(dir, gc);
    EXPECT_TRUE(report.queue_removed);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "queue"));
    fs::remove_all(dir);
}

TEST(CacheGc, RemovesCommittedButUncleanedLeases) {
    const auto split = small_split();
    const auto grid = small_grid();
    const auto dir = fresh_cache_dir("gc_leases");
    const auto manifest = GridManifest::from_grid(grid, split.train, split.test);

    WorkQueue queue(dir, manifest, "crashy");
    const auto index = queue.claim();
    ASSERT_TRUE(index.has_value());
    // Simulate a crash between the done marker and the lease cleanup.
    util::write_file_atomic((fs::path(dir) / "queue" / "done" /
                             (std::string("0000000") +
                              std::to_string(*index) + ".done"))
                                .string(),
                            "crashy\n");
    age_lease(queue.lease_path(*index), 1e4);

    dist::GcOptions gc;
    const auto report = dist::collect_garbage(dir, gc);
    EXPECT_EQ(report.stale_leases_removed, 1u);
    EXPECT_FALSE(fs::exists(queue.lease_path(*index)));
    fs::remove_all(dir);
}

}  // namespace
