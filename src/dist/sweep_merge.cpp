#include "dist/sweep_merge.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/fsio.hpp"

namespace fs = std::filesystem;

namespace matador::dist {

namespace {

using util::Json;
using util::read_file;

void add_tier(core::ArtifactStore::TierStats& into,
              const core::ArtifactStore::TierStats& from) {
    into.memory_hits += from.memory_hits;
    into.disk_hits += from.disk_hits;
    into.misses += from.misses;
    // Each shard process has its own memory tier; the sum is the total
    // number of in-memory artifacts the sweep materialized.
    into.memory_entries += from.memory_entries;
}

}  // namespace

MergeReport merge_sweep(const std::string& cache_dir) {
    const fs::path grid_path = fs::path(cache_dir) / "queue" / "grid.json";
    if (!fs::exists(grid_path))
        throw std::runtime_error(
            "merge_sweep: no " + grid_path.string() +
            " - this cache_dir has no (current) distributed sweep to merge");
    const GridManifest grid =
        GridManifest::from_json(Json::parse(read_file(grid_path.string())));

    MergeReport report;
    report.expected = grid.size();
    report.result.points.resize(grid.size());

    for (std::size_t i = 0; i < grid.size(); ++i) {
        core::SweepPoint& point = report.result.points[i];
        const std::string path = point_manifest_path(cache_dir, i);
        std::string why;
        try {
            if (!fs::exists(path)) throw std::runtime_error("no manifest yet");
            const Json j = Json::parse(read_file(path));
            if (j.at("grid_hash").as_string() != core::key_hex(grid.grid_hash))
                throw std::runtime_error("stale manifest from another sweep epoch");
            core::SweepPoint parsed = core::sweep_point_from_json(j);
            if (parsed.index != i)
                throw std::runtime_error("manifest index mismatch");
            if (core::flow_config_to_text(parsed.cfg) != grid.config_texts[i])
                throw std::runtime_error("manifest config differs from the grid");
            point = std::move(parsed);
            continue;
        } catch (const std::exception& e) {
            why = e.what();
        }
        // Keep the slot well-formed for partial-result consumers.  A failed
        // marker overrides the generic diagnosis: the queue gave the point
        // up deliberately, it is not still on its way.
        char failed_name[40];
        std::snprintf(failed_name, sizeof failed_name, "%08zu.failed", i);
        if (fs::exists(fs::path(cache_dir) / "queue" / "failed" / failed_name))
            why = "retry budget exhausted (queue/failed/); the point "
                  "repeatedly outlived its lease";
        point.index = i;
        point.cfg = core::flow_config_from_text(grid.config_texts[i]);
        point.ok = false;
        report.missing.push_back(i);
        report.missing_reasons.push_back("point " + std::to_string(i) + ": " + why);
    }

    // Sum the per-shard store stats; re-scan the disk tier for the true
    // entry counts (shards report their own possibly-overlapping views).
    std::size_t max_threads_sum = 0;
    double max_wall = 0.0;
    WorkQueue queue(cache_dir, grid, "merge");
    for (const Json& stats : queue.read_all_stats()) {
        try {
            ShardReport shard = shard_report_from_json(stats);
            report.result.store_stats.for_each(
                [&](const char* stage, core::ArtifactStore::TierStats& t) {
                    add_tier(t, shard.store_stats[stage]);
                });
            max_threads_sum += shard.threads_used;
            max_wall = std::max(max_wall, shard.wall_seconds);
            report.shards.push_back(std::move(shard));
        } catch (const std::exception&) {
            // An unparseable stats file (mid-write shard) only affects the
            // aggregate counters, never the merged points; skip it.
        }
    }
    report.result.threads_used = unsigned(max_threads_sum);
    report.result.wall_seconds = max_wall;

    const core::ArtifactStore store(cache_dir);
    for (const auto& entry : store.list_disk())
        ++report.result.store_stats[entry.stage].disk_entries;
    return report;
}

}  // namespace matador::dist
