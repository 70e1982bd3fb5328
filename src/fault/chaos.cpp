#include "fault/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/artifact_store.hpp"
#include "core/sweep.hpp"
#include "dist/shard_runner.hpp"
#include "dist/sweep_merge.hpp"
#include "dist/work_queue.hpp"
#include "obs/merge.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define MATADOR_HAS_FORK 1
#endif

namespace fs = std::filesystem;

namespace matador::fault {

FaultPlan default_chaos_plan(std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    // One ENOSPC on a result-manifest publish and one EIO on an fsync:
    // both transient, so the retry layer must absorb them without the
    // shard noticing.
    FaultRule enospc;
    enospc.cls = FaultClass::kENOSPC;
    enospc.op = Op::kWrite;
    enospc.path_substr = "results";
    enospc.at = 1;
    plan.rules.push_back(enospc);
    FaultRule eio;
    eio.cls = FaultClass::kEIO;
    eio.op = Op::kFsync;
    eio.at = 2;
    plan.rules.push_back(eio);
    return plan;
}

namespace {

/// Artifact payload files eligible for corruption: every payload of every
/// entry the store lists, sorted for seeded deterministic choice.  The
/// queue/results trees are control state, not payloads — corrupting those
/// tests a different (merge-validation) layer.
std::vector<fs::path> payload_files(const std::string& cache_dir) {
    std::vector<fs::path> files;
    for (const auto& entry : core::ArtifactStore(cache_dir).list_disk())
        files.insert(files.end(), entry.payloads.begin(), entry.payloads.end());
    std::sort(files.begin(), files.end());
    return files;
}

/// Flip one seeded bit of one file, in place (no atomic dance: this IS the
/// simulated media corruption).
bool flip_bit_in_file(const fs::path& path, util::KeyedRng& rng) {
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) return false;
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    if (bytes.empty()) return false;
    const std::uint64_t bit = rng.below(std::uint64_t(bytes.size()) * 8);
    bytes[bit / 8] ^= char(1u << (bit % 8));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    return bool(out);
}

std::uint64_t counter_sum(const util::Json& metrics, const std::string& name,
                          const std::string& label_value = "") {
    std::uint64_t total = 0;
    if (!metrics.contains("counters")) return 0;
    for (const auto& e : metrics.at("counters").as_array()) {
        if (e.at("name").as_string() != name) continue;
        if (!label_value.empty()) {
            bool match = false;
            for (const auto& [k, v] : e.at("labels").as_object())
                if (v.is_string() && v.as_string() == label_value) match = true;
            if (!match) continue;
        }
        total += e.at("value").as_count();
    }
    return total;
}

}  // namespace

ChaosReport run_chaos(const data::Dataset& train, const data::Dataset& test,
                      const std::vector<core::FlowConfig>& grid,
                      const std::string& cache_dir,
                      const ChaosOptions& options) {
    ChaosReport report;
#ifndef MATADOR_HAS_FORK
    (void)train; (void)test; (void)grid; (void)cache_dir; (void)options;
    report.detail = "platform has no fork(); chaos runs need POSIX";
    return report;
#else
    report.ran = true;

    // Phase 1: clean single-process reference, warming <cache_dir>'s store.
    core::SweepOptions ref_options;
    ref_options.threads = 1;
    ref_options.store = std::make_shared<core::ArtifactStore>(cache_dir);
    const core::SweepResult reference =
        core::Pipeline::sweep(train, test, grid, ref_options);

    // Phase 2: seeded payload corruption.  Remember each victim's
    // corrupted bytes so the audit can prove the repair restored them.
    util::KeyedRng corrupt_rng(options.seed, 0xc0441ull);
    auto candidates = payload_files(cache_dir);
    std::vector<std::pair<fs::path, std::string>> corrupted;
    for (unsigned i = 0;
         i < options.corrupt_artifacts && !candidates.empty(); ++i) {
        const auto pick = std::size_t(
            corrupt_rng.below(std::uint64_t(candidates.size())));
        if (flip_bit_in_file(candidates[pick], corrupt_rng)) {
            ++report.artifacts_corrupted;
            corrupted.emplace_back(candidates[pick],
                                   util::read_file(candidates[pick].string()));
        }
        candidates.erase(candidates.begin() + std::ptrdiff_t(pick));
    }

    // Phase 3: fresh queue epoch run by forked shards under kills + plan.
    dist::WorkQueue::reset(cache_dir);
    fs::remove_all(dist::results_dir(cache_dir));
    const dist::GridManifest manifest =
        dist::GridManifest::from_grid(grid, train, test);
    dist::ShardOptions shard_options;
    shard_options.threads = options.threads_per_shard;
    shard_options.queue.lease_timeout_seconds = options.lease_timeout_seconds;
    shard_options.queue.steal = true;
    shard_options.export_obs = true;
    dist::WorkQueue(cache_dir, manifest, "chaos-coordinator",
                    shard_options.queue);

    std::fflush(nullptr);
    std::vector<pid_t> children;
    for (unsigned i = 0; i < options.shards; ++i) {
        const pid_t pid = fork();
        if (pid < 0) {
            for (const pid_t child : children) waitpid(child, nullptr, 0);
            report.detail = "fork failed";
            return report;
        }
        if (pid == 0) {
            int code = 0;
            try {
                FaultPlan plan;
                if (i < options.kill_shards) {
                    // A doomed shard: SIGKILL at its 1st or 2nd result
                    // write (seeded), leaving a mid-run lease + manifest.
                    plan.seed = options.seed;
                    FaultRule kill;
                    kill.cls = FaultClass::kKill;
                    kill.point = "shard.result.pre-complete";
                    kill.at =
                        1 + util::KeyedRng(options.seed, 0xdeadull, i).below(2);
                    plan.rules.push_back(kill);
                } else {
                    plan = options.plan ? *options.plan
                                        : default_chaos_plan(options.seed);
                }
                FsHooks::instance().arm(std::move(plan));
                const std::string owner = "c" + std::to_string(i) + "-" +
                                          std::to_string(getpid());
                const auto shard_report = dist::run_shard(
                    train, test, grid, cache_dir, owner, shard_options);
                code = shard_report.points_failed == 0 ? 0 : 1;
            } catch (const std::exception& e) {
                std::fprintf(stderr, "chaos shard %u: %s\n", i, e.what());
                code = 2;
            }
            std::fflush(nullptr);
            _exit(code);
        }
        children.push_back(pid);
    }
    for (const pid_t child : children) {
        int status = 0;
        waitpid(child, &status, 0);
        if (WIFSIGNALED(status)) ++report.shards_killed;
    }

    // Parent drain: if every survivor exited with leases still pending
    // (or every shard was killed), finish the queue in-process.  A drained
    // queue makes this a no-op.
    {
        dist::ShardOptions drain = shard_options;
        drain.export_obs = false;
        dist::run_shard(train, test, grid, cache_dir, "chaos-drain", drain);
    }

    // Phase 4: audit.
    const auto merged = dist::merge_sweep(cache_dir);
    report.complete = merged.complete();
    if (!report.complete) {
        report.detail = "merge incomplete: " +
                        std::to_string(merged.missing.size()) + " of " +
                        std::to_string(merged.expected) + " points missing";
        return report;
    }
    // Bit-identity is judged on the flow RESULTS.  The stage records
    // legitimately differ between the runs (the reference computes cold,
    // the chaos pass serves repaired entries from the warmed store, so
    // status/tier/seconds are provenance, not results).
    report.identical = true;
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
        if (merged.result.points[i].ok != reference.points[i].ok) {
            report.identical = false;
            report.detail = "point " + std::to_string(i) +
                            " ok flag differs from the reference";
            break;
        }
        const std::string want =
            core::flow_result_to_json(reference.points[i].result).dump();
        const std::string got =
            core::flow_result_to_json(merged.result.points[i].result).dump();
        if (want != got) {
            report.identical = false;
            std::size_t d = 0;
            while (d < want.size() && d < got.size() && want[d] == got[d]) ++d;
            const std::size_t from = d < 40 ? 0 : d - 40;
            report.detail = "point " + std::to_string(i) +
                            " differs from the fault-free reference at byte " +
                            std::to_string(d) + ": reference ..." +
                            want.substr(from, 80) + "... vs chaos ..." +
                            got.substr(from, 80) + "...";
            break;
        }
    }

    // A corrupted payload counts as repaired when its on-disk bytes no
    // longer match the corrupted image (the store recomputed the entry).
    for (const auto& [path, bad_bytes] : corrupted) {
        std::error_code ec;
        if (!fs::exists(path, ec)) continue;  // entry replaced wholesale
        try {
            if (util::read_file(path.string()) != bad_bytes)
                ++report.crc_repaired;
        } catch (const std::exception&) {
        }
    }
    // An entry whose directory was replaced by write_entry's fresh tmp has
    // a different inode path history but the same final path; a vanished
    // file means the repair replaced the whole entry dir — count it too.
    for (const auto& [path, bad_bytes] : corrupted) {
        std::error_code ec;
        if (!fs::exists(path, ec)) ++report.crc_repaired;
    }

    std::vector<util::Json> docs;
    for (auto& [owner, doc] :
         dist::read_shard_obs_files(cache_dir, ".metrics.json"))
        docs.push_back(std::move(doc));
    if (!docs.empty()) {
        const util::Json merged_metrics = obs::merge_metrics(docs);
        report.crc_detected =
            counter_sum(merged_metrics, "artifact_crc_mismatch_total");
        report.faults_injected =
            counter_sum(merged_metrics, "fault_injected_total");
        report.retries = counter_sum(merged_metrics, "fs_retry_total");
        for (const char* cls : {"eio", "enospc", "torn"})
            report.transient_fired +=
                counter_sum(merged_metrics, "fault_injected_total", cls);
    }
    if (report.detail.empty() && !report.ok(options)) {
        if (report.crc_repaired < report.artifacts_corrupted)
            report.detail = "corrupted artifact(s) not repaired";
        else if (report.retries < report.transient_fired)
            report.detail = "injected transient fault(s) not retried";
        else if (report.shards_killed != options.kill_shards)
            report.detail = "kill count mismatch";
    }
    return report;
#endif
}

}  // namespace matador::fault
