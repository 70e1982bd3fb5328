// Tests for the fault-injection subsystem: plan parsing and determinism,
// the injected fault classes (EIO, ENOSPC, torn tmp, bit-flip, kill) each
// with its specific recovery asserted, the bounded-backoff retry layer,
// the fork/kill crash harness, and the end-to-end chaos gate - a sharded
// sweep run under kills + faults + corruption must merge bit-identical to
// a clean reference.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/artifact_store.hpp"
#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "dist/gc.hpp"
#include "dist/work_queue.hpp"
#include "fault/chaos.hpp"
#include "fault/crash_harness.hpp"
#include "model/trained_model.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/fsio.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador;
using fault::FaultClass;
using fault::FaultPlan;
using fault::FaultRule;
using fault::FsHooks;
using fault::Op;

std::string fresh_dir(const std::string& tag) {
    const fs::path dir = fs::temp_directory_path() /
                         ("matador_fault_" + tag + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

FaultRule rule(FaultClass cls, Op op, std::string path_substr,
               std::uint64_t at = 1, std::uint64_t count = 1) {
    FaultRule r;
    r.cls = cls;
    r.op = op;
    r.path_substr = std::move(path_substr);
    r.at = at;
    r.count = count;
    return r;
}

FaultPlan plan_of(std::uint64_t seed, std::vector<FaultRule> rules) {
    FaultPlan p;
    p.seed = seed;
    p.rules = std::move(rules);
    return p;
}

/// Retries in tests sleep microseconds, not milliseconds.
struct FastRetry {
    fault::RetryPolicy saved = fault::retry_policy();
    FastRetry() {
        fault::RetryPolicy p = saved;
        p.base_delay_ms = 0.01;
        p.max_delay_ms = 0.05;
        fault::set_retry_policy(p);
    }
    ~FastRetry() { fault::set_retry_policy(saved); }
};

double counter_value(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
}

std::string tmp_name_of(const std::string& path) {
    return path + ".tmp." + std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanJson, RoundTripsEveryField) {
    const std::string text = R"({
      "seed": 42,
      "rules": [
        {"class": "eio", "op": "write", "path": "results", "at": 2, "count": 3},
        {"class": "bitflip", "op": "any", "prob": 0.25},
        {"class": "kill", "point": "queue.init.pre-publish", "at": 1}
      ]
    })";
    const FaultPlan p = FaultPlan::parse(text);
    EXPECT_EQ(p.seed, 42u);
    ASSERT_EQ(p.rules.size(), 3u);
    EXPECT_EQ(p.rules[0].cls, FaultClass::kEIO);
    EXPECT_EQ(p.rules[0].op, Op::kWrite);
    EXPECT_EQ(p.rules[0].path_substr, "results");
    EXPECT_EQ(p.rules[0].at, 2u);
    EXPECT_EQ(p.rules[0].count, 3u);
    EXPECT_EQ(p.rules[1].cls, FaultClass::kBitFlip);
    EXPECT_DOUBLE_EQ(p.rules[1].prob, 0.25);
    EXPECT_EQ(p.rules[2].cls, FaultClass::kKill);
    EXPECT_EQ(p.rules[2].point, "queue.init.pre-publish");

    const FaultPlan back = FaultPlan::parse(p.to_json());
    ASSERT_EQ(back.rules.size(), p.rules.size());
    EXPECT_EQ(back.seed, p.seed);
    for (std::size_t i = 0; i < p.rules.size(); ++i) {
        EXPECT_EQ(back.rules[i].cls, p.rules[i].cls) << i;
        EXPECT_EQ(back.rules[i].op, p.rules[i].op) << i;
        EXPECT_EQ(back.rules[i].path_substr, p.rules[i].path_substr) << i;
        EXPECT_EQ(back.rules[i].point, p.rules[i].point) << i;
        EXPECT_EQ(back.rules[i].at, p.rules[i].at) << i;
        EXPECT_EQ(back.rules[i].count, p.rules[i].count) << i;
        EXPECT_DOUBLE_EQ(back.rules[i].prob, p.rules[i].prob) << i;
    }
}

TEST(FaultPlanJson, RejectsTyposInsteadOfSilentlyInjectingNothing) {
    // Unknown top-level field.
    EXPECT_THROW(FaultPlan::parse(R"({"sede": 1, "rules": []})"),
                 std::runtime_error);
    // Unknown rule field.
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "pth": "x"}]})"),
        std::runtime_error);
    // Unknown class / op names.
    EXPECT_THROW(FaultPlan::parse(R"({"rules": [{"class": "oops"}]})"),
                 std::runtime_error);
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "op": "chmod"}]})"),
        std::runtime_error);
    // `at` is 1-based; 0 is a spec error, not "never".
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "at": 0}]})"),
        std::runtime_error);
    // Counts are whole numbers in range, never bare-cast: a negative `at`
    // would never fire and a huge `count` would mean "every match".
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "at": -1}]})"),
        std::runtime_error);
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "at": 2.5}]})"),
        std::runtime_error);
    EXPECT_THROW(
        FaultPlan::parse(R"({"rules": [{"class": "eio", "count": 1e300}]})"),
        std::runtime_error);
    EXPECT_THROW(FaultPlan::parse(R"({"seed": -1, "rules": []})"),
                 std::runtime_error);
}

TEST(FaultPlanJson, FromEnvReadsInlineJsonAndFiles) {
    ASSERT_EQ(::unsetenv("MATADOR_FAULT_PLAN"), 0);
    EXPECT_FALSE(FaultPlan::from_env().has_value());

    ASSERT_EQ(::setenv("MATADOR_FAULT_PLAN",
                       R"({"seed": 9, "rules": [{"class": "enospc"}]})", 1),
              0);
    auto inline_plan = FaultPlan::from_env();
    ASSERT_TRUE(inline_plan.has_value());
    EXPECT_EQ(inline_plan->seed, 9u);
    ASSERT_EQ(inline_plan->rules.size(), 1u);
    EXPECT_EQ(inline_plan->rules[0].cls, FaultClass::kENOSPC);

    const std::string dir = fresh_dir("env_plan");
    const std::string file = dir + "/plan.json";
    util::write_file_atomic(file, R"({"seed": 7, "rules": []})");
    ASSERT_EQ(::setenv("MATADOR_FAULT_PLAN", file.c_str(), 1), 0);
    auto file_plan = FaultPlan::from_env();
    ASSERT_TRUE(file_plan.has_value());
    EXPECT_EQ(file_plan->seed, 7u);
    ASSERT_EQ(::unsetenv("MATADOR_FAULT_PLAN"), 0);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSamePlanSameFiredSequence) {
    const auto probe = [&]() -> std::vector<std::string> {
        FaultPlan p;
        p.seed = 1234;
        FaultRule r = rule(FaultClass::kEIO, Op::kWrite, "", 1, 0);
        r.prob = 0.3;  // seeded Bernoulli per match, not a window
        p.rules = {r};
        fault::ScopedPlan armed(p);
        for (int i = 0; i < 64; ++i)
            (void)FsHooks::instance().check(
                Op::kWrite, "/cache/results/" + std::to_string(i));
        return FsHooks::instance().fired_log();
    };
    const auto first = probe();
    const auto second = probe();
    EXPECT_FALSE(first.empty());  // p=0.3 over 64 draws: fires
    EXPECT_LT(first.size(), 64u);  // ... but not on every match
    EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, WindowRulesFireOnExactOrdinals) {
    fault::ScopedPlan armed(
        plan_of(0, {rule(FaultClass::kENOSPC, Op::kFsync, "", 3, 2)}));
    int fired_at[8] = {};
    for (int i = 1; i <= 8; ++i)
        fired_at[i - 1] = FsHooks::instance().check(Op::kFsync, "/x").fire;
    // 1-based window [at, at+count) = matches 3 and 4.
    EXPECT_EQ(fired_at[0], 0);
    EXPECT_EQ(fired_at[1], 0);
    EXPECT_EQ(fired_at[2], 1);
    EXPECT_EQ(fired_at[3], 1);
    EXPECT_EQ(fired_at[4], 0);
    EXPECT_EQ(FsHooks::instance().fires(FaultClass::kENOSPC), 2u);
}

// ---------------------------------------------------------------------------
// Fault classes and their recoveries
// ---------------------------------------------------------------------------

TEST(FaultRecovery, TransientEioOnWriteIsAbsorbedByOneRetry) {
    FastRetry fast;
    const std::string dir = fresh_dir("eio");
    const std::string target = dir + "/artifact.txt";
    const double retries_before = counter_value("fs_retry_total");

    fault::ScopedPlan armed(
        plan_of(0, {rule(FaultClass::kEIO, Op::kWrite, "artifact.txt")}));
    util::write_file_atomic(target, "payload survives eio");

    EXPECT_EQ(util::read_file(target), "payload survives eio");
    EXPECT_EQ(FsHooks::instance().fires(FaultClass::kEIO), 1u);
    EXPECT_GE(counter_value("fs_retry_total"), retries_before + 1.0);
    EXPECT_FALSE(fs::exists(tmp_name_of(target)));  // no debris on success
}

TEST(FaultRecovery, TransientEnospcOnRenameIsAbsorbedByOneRetry) {
    FastRetry fast;
    const std::string dir = fresh_dir("enospc");
    const std::string target = dir + "/artifact.txt";

    fault::ScopedPlan armed(
        plan_of(0, {rule(FaultClass::kENOSPC, Op::kRename, "artifact.txt")}));
    util::write_file_atomic(target, "payload survives enospc");

    EXPECT_EQ(util::read_file(target), "payload survives enospc");
    EXPECT_EQ(FsHooks::instance().fires(FaultClass::kENOSPC), 1u);
}

TEST(FaultRecovery, TornTmpLeavesDebrisAndTheRetryRepublishesOverIt) {
    const std::string dir = fresh_dir("torn");
    const std::string target = dir + "/artifact.txt";
    const std::string content = "0123456789 torn halfway, then recovered";

    fault::ScopedPlan armed(
        plan_of(77, {rule(FaultClass::kTornTmp, Op::kWrite, "artifact.txt")}));

    // First attempt: the simulated crash LEAVES the partial temp file.
    EXPECT_THROW(util::write_file_atomic_once(target, content),
                 util::FsError);
    EXPECT_FALSE(fs::exists(target));
    ASSERT_TRUE(fs::exists(tmp_name_of(target)));
    EXPECT_LT(fs::file_size(tmp_name_of(target)), content.size());

    // The retry (the rule's window is spent) republishes over the debris.
    util::write_file_atomic_once(target, content);
    EXPECT_EQ(util::read_file(target), content);
    EXPECT_FALSE(fs::exists(tmp_name_of(target)));
    EXPECT_EQ(FsHooks::instance().fires(FaultClass::kTornTmp), 1u);
}

TEST(FaultRecovery, PersistentRenameFailureCleansTheTmpAndThrowsTyped) {
    FastRetry fast;
    const std::string dir = fresh_dir("rename_fail");
    const std::string target = dir + "/artifact.txt";

    // count=0: the rename fails on EVERY attempt - the retry budget runs
    // out and the error surfaces, but no temp debris may remain.
    fault::ScopedPlan armed(
        plan_of(0, {rule(FaultClass::kEIO, Op::kRename, "artifact.txt", 1, 0)}));
    try {
        util::write_file_atomic(target, "never lands");
        FAIL() << "expected FsError";
    } catch (const util::FsError& e) {
        EXPECT_EQ(e.code(), EIO);
        EXPECT_TRUE(e.transient());
    }
    EXPECT_FALSE(fs::exists(target));
    EXPECT_FALSE(fs::exists(tmp_name_of(target)));
    // Every attempt burned one fire.
    EXPECT_EQ(FsHooks::instance().fires(FaultClass::kEIO),
              std::uint64_t(fault::retry_policy().max_attempts));
}

TEST(FaultRecovery, BitFlippedStorePayloadIsCaughtByCrcAndRepaired) {
    const std::string dir = fresh_dir("crc");
    const auto tiny_trained = [] {
        core::TrainedArtifact a;
        auto m = std::make_shared<model::TrainedModel>(6, 2, 4);
        m->clause(0, 0).include_pos.set(1);
        m->clause(1, 1).include_neg.set(3);
        a.model = std::move(m);
        a.train_accuracy = 0.875;
        a.test_accuracy = 1.0 / 3.0;
        return a;
    };
    {
        core::ArtifactStore store(dir);
        store.get_or_compute_trained(7, tiny_trained);
    }
    // Media corruption: one silent bit flip in the persisted payload.
    const fs::path model_file =
        fs::path(dir) / "train" / core::key_hex(7) / "model.tm";
    ASSERT_TRUE(fs::exists(model_file));
    std::string bytes = util::read_file(model_file.string());
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() / 2] ^= char(0x10);
    std::ofstream(model_file, std::ios::binary) << bytes;

    const double mismatches_before = counter_value("artifact_crc_mismatch_total");
    core::ArtifactStore fresh(dir);
    std::vector<std::string> warnings;
    core::ArtifactTier tier = core::ArtifactTier::kMemory;
    int computes = 0;
    fresh.get_or_compute_trained(
        7,
        [&] {
            computes++;
            return tiny_trained();
        },
        &tier, [&](const std::string& w) { warnings.push_back(w); });
    EXPECT_EQ(computes, 1);  // corrupt payload never trusted
    EXPECT_EQ(tier, core::ArtifactTier::kNone);
    EXPECT_GE(counter_value("artifact_crc_mismatch_total"),
              mismatches_before + 1.0);
    ASSERT_FALSE(warnings.empty());
    bool saw_crc_warning = false;
    for (const std::string& w : warnings)
        saw_crc_warning |= w.find("CRC mismatch") != std::string::npos;
    EXPECT_TRUE(saw_crc_warning) << warnings[0];

    // The recompute repaired the entry: a third store loads it from disk.
    core::ArtifactStore again(dir);
    tier = core::ArtifactTier::kNone;
    again.get_or_compute_trained(
        7, [] { return core::TrainedArtifact{}; }, &tier);
    EXPECT_EQ(tier, core::ArtifactTier::kDisk);
}

TEST(FaultClassification, TransientVsPermanentErrnos) {
    EXPECT_TRUE(fault::is_transient_errno(EIO));
    EXPECT_TRUE(fault::is_transient_errno(ENOSPC));
    EXPECT_TRUE(fault::is_transient_errno(EAGAIN));
    EXPECT_TRUE(fault::is_transient_errno(EINTR));
    EXPECT_FALSE(fault::is_transient_errno(ENOENT));
    EXPECT_FALSE(fault::is_transient_errno(EACCES));
    EXPECT_FALSE(fault::is_transient_errno(EINVAL));
    EXPECT_FALSE(fault::is_transient_errno(EROFS));
    EXPECT_FALSE(util::FsError("x", EACCES).transient());
    EXPECT_TRUE(util::FsError("x", ENOSPC).transient());
}

TEST(FaultBackoff, DeterministicJitterBoundedByMaxDelay) {
    fault::RetryPolicy policy;
    policy.base_delay_ms = 1.0;
    policy.max_delay_ms = 50.0;
    for (int attempt = 1; attempt <= 8; ++attempt) {
        const double d =
            fault::backoff_delay_ms(policy, "/cache/entry", attempt);
        EXPECT_GE(d, 0.0) << attempt;
        EXPECT_LT(d, policy.max_delay_ms) << attempt;
        // Same (policy, key, attempt) => same span, always.
        EXPECT_EQ(d, fault::backoff_delay_ms(policy, "/cache/entry", attempt));
    }
}

// ---------------------------------------------------------------------------
// Crash harness
// ---------------------------------------------------------------------------

TEST(CrashHarness, KillAtPreRenameLeavesNoTargetAndRecoveryRepublishes) {
    if (!fault::crash_harness_supported())
        GTEST_SKIP() << "no fork() on this platform";
    const std::string dir = fresh_dir("kill_publish");
    const std::string target = dir + "/artifact.txt";

    FaultPlan p;
    FaultRule kill;
    kill.cls = FaultClass::kKill;
    kill.point = "fsio.publish.pre-rename";
    p.rules = {kill};

    const auto outcome = fault::run_to_crash(
        p, [&] { util::write_file_atomic(target, "died mid-publish"); });
    ASSERT_TRUE(outcome.forked);
    EXPECT_TRUE(outcome.killed);  // SIGKILL at the crash point, no cleanup
    // Atomicity held: the target never appeared, only tmp debris did.
    EXPECT_FALSE(fs::exists(target));

    // Recovery is just running again: the publish lands, debris or not.
    util::write_file_atomic(target, "second run lands");
    EXPECT_EQ(util::read_file(target), "second run lands");
}

TEST(CrashHarness, MidInitQueueCrashIsCollectedByGcAndReinitRecovers) {
    if (!fault::crash_harness_supported())
        GTEST_SKIP() << "no fork() on this platform";
    const std::string dir = fresh_dir("kill_init");
    const auto ds = data::make_noisy_xor(200, 10, 0.03, 3);
    const auto split = data::train_test_split(ds, 0.8, 5);
    core::FlowConfig cfg;
    cfg.tm.clauses_per_class = 8;
    const auto grid = core::expand_grid(cfg, {{"bus_width", {"8", "16"}}});
    const auto manifest =
        dist::GridManifest::from_grid(grid, split.train, split.test);

    FaultPlan p;
    FaultRule kill;
    kill.cls = FaultClass::kKill;
    kill.point = "queue.init.pre-publish";
    p.rules = {kill};

    const auto outcome = fault::run_to_crash(
        p, [&] { dist::WorkQueue q(dir, manifest, "victim"); });
    ASSERT_TRUE(outcome.forked);
    ASSERT_TRUE(outcome.killed);

    // The atomic init protocol held: no queue/ dir, only queue.tmp.* debris.
    EXPECT_FALSE(dist::WorkQueue::exists(dir));
    std::size_t debris = 0;
    for (const auto& e : fs::directory_iterator(dir))
        debris += e.path().filename().string().rfind("queue.tmp.", 0) == 0;
    EXPECT_EQ(debris, 1u);

    // `matador cache gc` sweeps the orphaned init temp ...
    dist::GcOptions gc;
    gc.debris_age_seconds = 0.0;  // tests do not wait out the safety age
    const auto report = dist::collect_garbage(dir, gc);
    EXPECT_EQ(report.tmp_dirs_removed, 1u);

    // ... and a re-init rebuilds the queue and serves the full grid.
    dist::WorkQueue q(dir, manifest, "recovered");
    std::size_t claimed = 0;
    while (auto idx = q.claim()) {
        ++claimed;
        q.complete(*idx);
    }
    EXPECT_EQ(claimed, grid.size());
    EXPECT_TRUE(q.drained());
}

TEST(LeaseClock, JustHeartbeatedLeaseIsNeverAStealCandidate) {
    const std::string dir = fresh_dir("lease_floor");
    const auto ds = data::make_noisy_xor(200, 10, 0.03, 3);
    const auto split = data::train_test_split(ds, 0.8, 5);
    core::FlowConfig cfg;
    const auto grid = core::expand_grid(cfg, {{"bus_width", {"8", "16"}}});
    const auto manifest =
        dist::GridManifest::from_grid(grid, split.train, split.test);

    // A pathologically small timeout: without the kMinLeaseTimeoutSeconds
    // clamp, every fresh lease would look expired within fs-mtime noise.
    dist::WorkQueueOptions options;
    options.lease_timeout_seconds = 0.01;
    dist::WorkQueue a(dir, manifest, "a", options);
    dist::WorkQueue b(dir, manifest, "b", options);

    const auto held = a.claim();
    ASSERT_TRUE(held.has_value());
    a.heartbeat();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // b claims the remaining unclaimed index, then must NOT steal a's
    // just-heartbeated lease even though 0.01 s "expired" long ago.
    const auto other = b.claim();
    ASSERT_TRUE(other.has_value());
    EXPECT_NE(*other, *held);
    EXPECT_FALSE(b.claim().has_value());
    EXPECT_EQ(b.stolen_count(), 0u);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesTheStandardCheckVectors) {
    EXPECT_EQ(util::crc32(""), 0x00000000u);
    EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);  // CRC-32/zlib check
    EXPECT_EQ(util::crc32_hex(util::crc32("123456789")), "cbf43926");
    EXPECT_EQ(util::crc32_hex(0), "00000000");
    // Incremental == one-shot.
    std::uint32_t crc = util::crc32_update(0, "1234", 4);
    crc = util::crc32_update(crc, "56789", 5);
    EXPECT_EQ(crc, util::crc32("123456789"));
}

// ---------------------------------------------------------------------------
// End-to-end chaos gate
// ---------------------------------------------------------------------------

TEST(Chaos, SeededRunRecoversBitIdenticalFromKillsFaultsAndCorruption) {
    if (!fault::crash_harness_supported())
        GTEST_SKIP() << "no fork() on this platform";
    const std::string dir = fresh_dir("chaos_e2e");
    const auto ds = data::make_noisy_xor(400, 10, 0.03, 3);
    const auto split = data::train_test_split(ds, 0.8, 5);
    core::FlowConfig cfg;
    cfg.tm.clauses_per_class = 8;
    cfg.tm.threshold = 8;
    cfg.tm.seed = 21;
    cfg.epochs = 2;
    cfg.arch.bus_width = 8;
    cfg.verify_vectors = 4;
    cfg.sim_datapoints = 4;
    cfg.skip_rtl_verification = true;
    const auto grid = core::expand_grid(cfg, {{"bus_width", {"8", "16"}}});

    fault::ChaosOptions opts;
    opts.seed = 5;
    opts.shards = 2;
    opts.kill_shards = 1;
    opts.corrupt_artifacts = 1;
    opts.lease_timeout_seconds = 2.0;

    const auto report =
        fault::run_chaos(split.train, split.test, grid, dir, opts);
    ASSERT_TRUE(report.ran);
    EXPECT_TRUE(report.complete) << report.detail;
    EXPECT_TRUE(report.identical) << report.detail;
    EXPECT_EQ(report.shards_killed, 1u);
    EXPECT_EQ(report.artifacts_corrupted, 1u);
    EXPECT_GE(report.crc_repaired, 1u);
    EXPECT_TRUE(report.ok(opts)) << report.detail;
}

}  // namespace
