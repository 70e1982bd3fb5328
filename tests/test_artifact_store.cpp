// Tests for the two-tier, stage-scoped ArtifactStore: key slices, memory
// single-flight, disk persistence across store instances ("process
// restarts"), byte-identical RTL rehydration, and corrupt-entry handling
// by the entry codec (manifest, CRCs, per-kind decode).
#include "core/artifact_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "core/sweep.hpp"
#include "data/synthetic.hpp"
#include "lint/lint.hpp"
#include "logic/aiger.hpp"
#include "util/crc32.hpp"

namespace fs = std::filesystem;

namespace {

using namespace matador;
using core::ArtifactStore;
using core::ArtifactTier;
using core::CompileContext;
using core::FlowConfig;
using core::GeneratedArtifact;
using core::Pipeline;
using core::StageKind;
using core::StageStatus;
using core::TrainedArtifact;

FlowConfig small_config() {
    FlowConfig cfg;
    cfg.tm.clauses_per_class = 12;
    cfg.tm.threshold = 8;
    cfg.tm.seed = 21;
    cfg.epochs = 3;
    cfg.arch.bus_width = 8;
    cfg.verify_vectors = 4;
    cfg.sim_datapoints = 6;
    return cfg;
}

data::Split small_split(std::uint64_t seed = 3) {
    const auto ds = data::make_noisy_xor(600, 10, 0.03, seed);
    return data::train_test_split(ds, 0.8, 5);
}

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
    explicit TempDir(const std::string& name)
        : path(fs::temp_directory_path() / ("matador-store-test-" + name)) {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
    fs::path path;
};

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(bool(in)) << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void spit(const fs::path& p, const std::string& bytes) {
    std::ofstream(p, std::ios::binary) << bytes;
}

/// The one generate entry of a cache directory.
fs::path only_generate_entry(const fs::path& cache) {
    std::vector<fs::path> entries;
    for (const auto& e : fs::directory_iterator(cache / "generate"))
        entries.push_back(e.path());
    EXPECT_EQ(entries.size(), 1u);
    return entries.empty() ? fs::path() : entries[0];
}

/// Replace `file`'s bytes and rewrite its manifest CRC line to match, so
/// only the kind's decode can tell.
void replace_payload_keeping_crc(const fs::path& entry, const std::string& file,
                                 const std::string& bytes) {
    const std::string old_crc = util::crc32_hex(util::crc32(slurp(entry / file)));
    spit(entry / file, bytes);
    std::string manifest = slurp(entry / "manifest.txt");
    const std::string line = "crc " + file + " ";
    const auto pos = manifest.find(line + old_crc);
    ASSERT_NE(pos, std::string::npos) << manifest;
    manifest.replace(pos + line.size(), old_crc.size(),
                     util::crc32_hex(util::crc32(bytes)));
    spit(entry / "manifest.txt", manifest);
}

/// True when some generate-stage warning of `ctx` says "recomputing" (and
/// contains `what`).
bool warned_recomputing(const CompileContext& ctx, const std::string& what = "") {
    for (const auto& d : ctx.diagnostics)
        if (d.severity == core::Diagnostic::Severity::kWarning &&
            d.stage == StageKind::kGenerate &&
            d.message.find("recomputing") != std::string::npos &&
            d.message.find(what) != std::string::npos)
            return true;
    return false;
}

TrainedArtifact tiny_trained() {
    TrainedArtifact a;
    auto m = std::make_shared<model::TrainedModel>(6, 2, 4);
    m->clause(0, 0).include_pos.set(1);
    m->clause(1, 1).include_neg.set(3);
    a.model = std::move(m);
    a.train_accuracy = 0.875;
    a.test_accuracy = 1.0 / 3.0;  // not exactly representable in decimal
    return a;
}

// ---------------------------------------------------------------------------
// Key slices
// ---------------------------------------------------------------------------

TEST(ArtifactStoreKeys, BackendHashIgnoresClockDeviceAndFrontendKnobs) {
    const FlowConfig base = small_config();
    const std::uint64_t model_hash = 0x1234abcdu;

    FlowConfig variant = base;
    variant.device = "z7045";
    variant.auto_frequency = false;
    variant.arch.clock_mhz = 55.0;
    variant.epochs += 3;
    variant.tm.seed = 999;
    variant.verify_vectors = 77;
    variant.cache_dir = "/elsewhere";
    EXPECT_EQ(core::backend_config_hash(base, model_hash),
              core::backend_config_hash(variant, model_hash));

    FlowConfig wider = base;
    wider.arch.bus_width = 16;
    EXPECT_NE(core::backend_config_hash(base, model_hash),
              core::backend_config_hash(wider, model_hash));

    FlowConfig unshared = base;
    unshared.strash = false;
    EXPECT_NE(core::backend_config_hash(base, model_hash),
              core::backend_config_hash(unshared, model_hash));

    EXPECT_NE(core::backend_config_hash(base, model_hash),
              core::backend_config_hash(base, model_hash + 1));
}

TEST(ArtifactStoreKeys, LintKeyFoldsInSubsystemVersion) {
    // Regression: the cached lint rung used to be keyed by the raw backend
    // hash alone, so lint code changes never invalidated old verdicts.  The
    // lint key must differ from the backend hash (it folds in
    // lint::kLintSubsystemVersion), so a store populated by the old scheme
    // can never serve a stale report to the new one.
    const FlowConfig cfg = small_config();
    const std::uint64_t model_hash = 0x1234abcdu;
    EXPECT_NE(core::lint_cache_key(cfg, model_hash),
              core::backend_config_hash(cfg, model_hash));
    // Still backend-sliced: same invariances as the backend hash.
    FlowConfig variant = cfg;
    variant.device = "other-part";
    variant.epochs += 3;
    EXPECT_EQ(core::lint_cache_key(cfg, model_hash),
              core::lint_cache_key(variant, model_hash));
    FlowConfig wider = cfg;
    wider.arch.bus_width *= 2;
    EXPECT_NE(core::lint_cache_key(cfg, model_hash),
              core::lint_cache_key(wider, model_hash));
}

TEST(ArtifactStoreKeys, ProofKeyFoldsInVersionAndInductionDepth) {
    const FlowConfig cfg = small_config();
    const std::uint64_t model_hash = 0x1234abcdu;
    EXPECT_NE(core::proof_cache_key(cfg, model_hash),
              core::backend_config_hash(cfg, model_hash));
    EXPECT_NE(core::proof_cache_key(cfg, model_hash),
              core::lint_cache_key(cfg, model_hash));
    // A different induction depth is a different proof.
    FlowConfig deeper = cfg;
    deeper.induction_k = 3;
    EXPECT_NE(core::proof_cache_key(cfg, model_hash),
              core::proof_cache_key(deeper, model_hash));
    // verify_sat itself is not part of the key (it only gates execution).
    FlowConfig gated = cfg;
    gated.verify_sat = true;
    EXPECT_EQ(core::proof_cache_key(cfg, model_hash),
              core::proof_cache_key(gated, model_hash));
}

TEST(ArtifactStoreDisk, StaleRawKeyedLintEntryIsNotServed) {
    // Simulate the pre-fix on-disk state: a lint report stored under the
    // raw backend hash.  A store queried with the versioned key must miss
    // it and recompute.
    TempDir dir("stale-lint");
    const FlowConfig cfg = small_config();
    const std::uint64_t model_hash = 0x77u;
    const auto old_key = core::backend_config_hash(cfg, model_hash);
    const auto new_key = core::lint_cache_key(cfg, model_hash);
    ASSERT_NE(old_key, new_key);

    core::LintArtifact stale;
    stale.report.findings.push_back(
        {lint::check::kParseError, lint::Severity::kError, "old", "", "stale"});
    {
        ArtifactStore store(dir.str());
        store.get_or_compute_lint(old_key, [&] { return stale; });
    }
    ArtifactStore store(dir.str());  // restart: disk tier only
    int computed = 0;
    const auto got = store.get_or_compute_lint(new_key, [&] {
        ++computed;
        return core::LintArtifact{};
    });
    EXPECT_EQ(computed, 1);
    EXPECT_TRUE(got.report.findings.empty());
}

TEST(ArtifactStoreDisk, ProofArtifactSurvivesStoreRestart) {
    TempDir dir("proof-disk");
    core::ProofArtifact a;
    a.report.equivalent = true;
    a.report.outputs_total = 3;
    a.report.outputs_proved = 3;
    a.report.induction_k = 1;
    a.report.induction_ok = true;
    a.report.totals.conflicts = 17;
    const std::uint64_t key = 0xfeedu;
    {
        ArtifactStore store(dir.str());
        store.get_or_compute_proof(key, [&] { return a; });
    }
    ArtifactStore store(dir.str());
    ArtifactTier tier = ArtifactTier::kNone;
    const auto got = store.get_or_compute_proof(
        key,
        [&]() -> core::ProofArtifact {
            ADD_FAILURE() << "proof recomputed despite disk entry";
            return {};
        },
        &tier);
    EXPECT_EQ(tier, ArtifactTier::kDisk);
    EXPECT_TRUE(got.report.equivalent);
    EXPECT_EQ(got.report.outputs_proved, 3u);
    EXPECT_EQ(got.report.totals.conflicts, 17u);
}

TEST(ArtifactStoreKeys, KeyHexIsStable16CharLowerHex) {
    EXPECT_EQ(core::key_hex(0), "0000000000000000");
    EXPECT_EQ(core::key_hex(0xDEADBEEF12345678ull), "deadbeef12345678");
}

// ---------------------------------------------------------------------------
// Memory tier
// ---------------------------------------------------------------------------

TEST(ArtifactStoreMemory, SingleFlightComputesOncePerKey) {
    ArtifactStore store;  // memory only
    std::atomic<int> computes{0};
    const auto fn = [&]() -> TrainedArtifact {
        computes++;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return tiny_trained();
    };

    std::vector<std::thread> pool;
    std::atomic<int> memory_hits{0};
    for (int t = 0; t < 6; ++t)
        pool.emplace_back([&] {
            ArtifactTier tier = ArtifactTier::kNone;
            const auto a = store.get_or_compute_trained(42, fn, &tier);
            ASSERT_TRUE(a.model);
            if (tier == ArtifactTier::kMemory) memory_hits++;
        });
    for (auto& th : pool) th.join();

    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(memory_hits.load(), 5);
    const auto s = store.stats();
    EXPECT_EQ(s.train.misses, 1u);
    EXPECT_EQ(s.train.memory_hits, 5u);
    EXPECT_EQ(s.train.disk_hits, 0u);
    EXPECT_EQ(s.train.memory_entries, 1u);
    EXPECT_EQ(s.train.disk_entries, 0u);  // not persistent
}

// ---------------------------------------------------------------------------
// Disk tier: trained models
// ---------------------------------------------------------------------------

TEST(ArtifactStoreDisk, TrainedArtifactSurvivesStoreRestart) {
    TempDir dir("trained-restart");
    const auto original = tiny_trained();
    {
        ArtifactStore store(dir.str());
        store.get_or_compute_trained(7, [&] { return original; });
        EXPECT_EQ(store.stats().train.disk_entries, 1u);
    }

    // "Restart": a fresh store over the same directory must serve the
    // artifact from disk without ever calling the compute function.
    ArtifactStore fresh(dir.str());
    ArtifactTier tier = ArtifactTier::kNone;
    const auto back = fresh.get_or_compute_trained(
        7,
        []() -> TrainedArtifact {
            ADD_FAILURE() << "disk hit expected; compute must not run";
            return {};
        },
        &tier);
    EXPECT_EQ(tier, ArtifactTier::kDisk);
    ASSERT_TRUE(back.model);
    EXPECT_EQ(*back.model, *original.model);
    EXPECT_EQ(back.train_accuracy, original.train_accuracy);  // exact (hexfloat)
    EXPECT_EQ(back.test_accuracy, original.test_accuracy);

    // Second lookup in the same process: memory tier.
    tier = ArtifactTier::kNone;
    fresh.get_or_compute_trained(7, [] { return TrainedArtifact{}; }, &tier);
    EXPECT_EQ(tier, ArtifactTier::kMemory);
    const auto s = fresh.stats();
    EXPECT_EQ(s.train.misses, 0u);
    EXPECT_EQ(s.train.disk_hits, 1u);
    EXPECT_EQ(s.train.memory_hits, 1u);
}

TEST(ArtifactStoreDisk, CorruptModelFileIsSkippedWithWarningAndRepaired) {
    TempDir dir("trained-corrupt");
    {
        ArtifactStore store(dir.str());
        store.get_or_compute_trained(7, [] { return tiny_trained(); });
    }
    // Poison the persisted model.
    const fs::path model_file =
        dir.path / "train" / core::key_hex(7) / "model.tm";
    ASSERT_TRUE(fs::exists(model_file));
    std::ofstream(model_file) << "MATADOR-TM v1\nfeatures garbage\n";

    ArtifactStore fresh(dir.str());
    std::vector<std::string> warnings;
    ArtifactTier tier = ArtifactTier::kMemory;
    int computes = 0;
    fresh.get_or_compute_trained(
        7,
        [&] {
            computes++;
            return tiny_trained();
        },
        &tier, [&](const std::string& w) { warnings.push_back(w); });
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(tier, ArtifactTier::kNone);  // recomputed, not trusted
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("recomputing"), std::string::npos);

    // The recompute rewrote the entry: a third store now loads cleanly.
    ArtifactStore again(dir.str());
    tier = ArtifactTier::kNone;
    again.get_or_compute_trained(7, [] { return TrainedArtifact{}; }, &tier);
    EXPECT_EQ(tier, ArtifactTier::kDisk);
}

TEST(ArtifactStoreDisk, FutureManifestVersionIsSkippedWithWarning) {
    // A future version, and the two older ones this build no longer reads
    // (v1 had no CRCs, v2 kept key/value records in the manifest): each is
    // recomputed with one warning and rewritten as the current version.
    TempDir dir("future-version");
    {
        ArtifactStore store(dir.str());
        store.get_or_compute_trained(9, [] { return tiny_trained(); });
    }
    const fs::path manifest =
        dir.path / "train" / core::key_hex(9) / "manifest.txt";
    for (const std::string version : {"v9", "v1", "v2"}) {
        std::string text = slurp(manifest);
        text.replace(0, text.find('\n'), "MATADOR-ARTIFACT " + version);
        spit(manifest, text);

        ArtifactStore fresh(dir.str());
        std::vector<std::string> warnings;
        ArtifactTier tier = ArtifactTier::kMemory;
        fresh.get_or_compute_trained(9, [] { return tiny_trained(); }, &tier,
                                     [&](const std::string& w) {
                                         warnings.push_back(w);
                                     });
        EXPECT_EQ(tier, ArtifactTier::kNone) << version;
        ASSERT_EQ(warnings.size(), 1u) << version;
        EXPECT_NE(warnings[0].find("format " + version), std::string::npos)
            << warnings[0];

        // Repaired: the next store loads the rewritten entry from disk.
        ArtifactStore again(dir.str());
        tier = ArtifactTier::kNone;
        again.get_or_compute_trained(9, [] { return TrainedArtifact{}; }, &tier);
        EXPECT_EQ(tier, ArtifactTier::kDisk) << version;
    }
}

TEST(ArtifactStoreDisk, ListAndClear) {
    TempDir dir("list-clear");
    ArtifactStore store(dir.str());
    store.get_or_compute_trained(1, [] { return tiny_trained(); });
    store.get_or_compute_trained(2, [] { return tiny_trained(); });

    const auto entries = store.list_disk();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].stage, "train");
    EXPECT_EQ(entries[0].key_hex, core::key_hex(1));
    EXPECT_EQ(entries[1].key_hex, core::key_hex(2));
    EXPECT_EQ(entries[0].files, 3u);  // manifest + model.tm + record.json
    EXPECT_EQ(entries[0].payloads.size(), 2u);
    EXPECT_GT(entries[0].bytes, 0u);

    const auto freed = store.clear_disk();
    EXPECT_GT(freed, 0u);
    EXPECT_TRUE(store.list_disk().empty());
    EXPECT_EQ(store.stats().train.disk_entries, 0u);
}

// ---------------------------------------------------------------------------
// Disk tier: generated RTL (through the full pipeline)
// ---------------------------------------------------------------------------

TEST(ArtifactStoreDisk, DiskServedRtlIsByteIdenticalToFreshRtl) {
    TempDir cache("rtl-identical-cache");
    TempDir rtl_a("rtl-identical-a");
    TempDir rtl_b("rtl-identical-b");
    const auto split = small_split();

    FlowConfig cfg = small_config();
    cfg.cache_dir = cache.str();
    cfg.rtl_output_dir = rtl_a.str();
    const CompileContext fresh_run =
        Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(fresh_run.ok()) << core::format_diagnostics(fresh_run);
    EXPECT_EQ(fresh_run.record(StageKind::kGenerate).status, StageStatus::kOk);
    ASSERT_FALSE(fresh_run.rtl_files.empty());

    // Restart: new store over the same cache, RTL into a different dir.
    cfg.rtl_output_dir = rtl_b.str();
    const CompileContext cached_run =
        Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(cached_run.ok()) << core::format_diagnostics(cached_run);
    EXPECT_EQ(cached_run.record(StageKind::kTrain).status, StageStatus::kCached);
    EXPECT_EQ(cached_run.record(StageKind::kTrain).tier, ArtifactTier::kDisk);
    EXPECT_EQ(cached_run.record(StageKind::kGenerate).status,
              StageStatus::kCached);
    EXPECT_EQ(cached_run.record(StageKind::kGenerate).tier, ArtifactTier::kDisk);

    ASSERT_EQ(fresh_run.rtl_files.size(), cached_run.rtl_files.size());
    for (std::size_t i = 0; i < fresh_run.rtl_files.size(); ++i) {
        EXPECT_EQ(slurp(fresh_run.rtl_files[i]), slurp(cached_run.rtl_files[i]))
            << fresh_run.rtl_files[i];
    }
    // And the cached run produced identical design metrics.
    EXPECT_EQ(fresh_run.hcb_mapped_luts, cached_run.hcb_mapped_luts);
    EXPECT_EQ(fresh_run.hcb_max_depth, cached_run.hcb_max_depth);
}

TEST(ArtifactStoreDisk, DontTouchDesignRoundTripsThroughDisk) {
    // strash=false AIGs contain deliberately duplicated AND nodes; the
    // disk roundtrip must preserve them one-to-one (no re-sharing on
    // parse), or LUT counts and RTL text would drift.
    TempDir cache("dont-touch-cache");
    const auto split = small_split();

    FlowConfig cfg = small_config();
    cfg.strash = false;
    cfg.cache_dir = cache.str();
    const CompileContext first = Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(first.ok()) << core::format_diagnostics(first);

    const CompileContext second = Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(second.ok()) << core::format_diagnostics(second);
    EXPECT_EQ(second.record(StageKind::kGenerate).status, StageStatus::kCached);
    EXPECT_EQ(second.record(StageKind::kGenerate).tier, ArtifactTier::kDisk);
    EXPECT_EQ(first.hcb_mapped_luts, second.hcb_mapped_luts);
    EXPECT_EQ(first.hcb_max_depth, second.hcb_max_depth);
}

TEST(ArtifactStoreDisk, PoisonedRtlEntryIsSkippedWithWarningNotACrash) {
    TempDir cache("rtl-poison-cache");
    const auto split = small_split();

    FlowConfig cfg = small_config();
    cfg.cache_dir = cache.str();
    const CompileContext first = Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(first.ok()) << core::format_diagnostics(first);

    // Poison one cached HCB: flip one byte of its AIGER payload.  The
    // manifest's CRC of the file no longer matches, so the entry is
    // rejected before any payload is decoded.
    const fs::path aig = only_generate_entry(cache.path) / "hcb_0.aig";
    std::string bytes = slurp(aig);
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() - 1] ^= char(0x01);
    spit(aig, bytes);

    const CompileContext second = Pipeline(cfg).run(split.train, split.test);
    // Train still rehydrates; generate must detect the corruption, warn,
    // and recompute - and the overall run still verifies.
    EXPECT_EQ(second.record(StageKind::kTrain).status, StageStatus::kCached);
    EXPECT_EQ(second.record(StageKind::kGenerate).status, StageStatus::kOk);
    ASSERT_TRUE(second.ok()) << core::format_diagnostics(second);
    EXPECT_TRUE(warned_recomputing(second, "CRC mismatch"))
        << core::format_diagnostics(second);
}

TEST(ArtifactStoreDisk, CorruptGenerateManifestLineIsSkippedAndHealed) {
    // A bit-rotted manifest line must yield the warn-and-recompute path,
    // never a read outside the entry or a stage that fails forever.
    TempDir cache("corrupt-line-cache");
    const auto split = small_split();

    FlowConfig cfg = small_config();
    cfg.cache_dir = cache.str();
    ASSERT_TRUE(Pipeline(cfg).run(split.train, split.test).ok());

    // The first crc line becomes: a payload name that leaves the entry, the
    // record line a v2 manifest carried, and a crc line with no CRC.
    for (const std::string bad : {"crc ../record.json 00000000",
                                  "active 18446744073709000000", "crc hcb_0.aig"}) {
        const fs::path manifest = only_generate_entry(cache.path) / "manifest.txt";
        std::string text = slurp(manifest);
        const auto pos = text.find("\ncrc ");
        ASSERT_NE(pos, std::string::npos);
        const auto eol = text.find('\n', pos + 1);
        text.replace(pos + 1, eol - pos - 1, bad);
        spit(manifest, text);

        const CompileContext ctx = Pipeline(cfg).run(split.train, split.test);
        ASSERT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
        EXPECT_EQ(ctx.record(StageKind::kGenerate).status, StageStatus::kOk) << bad;
        EXPECT_TRUE(warned_recomputing(ctx, "corrupt manifest line"))
            << core::format_diagnostics(ctx);

        // The recompute repaired the entry: the next run is cached again.
        const CompileContext healed = Pipeline(cfg).run(split.train, split.test);
        EXPECT_EQ(healed.record(StageKind::kGenerate).status, StageStatus::kCached)
            << bad;
    }
}

TEST(ArtifactStoreDisk, ForeignAigerPayloadFailsDecodeAndIsRepaired) {
    // Valid AIGER that is not what the entry's writer produced, with its
    // CRC line fixed up so only the generate decode can reject it: the same
    // HCB in ascii form (it does not re-export to its own bytes), and a
    // canonical one-gate AIG (it does not fit the HCB's spec).
    TempDir cache("foreign-aiger-cache");
    const auto split = small_split();

    FlowConfig cfg = small_config();
    cfg.cache_dir = cache.str();
    const CompileContext first = Pipeline(cfg).run(split.train, split.test);
    ASSERT_TRUE(first.ok()) << core::format_diagnostics(first);

    const fs::path entry = only_generate_entry(cache.path);
    const std::string ascii =
        logic::write_aiger_ascii(logic::read_aiger(slurp(entry / "hcb_0.aig")));
    for (const std::string& foreign : {ascii, std::string("aig 1 1 0 1 0\n2\n")}) {
        replace_payload_keeping_crc(entry, "hcb_0.aig", foreign);

        const CompileContext ctx = Pipeline(cfg).run(split.train, split.test);
        ASSERT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);
        EXPECT_EQ(ctx.record(StageKind::kGenerate).status, StageStatus::kOk);
        EXPECT_TRUE(warned_recomputing(ctx, "hcb_0.aig"))
            << core::format_diagnostics(ctx);
        EXPECT_FALSE(warned_recomputing(ctx, "CRC mismatch"))
            << core::format_diagnostics(ctx);
        EXPECT_EQ(ctx.hcb_mapped_luts, first.hcb_mapped_luts);

        // Repaired: the next run is served from disk.
        const CompileContext healed = Pipeline(cfg).run(split.train, split.test);
        EXPECT_EQ(healed.record(StageKind::kGenerate).tier, ArtifactTier::kDisk);
    }
}

TEST(ArtifactStoreDisk, DiskServedHcbsKeepTheirStrashFlag) {
    // Lint maps LUTs only for AIGs built with strash, so HCBs served from
    // disk must come back with the design's own flag: with the lint tier
    // deleted, lint recomputes on disk-served HCBs and must report exactly
    // what the fresh run reported.
    const auto split = small_split();
    for (const bool strash : {true, false}) {
        TempDir cache(strash ? "strash-on-cache" : "strash-off-cache");
        FlowConfig cfg = small_config();
        cfg.strash = strash;
        cfg.cache_dir = cache.str();
        const CompileContext fresh = Pipeline(cfg).run(split.train, split.test);
        ASSERT_TRUE(fresh.ok()) << core::format_diagnostics(fresh);
        ASSERT_TRUE(fresh.lint_report);

        fs::remove_all(cache.path / "lint");
        const CompileContext served = Pipeline(cfg).run(split.train, split.test);
        ASSERT_TRUE(served.ok()) << core::format_diagnostics(served);
        EXPECT_EQ(served.record(StageKind::kGenerate).tier, ArtifactTier::kDisk);
        ASSERT_TRUE(served.lint_report);
        EXPECT_EQ(lint::lint_report_to_json(*served.lint_report).dump(),
                  lint::lint_report_to_json(*fresh.lint_report).dump())
            << "strash=" << strash;
        EXPECT_EQ(served.lint_report->stats.luts.luts > 0, strash);
    }
}

// ---------------------------------------------------------------------------
// The acceptance criterion: restart + backend-only point => fully cached
// ---------------------------------------------------------------------------

TEST(ArtifactStoreDisk, RestartedBackendOnlyPointRunsNeitherTrainNorGenerate) {
    TempDir cache("restart-backend-only");
    const auto split = small_split();

    FlowConfig base = small_config();
    base.cache_dir = cache.str();
    {
        const CompileContext warmup =
            Pipeline(base).run(split.train, split.test);
        ASSERT_TRUE(warmup.ok()) << core::format_diagnostics(warmup);
        EXPECT_EQ(warmup.record(StageKind::kTrain).status, StageStatus::kOk);
        EXPECT_EQ(warmup.record(StageKind::kGenerate).status, StageStatus::kOk);
    }

    // "Process restart": a brand-new store over the existing directory,
    // and a backend-only variant (clock + device changed, nothing else).
    FlowConfig variant = base;
    variant.auto_frequency = false;
    variant.arch.clock_mhz = 55.0;
    variant.device = "z7045";
    auto store = std::make_shared<ArtifactStore>(cache.str());
    const CompileContext ctx =
        Pipeline(variant, store).run(split.train, split.test);
    ASSERT_TRUE(ctx.ok()) << core::format_diagnostics(ctx);

    EXPECT_EQ(ctx.record(StageKind::kTrain).status, StageStatus::kCached);
    EXPECT_EQ(ctx.record(StageKind::kTrain).tier, ArtifactTier::kDisk);
    EXPECT_EQ(ctx.record(StageKind::kGenerate).status, StageStatus::kCached);
    EXPECT_EQ(ctx.record(StageKind::kGenerate).tier, ArtifactTier::kDisk);

    const auto s = store->stats();
    EXPECT_EQ(s.train.misses, 0u);     // zero models trained
    EXPECT_EQ(s.generate.misses, 0u);  // zero HCB builds / LUT mappings
    EXPECT_EQ(s.train.disk_hits, 1u);
    EXPECT_EQ(s.generate.disk_hits, 1u);

    // The variant's own knobs still took effect.
    EXPECT_DOUBLE_EQ(ctx.arch->options.clock_mhz, 55.0);
}

TEST(ArtifactStoreDisk, RestartedSweepTrainsZeroModels) {
    TempDir cache("restart-sweep");
    const auto split = small_split();
    FlowConfig base = small_config();
    base.skip_rtl_verification = true;
    base.cache_dir = cache.str();

    const auto grid = core::expand_grid(base, {{"bus_width", {"8", "16"}}});
    const auto first = Pipeline::sweep(split.train, split.test, grid, {});
    EXPECT_EQ(first.store_stats.train.misses, 1u);
    EXPECT_EQ(first.store_stats.generate.misses, 2u);

    // Restarted sweep (fresh internal store, same cache_dir via config).
    const auto second = Pipeline::sweep(split.train, split.test, grid, {});
    for (const auto& p : second.points) EXPECT_TRUE(p.ok);
    EXPECT_EQ(second.store_stats.train.misses, 0u);
    EXPECT_EQ(second.store_stats.generate.misses, 0u);
    EXPECT_EQ(second.store_stats.train.disk_hits, 1u);
    EXPECT_EQ(second.store_stats.generate.disk_hits, 2u);

    // Same results either way.
    ASSERT_EQ(first.points.size(), second.points.size());
    for (std::size_t i = 0; i < first.points.size(); ++i) {
        EXPECT_DOUBLE_EQ(first.points[i].result.test_accuracy,
                         second.points[i].result.test_accuracy);
        EXPECT_EQ(first.points[i].result.resources.luts,
                  second.points[i].result.resources.luts);
    }
}

}  // namespace
