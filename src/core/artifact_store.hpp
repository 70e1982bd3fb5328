// ArtifactStore: two-tier, stage-scoped caching of expensive pipeline
// artifacts, keyed by per-stage slices of the FlowConfig.
//
// Design-space sweeps (Table I ablations) re-run the Fig. 6 flow hundreds
// of times while varying only backend knobs.  Each stage's artifact depends
// on a distinct config slice:
//
//   train    -> frontend_config_hash (TM hyperparameters + epochs) plus the
//               dataset fingerprints: the TrainedArtifact,
//   generate -> backend_config_hash (model content hash + bus_width +
//               strash): the GeneratedArtifact (HCB AIGs + LUT mapping) -
//               clock and device do NOT enter the key, so clock/device-only
//               sweep points skip HCB construction and mapping entirely,
//   lint     -> lint_cache_key (the backend hash + lint version): the
//               LintArtifact (static-analysis report of the design),
//   proof    -> proof_cache_key (the backend hash + SAT version +
//               induction_k): the ProofArtifact (SAT equivalence report).
//
// Each stage slot is backed by two tiers:
//
//   memory - thread-safe and single-flight: concurrent sweep workers asking
//            for the same key block until the first has computed, then
//            share the result (the compute runs exactly once per key),
//   disk   - optional (cache_dir != ""), one directory per entry,
//            <cache_dir>/<stage>/<hash16>/, written and read by one codec:
//            a manifest (format version, stage, key, one CRC-32 per payload
//            file) beside the payload files.  Each artifact kind encodes to
//            named payloads and decodes from them: models as .tm files,
//            records and reports as JSON, HCB netlists as binary AIGER read
//            back under the design's own strash flag and trusted only if
//            they re-export to the same bytes.  Corrupt, truncated, foreign
//            or other-version entries are skipped with a warning (reported
//            through the optional warn sink) and recomputed - never
//            trusted - and the recompute rewrites them.
//
// A store outlives any single pipeline: sweeps share one across workers,
// and a fresh process pointed at the same cache_dir rehydrates from disk
// and trains / generates zero artifacts for known keys.  Nothing else reads
// the disk layout: other code lists entries with list_disk() and reads
// models with read_trained().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/flow.hpp"
#include "data/dataset.hpp"
#include "lint/lint.hpp"
#include "model/trained_model.hpp"
#include "rtl/hcb_builder.hpp"
#include "sat/prove.hpp"
#include "train/fit.hpp"

namespace matador::core {

/// Streaming FNV-1a hasher for building cache keys out of config fields
/// and dataset fingerprints.
class Fnv1a {
public:
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    std::uint64_t digest() const { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Hash of the FlowConfig slice the front end (training) depends on.
/// Two configs with equal front-end hashes train identical models.
std::uint64_t frontend_config_hash(const FlowConfig& cfg);

/// Hash of the slice the generate stage depends on: the trained model's
/// content hash plus bus_width and strash.  Clock, device, and every other
/// backend knob are deliberately excluded - HCB AIGs and LUT mapping do
/// not depend on them.
std::uint64_t backend_config_hash(const FlowConfig& cfg, std::uint64_t model_hash);

/// Cache key of the lint rung: the backend hash folded with the lint
/// subsystem's version.  A cached verdict is only as good as the checker
/// that produced it - keying by the backend hash alone (the pre-PR-9 bug)
/// kept serving stale verdicts across lint code changes.
std::uint64_t lint_cache_key(const FlowConfig& cfg, std::uint64_t model_hash);

/// Cache key of the proof tier: backend hash + SAT subsystem version +
/// the prove knobs that shape the verdict (induction_k).
std::uint64_t proof_cache_key(const FlowConfig& cfg, std::uint64_t model_hash);

/// Stable content fingerprint of a dataset (shape, labels, feature bits).
std::uint64_t dataset_fingerprint(const data::Dataset& ds);

/// 16-char lower-case hex form of a key (the on-disk entry directory name).
std::string key_hex(std::uint64_t key);

/// Which tier served an artifact.
enum class ArtifactTier {
    kNone,    ///< computed fresh (cache miss, or no store)
    kMemory,  ///< served from the in-process memory tier
    kDisk,    ///< rehydrated from the on-disk tier
};

const char* tier_name(ArtifactTier t);

/// The train stage's artifact set.
struct TrainedArtifact {
    std::shared_ptr<const model::TrainedModel> model;
    double train_accuracy = 0.0;
    double test_accuracy = 0.0;
    /// How the model was trained (epochs run, stop reason, accuracy
    /// history).  Persisted with the model so disk-rehydrated runs report
    /// the same training record as the run that produced the entry;
    /// threads_used records the producing run only.
    train::FitReport fit;
};

/// The lint rung's artifact: the full static-analysis report of the
/// generated design.  Keyed by the same backend hash as the generate
/// stage - lint depends on exactly the inputs that shape the netlists
/// (model content, bus_width, strash) and on nothing else.
struct LintArtifact {
    lint::LintReport report;
};

/// The proof tier's artifact: the full SAT equivalence report (per-output
/// verdicts with self-checked traces, induction cases, solver stats),
/// persisted as JSON.  Keyed by proof_cache_key.
struct ProofArtifact {
    sat::ProveReport report;
};

/// The generate stage's expensive artifact set: the HCB AIG netlists and
/// their LUT-mapping summary.  Module emission and timing are cheap and
/// are re-derived per pipeline run (they also depend on the clock, which
/// is outside the backend key).
struct GeneratedArtifact {
    std::shared_ptr<const std::vector<rtl::HcbNetlist>> hcbs;
    std::size_t hcb_mapped_luts = 0;
    unsigned hcb_max_depth = 0;
    bool strash = true;  ///< how the AIGs were built (drives disk roundtrip)
};

/// Thread-safe, single-flight, two-tier artifact store.
class ArtifactStore {
public:
    /// Sink for non-fatal warnings (corrupt / unreadable disk entries).
    using WarnFn = std::function<void(const std::string&)>;

    /// The store's stages, in pipeline order.  Each names its disk
    /// directory (<cache_dir>/<stage>/) and its counters in Stats.
    static constexpr std::array<const char*, 4> kStages = {"train", "generate",
                                                           "lint", "proof"};

    /// Per-stage hit/miss/entry counters, split by tier.
    struct TierStats {
        std::size_t memory_hits = 0;  ///< served from a finished memory slot
        std::size_t disk_hits = 0;    ///< rehydrated from the disk tier
        std::size_t misses = 0;       ///< the compute function ran
        std::size_t memory_entries = 0;
        std::size_t disk_entries = 0;
        std::size_t hits() const { return memory_hits + disk_hits; }
    };
    struct Stats {
        TierStats train;
        TierStats generate;
        TierStats lint;
        TierStats proof;

        /// The counters of one of kStages; throws std::out_of_range for
        /// any other name.
        TierStats& operator[](std::string_view stage) {
            TierStats* tiers[] = {&train, &generate, &lint, &proof};
            for (std::size_t i = 0; i < kStages.size(); ++i)
                if (stage == kStages[i]) return *tiers[i];
            throw std::out_of_range("artifact store: no stage '" +
                                    std::string(stage) + "'");
        }
        const TierStats& operator[](std::string_view stage) const {
            return const_cast<Stats&>(*this)[stage];
        }
        /// Call fn(stage, counters) for every stage, in kStages order.
        template <typename Fn>
        void for_each(Fn&& fn) {
            for (const char* stage : kStages) fn(stage, (*this)[stage]);
        }
        template <typename Fn>
        void for_each(Fn&& fn) const {
            for (const char* stage : kStages) fn(stage, (*this)[stage]);
        }
    };

    /// One on-disk entry (for `matador cache ls` / stats).
    struct DiskEntry {
        std::string stage;    ///< one of kStages
        std::uint64_t key = 0;
        std::string key_hex;  ///< 16-char entry directory name
        std::string path;     ///< the entry directory
        /// Paths of the entry's payload files (every file but the
        /// manifest), sorted.
        std::vector<std::string> payloads;
        std::uintmax_t bytes = 0;
        std::size_t files = 0;
    };

    /// `cache_dir` empty => memory tier only.
    explicit ArtifactStore(std::string cache_dir = "");

    const std::string& cache_dir() const { return dir_; }
    bool persistent() const { return !dir_.empty(); }

    /// Return the artifact for `key`, computing it with `fn` on first
    /// request.  Lookup order: memory tier, disk tier, compute.  Concurrent
    /// callers with the same key block until the first finishes; `fn` runs
    /// exactly once per key per process (and zero times when the disk tier
    /// already holds the entry).  `served` (when non-null) receives the
    /// tier that satisfied the call; `warn` receives non-fatal diagnostics
    /// about skipped disk entries.
    TrainedArtifact get_or_compute_trained(
        std::uint64_t key, const std::function<TrainedArtifact()>& fn,
        ArtifactTier* served = nullptr, const WarnFn& warn = {});

    GeneratedArtifact get_or_compute_generated(
        std::uint64_t key, const std::function<GeneratedArtifact()>& fn,
        ArtifactTier* served = nullptr, const WarnFn& warn = {});

    LintArtifact get_or_compute_lint(
        std::uint64_t key, const std::function<LintArtifact()>& fn,
        ArtifactTier* served = nullptr, const WarnFn& warn = {});

    ProofArtifact get_or_compute_proof(
        std::uint64_t key, const std::function<ProofArtifact()>& fn,
        ArtifactTier* served = nullptr, const WarnFn& warn = {});

    /// Read one train entry from the disk tier alone, verified like any
    /// disk hit but touching neither the memory tier nor the counters.
    /// nullopt when there is no such entry; throws when it is corrupt.
    std::optional<TrainedArtifact> read_trained(std::uint64_t key) const;

    Stats stats() const;

    /// Enumerate the disk tier (empty when not persistent).
    std::vector<DiskEntry> list_disk() const;

    /// Remove every disk entry; returns the number of bytes freed.
    std::uintmax_t clear_disk();

private:
    /// A stage's name and counters, whatever its artifact type.
    struct StageCounters {
        explicit StageCounters(const char* stage_name) : name(stage_name) {}
        const char* name;
        std::atomic<std::size_t> memory_hits{0};
        std::atomic<std::size_t> disk_hits{0};
        std::atomic<std::size_t> misses{0};
        std::atomic<std::size_t> memory_entries{0};  ///< computed slots
    };
    template <typename T>
    struct StageSlots : StageCounters {
        using StageCounters::StageCounters;
        struct Slot {
            std::mutex mu;
            bool computed = false;  ///< guarded by mu
            T artifact;
        };
        std::mutex mu;
        std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> slots;
    };

    template <typename T>
    T get_or_compute(StageSlots<T>& stage, std::uint64_t key,
                     const std::function<T()>& fn, ArtifactTier* served,
                     const WarnFn& warn);

    std::string dir_;
    StageSlots<TrainedArtifact> train_{kStages[0]};
    StageSlots<GeneratedArtifact> generate_{kStages[1]};
    StageSlots<LintArtifact> lint_{kStages[2]};
    StageSlots<ProofArtifact> proof_{kStages[3]};
    /// The stages in kStages order.
    const std::array<const StageCounters*, 4> stages_{&train_, &generate_,
                                                      &lint_, &proof_};
};

}  // namespace matador::core
