// ModelRegistry: the serving daemon's hot-loadable model catalogue.
//
// Every registered model is held as an immutable ServableModel - the
// TrainedModel plus its pre-compiled infer::BatchEngine - behind a
// shared_ptr, keyed by the model's 64-bit content hash (the same hash the
// artifact store keys backend artifacts with).  Aliases ("default", a
// sweep candidate's nickname) map names onto hashes and can be re-pointed
// atomically: resolve() hands out a shared_ptr snapshot, so requests that
// are already in flight keep scoring against the engine they started with
// while new requests see the swapped target.  The old engine is freed when
// its last in-flight batch drops the reference - a lock-free drain, no
// request is ever dropped by a swap.
//
// Models come from three places:
//   * add()        - an in-memory TrainedModel (tests, train-then-serve),
//   * load_file()  - a .tm file on disk,
//   * the ArtifactStore: scan_store() lists the store's train entries and
//     reads each through the store's own verified reader (manifest, CRCs,
//     decode), indexing every cached model by content hash, so `load
//     <hash>` hot-loads any model a sweep ever trained without retraining
//     or re-pathing anything.  A corrupt entry is skipped, never served.
//
// Degraded mode: every hot-load / swap target carries a per-model
// error-budget circuit breaker.  A failed load (corrupt .tm, missing store
// entry, bad hash) burns one unit of the target's budget; once the budget
// is spent the target is QUARANTINED - check_quarantine() throws a typed
// ServeError(kDegraded) carrying the remaining cooldown as retry_after_ms,
// and the daemon answers load/swap/predict for that target with a degraded
// reply instead of re-attempting a load that just failed.  Aliases are only
// re-pointed after a successful resolve, so a quarantined swap target
// leaves the alias on its last good servable.  After the cooldown the
// breaker half-opens: one probe attempt is admitted, and its outcome either
// clears the breaker or re-opens it immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "infer/engine.hpp"
#include "model/trained_model.hpp"
#include "util/json.hpp"

namespace matador::serve {

/// An immutable, ready-to-score model: shared by the registry, in-flight
/// batches, and metrics attribution.
struct ServableModel {
    model::TrainedModel model;
    infer::BatchEngine engine;
    std::uint64_t content_hash = 0;
    std::string hash_hex;  ///< 16-char lower-case form (wire / display)
    std::string source;    ///< file path, store entry, or "(memory)"

    ServableModel(model::TrainedModel m, std::string from);
};

class ModelRegistry {
public:
    /// `cache_dir` empty => no artifact store to scan (add/load_file only).
    explicit ModelRegistry(std::string cache_dir = "");

    /// Register an in-memory model; returns the (possibly pre-existing)
    /// servable for its content hash.  Compilation happens outside the
    /// registry lock, so serving never stalls behind a load.
    std::shared_ptr<const ServableModel> add(model::TrainedModel m,
                                             std::string source = "(memory)");

    /// Load and register a .tm file.  Throws std::runtime_error on a
    /// missing/corrupt file (TrainedModel::load_file's diagnosis).
    std::shared_ptr<const ServableModel> load_file(const std::string& path);

    /// Register every model in the artifact store's train tier, read and
    /// verified by the store itself.  Entries that fail the store's checks
    /// are skipped and reported through `warn`.  Returns the number of
    /// models the scan added.
    std::size_t scan_store(
        const std::function<void(const std::string&)>& warn = {});

    /// Point `alias` at the model matching `target` (alias, full hash, or
    /// unique hash prefix).  Atomic: concurrent resolve() sees either the
    /// old or the new target, never a gap.  Throws ServeError
    /// (kUnknownModel) when nothing matches.
    void set_alias(const std::string& alias, const std::string& target);

    /// Resolve an alias, a full 16-hex-char hash, or a unique hash prefix
    /// to its servable.  The returned shared_ptr is the caller's handoff:
    /// it stays valid across swaps and unloads.  Throws ServeError
    /// (kUnknownModel) with the candidate list on no / ambiguous match.
    std::shared_ptr<const ServableModel> resolve(const std::string& name) const;

    /// Drop a model (and any aliases pointing at it) from the catalogue.
    /// In-flight holders keep their reference; returns false when `name`
    /// resolves to nothing.
    bool remove(const std::string& name);

    struct Entry {
        std::string hash_hex;
        std::string source;
        std::vector<std::string> aliases;
        std::size_t num_features = 0;
        std::size_t num_classes = 0;
        std::size_t live_clauses = 0;
    };
    /// Catalogue snapshot, hash order; aliases listed on their target.
    std::vector<Entry> list() const;

    // ---- error-budget circuit breaker (degraded mode) -------------------

    struct BreakerOptions {
        /// Consecutive load failures a target may burn before quarantine.
        std::size_t error_budget = 3;
        /// How long a quarantined target stays closed to new attempts.
        double cooldown_ms = 5000.0;
    };
    /// Snapshot of one target's breaker (serve-status v3 "breakers").
    struct BreakerState {
        std::string key;            ///< load/swap target the failures hit
        std::size_t failures = 0;   ///< consecutive failures so far
        bool open = false;          ///< quarantined right now
        double retry_after_ms = 0;  ///< remaining cooldown (0 when closed)
        std::string last_error;
    };

    void set_breaker_options(BreakerOptions options);
    /// Throws ServeError(kDegraded, ..., retry_after_ms) while `key` is
    /// quarantined; past the cooldown the breaker half-opens and the call
    /// is admitted as the probe attempt.
    void check_quarantine(const std::string& key);
    /// One failed load/swap of `key`: burns budget, opens on exhaustion.
    void record_load_failure(const std::string& key, const std::string& error);
    /// One successful load/swap of `key`: clears its breaker entirely.
    void record_load_success(const std::string& key);
    /// Every target with breaker state, key order.
    std::vector<BreakerState> breakers() const;
    /// breakers() as the serve-status v3 "breakers" JSON array.
    util::Json breakers_json() const;

    std::size_t size() const;
    const std::string& cache_dir() const { return cache_dir_; }

private:
    /// Hash-keyed lookup without alias indirection; nullptr when absent.
    std::shared_ptr<const ServableModel> find_hash_locked(
        const std::string& hex_or_prefix) const;

    struct Breaker {
        std::size_t failures = 0;
        bool open = false;
        std::chrono::steady_clock::time_point opened_at{};
        std::string last_error;
    };

    std::string cache_dir_;
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<const ServableModel>> models_;
    std::map<std::string, std::string> aliases_;  ///< alias -> hash_hex
    BreakerOptions breaker_options_;
    std::map<std::string, Breaker> breakers_;  ///< target key -> breaker
};

}  // namespace matador::serve
