#include "serve/registry.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/artifact_store.hpp"
#include "serve/error.hpp"

namespace matador::serve {

ServableModel::ServableModel(model::TrainedModel m, std::string from)
    : model(std::move(m)),
      engine(model),
      content_hash(model.content_hash()),
      hash_hex(core::key_hex(content_hash)),
      source(std::move(from)) {}

ModelRegistry::ModelRegistry(std::string cache_dir)
    : cache_dir_(std::move(cache_dir)) {}

std::shared_ptr<const ServableModel> ModelRegistry::add(model::TrainedModel m,
                                                        std::string source) {
    // Compile outside the lock: BatchEngine construction is the expensive
    // part and must not block concurrent resolve() calls.
    auto servable =
        std::make_shared<const ServableModel>(std::move(m), std::move(source));
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = models_.try_emplace(servable->hash_hex, servable);
    return inserted ? servable : it->second;  // same hash: identical model
}

std::shared_ptr<const ServableModel> ModelRegistry::load_file(
    const std::string& path) {
    return add(model::TrainedModel::load_file(path), path);
}

std::size_t ModelRegistry::scan_store(
    const std::function<void(const std::string&)>& warn) {
    if (cache_dir_.empty()) return 0;
    const core::ArtifactStore store(cache_dir_);
    std::size_t added = 0;
    for (const auto& entry : store.list_disk()) {  // key order
        if (entry.stage != "train") continue;
        try {
            const auto artifact = store.read_trained(entry.key);
            if (!artifact) throw std::runtime_error("entry has no manifest");
            const std::size_t before = size();
            add(*artifact->model, entry.path);
            added += size() > before;
        } catch (const std::exception& e) {
            if (warn) warn("skipping " + entry.path + ": " + e.what());
        }
    }
    return added;
}

std::shared_ptr<const ServableModel> ModelRegistry::find_hash_locked(
    const std::string& hex_or_prefix) const {
    if (hex_or_prefix.empty()) return nullptr;
    const auto exact = models_.find(hex_or_prefix);
    if (exact != models_.end()) return exact->second;
    // Unique-prefix match (map order makes the scan a contiguous range).
    std::shared_ptr<const ServableModel> found;
    for (auto it = models_.lower_bound(hex_or_prefix);
         it != models_.end() && it->first.rfind(hex_or_prefix, 0) == 0; ++it) {
        if (found) return nullptr;  // ambiguous
        found = it->second;
    }
    return found;
}

void ModelRegistry::set_alias(const std::string& alias,
                              const std::string& target) {
    const auto servable = resolve(target);
    std::lock_guard<std::mutex> lock(mu_);
    aliases_[alias] = servable->hash_hex;
}

std::shared_ptr<const ServableModel> ModelRegistry::resolve(
    const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto alias = aliases_.find(name);
    const std::string& key = alias == aliases_.end() ? name : alias->second;
    if (auto servable = find_hash_locked(key)) return servable;

    std::string known;
    for (const auto& [hash, servable] : models_) {
        if (!known.empty()) known += ", ";
        known += hash;
    }
    for (const auto& [a, hash] : aliases_) known += ", " + a + "->" + hash;
    throw ServeError(ErrorCode::kUnknownModel,
                     "no model matches '" + name + "'" +
                         (known.empty() ? " (registry is empty)"
                                        : " (known: " + known + ")"));
}

bool ModelRegistry::remove(const std::string& name) {
    std::shared_ptr<const ServableModel> servable;
    try {
        servable = resolve(name);
    } catch (const ServeError&) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    models_.erase(servable->hash_hex);
    for (auto it = aliases_.begin(); it != aliases_.end();)
        it = it->second == servable->hash_hex ? aliases_.erase(it)
                                              : std::next(it);
    return true;
}

std::vector<ModelRegistry::Entry> ModelRegistry::list() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Entry> out;
    out.reserve(models_.size());
    for (const auto& [hash, servable] : models_) {
        Entry e;
        e.hash_hex = hash;
        e.source = servable->source;
        e.num_features = servable->model.num_features();
        e.num_classes = servable->model.num_classes();
        e.live_clauses = servable->engine.live_clauses();
        for (const auto& [alias, target] : aliases_)
            if (target == hash) e.aliases.push_back(alias);
        out.push_back(std::move(e));
    }
    return out;
}

std::size_t ModelRegistry::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return models_.size();
}

void ModelRegistry::set_breaker_options(BreakerOptions options) {
    std::lock_guard<std::mutex> lock(mu_);
    breaker_options_ = options;
}

void ModelRegistry::check_quarantine(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = breakers_.find(key);
    if (it == breakers_.end() || !it->second.open) return;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - it->second.opened_at)
            .count();
    const double remaining_ms = breaker_options_.cooldown_ms - elapsed_ms;
    if (remaining_ms > 0.0)
        throw ServeError(ErrorCode::kDegraded,
                         "'" + key + "' is quarantined after " +
                             std::to_string(it->second.failures) +
                             " consecutive load failure(s); last: " +
                             it->second.last_error,
                         remaining_ms);
    // Cooldown over: half-open.  Admit this call as the probe; one more
    // failure re-opens immediately, a success clears the breaker.
    it->second.open = false;
    it->second.failures = breaker_options_.error_budget == 0
                              ? 0
                              : breaker_options_.error_budget - 1;
}

void ModelRegistry::record_load_failure(const std::string& key,
                                        const std::string& error) {
    std::lock_guard<std::mutex> lock(mu_);
    Breaker& b = breakers_[key];
    ++b.failures;
    b.last_error = error;
    if (b.failures >= breaker_options_.error_budget) {
        b.open = true;
        b.opened_at = std::chrono::steady_clock::now();
    }
}

void ModelRegistry::record_load_success(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    breakers_.erase(key);
}

std::vector<ModelRegistry::BreakerState> ModelRegistry::breakers() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<BreakerState> out;
    out.reserve(breakers_.size());
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [key, b] : breakers_) {
        BreakerState s;
        s.key = key;
        s.failures = b.failures;
        s.last_error = b.last_error;
        if (b.open) {
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(now - b.opened_at)
                    .count();
            const double remaining_ms =
                breaker_options_.cooldown_ms - elapsed_ms;
            s.open = remaining_ms > 0.0;
            s.retry_after_ms = std::max(0.0, remaining_ms);
        }
        out.push_back(std::move(s));
    }
    return out;
}

util::Json ModelRegistry::breakers_json() const {
    util::Json arr = util::Json::array();
    for (const auto& s : breakers()) {
        util::Json e = util::Json::object();
        e.set("model", s.key);
        e.set("failures", double(s.failures));
        e.set("open", s.open);
        e.set("retry_after_ms", s.retry_after_ms);
        e.set("last_error", s.last_error);
        arr.push_back(std::move(e));
    }
    return arr;
}

}  // namespace matador::serve
