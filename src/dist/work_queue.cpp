#include "dist/work_queue.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "core/artifact_store.hpp"
#include "core/sweep.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "util/fsio.hpp"

namespace fs = std::filesystem;

namespace matador::dist {

namespace {

using util::Json;
using util::read_file;
using util::write_file_atomic;

constexpr const char* kGridFormat = "matador-sweep-grid";

std::string sanitize_owner(const std::string& owner) {
    std::string out;
    for (const char c : owner) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                          c == '.';
        out += safe ? c : '_';
    }
    if (out.empty()) throw std::invalid_argument("WorkQueue: empty owner id");
    return out;
}

std::string index_name(std::size_t index) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%08zu", index);
    return buf;
}

bool lease_expired(const fs::path& lease, double timeout_seconds) {
    std::error_code ec;
    const auto mtime = fs::last_write_time(lease, ec);
    if (ec) return false;  // vanished mid-scan: somebody else acted on it
    const auto age = fs::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count() > timeout_seconds;
}

}  // namespace

std::optional<std::size_t> parse_queue_index(const std::string& filename) {
    std::size_t i = 0;
    while (i < filename.size() && filename[i] >= '0' && filename[i] <= '9') ++i;
    if (i == 0) return std::nullopt;
    try {
        return std::stoul(filename.substr(0, i));
    } catch (...) {  // out_of_range: digits, but no queue index
        return std::nullopt;
    }
}

std::string parse_lease_owner(const std::string& filename) {
    const auto first = filename.find('.');
    const auto suffix = filename.rfind(".lease");
    if (first == std::string::npos || suffix == std::string::npos ||
        suffix <= first)
        return "";
    return filename.substr(first + 1, suffix - first - 1);
}

// ---------------------------------------------------------------------------
// GridManifest
// ---------------------------------------------------------------------------

GridManifest GridManifest::from_grid(const std::vector<core::FlowConfig>& grid,
                                     const data::Dataset& train,
                                     const data::Dataset& test) {
    GridManifest m;
    m.grid_hash = core::grid_content_hash(grid);
    m.train_fingerprint = core::dataset_fingerprint(train);
    m.test_fingerprint = core::dataset_fingerprint(test);
    m.config_texts.reserve(grid.size());
    for (const auto& cfg : grid)
        m.config_texts.push_back(core::flow_config_to_text(cfg));
    return m;
}

std::vector<core::FlowConfig> GridManifest::to_grid() const {
    std::vector<core::FlowConfig> grid;
    grid.reserve(config_texts.size());
    for (const auto& text : config_texts)
        grid.push_back(core::flow_config_from_text(text));
    return grid;
}

util::Json GridManifest::to_json() const {
    Json j = Json::object();
    j.set("format", kGridFormat);
    j.set("version", Json(double(core::kSweepJsonVersion)));
    j.set("grid_hash", core::key_hex(grid_hash));
    j.set("train_fingerprint", core::key_hex(train_fingerprint));
    j.set("test_fingerprint", core::key_hex(test_fingerprint));
    Json configs = Json::array();
    for (const auto& text : config_texts) configs.push_back(Json(text));
    j.set("configs", std::move(configs));
    return j;
}

GridManifest GridManifest::from_json(const util::Json& j) {
    if (j.at("format").as_string() != kGridFormat)
        throw std::runtime_error("work queue: grid.json is not a " +
                                 std::string(kGridFormat) + " document");
    const std::size_t version = j.at("version").as_count();
    if (version == 0 || version > core::kSweepJsonVersion)
        throw std::runtime_error(
            "work queue: grid.json v" + std::to_string(version) +
            " is not supported (this build reads up to v" +
            std::to_string(core::kSweepJsonVersion) + ")");
    GridManifest m;
    m.grid_hash = std::stoull(j.at("grid_hash").as_string(), nullptr, 16);
    m.train_fingerprint =
        std::stoull(j.at("train_fingerprint").as_string(), nullptr, 16);
    m.test_fingerprint =
        std::stoull(j.at("test_fingerprint").as_string(), nullptr, 16);
    for (const Json& c : j.at("configs").as_array())
        m.config_texts.push_back(c.as_string());
    return m;
}

// ---------------------------------------------------------------------------
// WorkQueue
// ---------------------------------------------------------------------------

WorkQueue::WorkQueue(const std::string& cache_dir, const GridManifest& grid,
                     const std::string& owner, WorkQueueOptions options)
    : cache_dir_(cache_dir),
      grid_(grid),
      owner_(sanitize_owner(owner)),
      options_(options) {
    if (cache_dir_.empty())
        throw std::invalid_argument("WorkQueue: cache_dir must be set");
    if (grid_.size() == 0)
        throw std::invalid_argument("WorkQueue: empty grid");
    init_or_verify();
}

std::string WorkQueue::queue_dir() const {
    return (fs::path(cache_dir_) / "queue").string();
}

bool WorkQueue::exists(const std::string& cache_dir) {
    return fs::exists(fs::path(cache_dir) / "queue" / "grid.json");
}

void WorkQueue::reset(const std::string& cache_dir) {
    fs::remove_all(fs::path(cache_dir) / "queue");
}

void WorkQueue::init_or_verify() {
    const fs::path queue = queue_dir();
    if (!fs::exists(queue / "grid.json")) {
        // Build the complete tree under a temp name, then publish it with
        // one rename.  If another shard wins the race our rename fails and
        // we fall through to the verification below.
        const fs::path tmp =
            fs::path(cache_dir_) / ("queue.tmp." + owner_);
        fs::remove_all(tmp);
        fs::create_directories(tmp / "todo");
        fs::create_directories(tmp / "leases");
        fs::create_directories(tmp / "done");
        fs::create_directories(tmp / "attempts");
        fs::create_directories(tmp / "failed");
        fs::create_directories(tmp / "stats");
        {
            std::ofstream out(tmp / "grid.json");
            out << grid_.to_json().dump(2) << "\n";
            if (!out) throw std::runtime_error("work queue: cannot write " +
                                               (tmp / "grid.json").string());
        }
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            std::ofstream task(tmp / "todo" / (index_name(i) + ".task"));
            // A missing task file would make its grid point unclaimable
            // forever (every shard would poll until an external timeout):
            // fail the init instead of publishing a partial queue.
            if (!task)
                throw std::runtime_error("work queue: cannot create todo entry " +
                                         std::to_string(i) + " under " +
                                         tmp.string());
        }
        // Crash here and the half-built queue.tmp.<owner> tree is exactly
        // the debris `matador cache gc` collects; no other shard ever
        // reads it (only the published `queue/` name is looked up).
        fault::FsHooks::instance().crash_point("queue.init.pre-publish");
        std::error_code ec;
        fs::rename(tmp, queue, ec);
        if (ec) fs::remove_all(tmp);  // lost the race (or the dir reappeared)
    }

    const GridManifest existing =
        GridManifest::from_json(Json::parse(read_file((queue / "grid.json").string())));
    if (existing.grid_hash != grid_.grid_hash ||
        existing.size() != grid_.size())
        throw std::runtime_error(
            "work queue: " + queue.string() +
            " was initialized for a different sweep grid (hash " +
            core::key_hex(existing.grid_hash) + " != " +
            core::key_hex(grid_.grid_hash) +
            "); run 'matador sweep --shards' to start a fresh epoch or point "
            "the shards at another --cache-dir");
    if (existing.train_fingerprint != grid_.train_fingerprint ||
        existing.test_fingerprint != grid_.test_fingerprint)
        throw std::runtime_error(
            "work queue: " + queue.string() +
            " was initialized for different datasets (fingerprints differ); "
            "all shards of one sweep must load identical data");
}

std::optional<std::size_t> WorkQueue::claim_from_todo() {
    const fs::path todo = fs::path(queue_dir()) / "todo";
    std::vector<std::pair<std::size_t, fs::path>> candidates;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(todo, ec)) {
        const auto index = parse_queue_index(entry.path().filename().string());
        if (index && *index < grid_.size()) candidates.emplace_back(*index, entry.path());
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [index, path] : candidates) {
        std::error_code rename_ec;
        fs::rename(path, lease_path(index), rename_ec);
        if (rename_ec) continue;  // another shard won this index
        // Death here leaves a lease stamped with the todo file's mtime
        // (queue-init time): already expired, immediately stealable.
        fault::FsHooks::instance().crash_point("queue.claim.post-rename");
        touch_lease(index);
        std::lock_guard<std::mutex> lock(mu_);
        held_.insert(index);
        return index;
    }
    return std::nullopt;
}

void WorkQueue::touch_lease(std::size_t index) const {
    // rename() preserves the source mtime (queue-init time for todo files,
    // the victim's last heartbeat for steals), which would make a freshly
    // claimed lease look expired; stamp it now.
    std::error_code ec;
    fs::last_write_time(lease_path(index), fs::file_time_type::clock::now(), ec);
}

std::optional<std::size_t> WorkQueue::claim_stolen() {
    const fs::path queue = queue_dir();
    const fs::path leases = queue / "leases";
    std::vector<std::pair<std::size_t, fs::path>> candidates;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(leases, ec)) {
        const std::string name = entry.path().filename().string();
        const auto index = parse_queue_index(name);
        if (!index || *index >= grid_.size()) continue;
        // Never steal from ourselves: a sibling worker thread may have
        // just claimed this index (rename done, held_ not yet updated),
        // and rename(x, x) "succeeds", which would hand the same point to
        // two threads.  Checking the filename's owner closes that window.
        if (parse_lease_owner(name) == owner_) continue;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (held_.count(*index)) continue;  // belt and braces
        }
        // A lease left behind by a shard that crashed after completing:
        // the work is done, only the cleanup is missing.
        std::error_code cleanup_ec;
        if (fs::exists(queue / "done" / (index_name(*index) + ".done"))) {
            fs::remove(entry.path(), cleanup_ec);
            continue;
        }
        // Clamp to the mtime-granularity floor: common filesystems round
        // stamps to whole seconds, so a sub-2s timeout would misread a
        // just-written lease as ancient (see the header's clock notes).
        if (lease_expired(entry.path(),
                          std::max(options_.lease_timeout_seconds,
                                   kMinLeaseTimeoutSeconds)))
            candidates.emplace_back(*index, entry.path());
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [index, path] : candidates) {
        // Budget check before the steal: a point that already burned its
        // retries is declared failed instead of re-run.  The declaration
        // reuses the claim primitive - rename the expired lease into
        // failed/ - so exactly one contender makes the call; the losers'
        // renames fail and they move on.
        if (options_.max_retries > 0 &&
            retry_count(index) >= options_.max_retries) {
            std::error_code fail_ec;
            fs::create_directories(queue / "failed", fail_ec);
            fs::rename(path,
                       queue / "failed" / (index_name(index) + ".failed"),
                       fail_ec);
            continue;
        }
        std::error_code rename_ec;
        fs::rename(path, lease_path(index), rename_ec);
        if (rename_ec) continue;  // another thief won, or the owner finished
        // Death here leaves the stolen lease carrying the victim's stale
        // mtime: the next thief's expiry check reclaims it at once.
        fault::FsHooks::instance().crash_point("queue.steal.post-rename");
        touch_lease(index);
        bump_retry(index);
        std::lock_guard<std::mutex> lock(mu_);
        held_.insert(index);
        ++stolen_;
        return index;
    }
    return std::nullopt;
}

std::size_t WorkQueue::retry_count(std::size_t index) const {
    const fs::path counter =
        fs::path(queue_dir()) / "attempts" / index_name(index);
    try {
        return std::stoul(read_file(counter.string()));
    } catch (...) {  // absent or unparsable: never stolen
        return 0;
    }
}

void WorkQueue::bump_retry(std::size_t index) const {
    // Only the thief whose lease rename won calls this, and a second steal
    // of the same index needs that fresh lease to expire first, so writers
    // are serialized per index; read-modify-write is safe here.  The
    // directory may be absent in a queue created before retry budgets.
    const fs::path dir = fs::path(queue_dir()) / "attempts";
    std::error_code ec;
    fs::create_directories(dir, ec);
    write_file_atomic((dir / index_name(index)).string(),
                      std::to_string(retry_count(index) + 1) + "\n");
}

std::size_t WorkQueue::failed_count() const {
    return failed_indices().size();
}

std::vector<std::size_t> WorkQueue::failed_indices() const {
    std::vector<std::size_t> out;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(queue_dir()) / "failed", ec)) {
        const auto index = parse_queue_index(entry.path().filename().string());
        if (index && *index < grid_.size()) out.push_back(*index);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::optional<std::size_t> WorkQueue::claim() {
    if (const auto index = claim_from_todo()) return index;
    if (options_.steal)
        if (const auto index = claim_stolen()) return index;
    return std::nullopt;
}

std::string WorkQueue::lease_path(std::size_t index) const {
    return (fs::path(queue_dir()) / "leases" /
            (index_name(index) + "." + owner_ + ".lease"))
        .string();
}

void WorkQueue::complete(std::size_t index) {
    const fs::path queue = queue_dir();
    // The done marker is the commit point; write it before dropping the
    // lease so a crash in between leaves only a stale lease that the
    // cleanup path in claim_stolen() removes.
    write_file_atomic(
        (queue / "done" / (index_name(index) + ".done")).string(), owner_ + "\n");
    // Death here leaves a done marker plus a stale lease; claim_stolen()'s
    // cleanup path removes the lease instead of re-running the point.
    fault::FsHooks::instance().crash_point("queue.complete.pre-lease-drop");
    std::error_code ec;
    fs::remove(lease_path(index), ec);  // may already be stolen: ignore
    std::lock_guard<std::mutex> lock(mu_);
    held_.erase(index);
}

void WorkQueue::heartbeat() {
    std::vector<std::size_t> held;
    {
        std::lock_guard<std::mutex> lock(mu_);
        held.assign(held_.begin(), held_.end());
    }
    for (const std::size_t index : held) {
        std::error_code ec;
        fs::last_write_time(lease_path(index), fs::file_time_type::clock::now(),
                            ec);
        // A failure means the lease was stolen out from under a too-slow
        // heartbeat; the computation finishes anyway and stays correct
        // (deterministic result, atomic manifest write).
    }
}

std::size_t WorkQueue::done_count() const {
    std::size_t n = 0;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(queue_dir()) / "done", ec)) {
        const auto index = parse_queue_index(entry.path().filename().string());
        if (index && *index < grid_.size()) ++n;
    }
    return n;
}

std::size_t WorkQueue::held_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
}

void WorkQueue::write_owner_stats(const util::Json& stats) const {
    write_file_atomic(
        (fs::path(queue_dir()) / "stats" / (owner_ + ".json")).string(),
        stats.dump(2) + "\n");
}

void WorkQueue::write_owner_file(const std::string& suffix,
                                 const std::string& content) const {
    write_file_atomic(
        (fs::path(queue_dir()) / "stats" / (owner_ + suffix)).string(),
        content);
}

std::vector<util::Json> WorkQueue::read_all_stats() const {
    std::vector<util::Json> out;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(queue_dir()) / "stats", ec)) {
        if (entry.path().extension() != ".json") continue;
        // Shard obs drops ("<owner>.trace.json", "<owner>.metrics.json")
        // share this directory but are not shard reports.
        const std::string inner = fs::path(entry.path().stem()).extension().string();
        if (inner == ".trace" || inner == ".metrics") continue;
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        try {
            out.push_back(Json::parse(read_file(path.string())));
        } catch (const std::exception&) {
            // A corrupt or mid-write stats file only affects aggregate
            // counters, never merged points; skip it.
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Shard observability drops
// ---------------------------------------------------------------------------

std::string shard_stats_dir(const std::string& cache_dir) {
    return (fs::path(cache_dir) / "queue" / "stats").string();
}

std::vector<std::pair<std::string, util::Json>> read_shard_obs_files(
    const std::string& cache_dir, const std::string& suffix) {
    std::vector<std::pair<std::string, util::Json>> out;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(shard_stats_dir(cache_dir), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
                0)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        const std::string name = path.filename().string();
        const std::string owner = name.substr(0, name.size() - suffix.size());
        try {
            out.emplace_back(owner, Json::parse(read_file(path.string())));
        } catch (const std::exception&) {
            // Mid-write or corrupt obs files only thin the merged view.
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Result-manifest paths and file helpers
// ---------------------------------------------------------------------------

std::string results_dir(const std::string& cache_dir) {
    return (fs::path(cache_dir) / "results").string();
}

std::string point_manifest_path(const std::string& cache_dir, std::size_t index) {
    return (fs::path(results_dir(cache_dir)) /
            ("point_" + index_name(index) + ".json"))
        .string();
}

}  // namespace matador::dist
