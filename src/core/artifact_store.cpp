#include "core/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "fault/fault.hpp"
#include "logic/aiger.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;

namespace matador::core {

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

std::uint64_t frontend_config_hash(const FlowConfig& cfg) {
    Fnv1a h;
    h.u64(cfg.tm.clauses_per_class);
    h.u64(std::uint64_t(std::int64_t(cfg.tm.threshold)));
    h.f64(cfg.tm.specificity);
    h.u64(cfg.tm.boost_true_positive ? 1 : 0);
    h.u64(std::uint64_t(cfg.tm.feedback));
    h.u64(cfg.tm.seed);
    h.u64(cfg.epochs);
    // Early-stopping knobs change which epoch's snapshot is returned, so
    // they are part of the trained model's identity.  train_threads is
    // deliberately absent: training is bit-reproducible at any thread count.
    h.u64(cfg.eval_every);
    h.u64(cfg.patience);
    return h.digest();
}

std::uint64_t backend_config_hash(const FlowConfig& cfg, std::uint64_t model_hash) {
    Fnv1a h;
    h.u64(model_hash);
    h.u64(cfg.arch.bus_width);
    h.u64(cfg.strash ? 1 : 0);
    return h.digest();
}

std::uint64_t lint_cache_key(const FlowConfig& cfg, std::uint64_t model_hash) {
    Fnv1a h;
    h.u64(backend_config_hash(cfg, model_hash));
    // A verdict is produced by a checker: fold its version in so lint code
    // changes invalidate cached reports instead of silently resurfacing.
    h.u64(lint::kLintSubsystemVersion);
    return h.digest();
}

std::uint64_t proof_cache_key(const FlowConfig& cfg, std::uint64_t model_hash) {
    Fnv1a h;
    h.u64(backend_config_hash(cfg, model_hash));
    h.u64(sat::kSatSubsystemVersion);
    // The prove knobs that change what was actually proved.
    h.u64(cfg.induction_k);
    return h.digest();
}

std::uint64_t dataset_fingerprint(const data::Dataset& ds) {
    Fnv1a h;
    h.u64(ds.num_features);
    h.u64(ds.num_classes);
    h.u64(ds.size());
    for (auto label : ds.labels) h.u64(label);
    for (const auto& x : ds.examples) h.u64(x.hash());
    return h.digest();
}

std::string key_hex(std::uint64_t key) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)key);
    return buf;
}

const char* tier_name(ArtifactTier t) {
    switch (t) {
        case ArtifactTier::kNone: return "none";
        case ArtifactTier::kMemory: return "memory";
        case ArtifactTier::kDisk: return "disk";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// The entry codec: manifest + named payload files
// ---------------------------------------------------------------------------

namespace {

using util::Json;

// A manifest is, line by line:
//   MATADOR-ARTIFACT v3
//   stage <stage>
//   key <hash16>
//   crc <file> <crc32 hex>     one per payload file
//   end
// Nothing else reads or writes this syntax.  Entries of any other version
// are recomputed and rewritten, never read.
constexpr unsigned kManifestVersion = 3;
constexpr const char* kManifestMagic = "MATADOR-ARTIFACT v";
constexpr const char* kManifestName = "manifest.txt";

/// An entry's payload files: name -> bytes.
using Payloads = std::map<std::string, std::string>;

void warn_at(const ArtifactStore::WarnFn& warn, const std::string& msg) {
    if (warn) warn(msg);
}

fs::path entry_dir(const std::string& dir, const char* stage, std::uint64_t key) {
    return fs::path(dir) / stage / key_hex(key);
}

/// A payload name must stay inside its entry directory.
bool is_payload_name(const std::string& name) {
    return !name.empty() && name != "." && name != ".." && name != kManifestName &&
           name.find('/') == std::string::npos;
}

std::string manifest_text(const char* stage, std::uint64_t key,
                          const Payloads& payloads) {
    std::string m = kManifestMagic + std::to_string(kManifestVersion) + "\n";
    m += "stage " + std::string(stage) + "\n";
    m += "key " + key_hex(key) + "\n";
    for (const auto& [name, bytes] : payloads)
        m += "crc " + name + " " + util::crc32_hex(util::crc32(bytes)) + "\n";
    return m + "end\n";
}

/// Read an entry's payloads, checking the manifest's version, stage and
/// key and every payload's CRC before any payload is decoded.  nullopt
/// when the entry has no manifest; throws on anything wrong.
std::optional<Payloads> read_entry(const fs::path& entry, const char* stage,
                                   std::uint64_t key) {
    std::ifstream in(entry / kManifestName, std::ios::binary);
    if (!in) return std::nullopt;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const auto fail = [&](const std::string& what) {
        throw std::runtime_error(what + " in " + (entry / kManifestName).string());
    };

    const std::string version = std::to_string(kManifestVersion);
    if (lines.empty() || lines[0].rfind(kManifestMagic, 0) != 0)
        fail("bad manifest header");
    if (lines[0] != kManifestMagic + version)
        fail("manifest format v" + lines[0].substr(std::strlen(kManifestMagic)) +
             " (this build reads v" + version + ")");
    if (lines.size() < 4 || lines.back() != "end")
        fail("truncated manifest (missing 'end')");
    if (lines[1] != "stage " + std::string(stage) || lines[2] != "key " + key_hex(key))
        fail("manifest does not match its entry (stage/key mismatch)");

    Payloads payloads;
    for (std::size_t i = 3; i + 1 < lines.size(); ++i) {
        std::istringstream ss(lines[i]);
        std::string tag, name, want, extra;
        if (!(ss >> tag >> name >> want) || (ss >> extra) || tag != "crc" ||
            !is_payload_name(name) || payloads.count(name))
            fail("corrupt manifest line '" + lines[i] + "'");
        std::string bytes;
        try {
            bytes = util::read_file((entry / name).string());
        } catch (const std::exception&) {
            fail("payload " + name + " missing");
        }
        if (util::crc32_hex(util::crc32(bytes)) != want) {
            obs::MetricsRegistry::global().counter("artifact_crc_mismatch_total").add(1);
            fail("payload CRC mismatch on " + name);
        }
        payloads.emplace(name, std::move(bytes));
    }
    return payloads;
}

/// Publish an entry near-atomically: write the payloads and the manifest
/// into a sibling per-process .tmp directory, then rename it over the
/// entry.  An existing entry (e.g. one that failed its load-time checks and
/// got recomputed) is replaced.  The pid suffix keeps concurrent processes
/// sharing one cache_dir from scribbling into each other's staging area;
/// within a process the per-key single-flight lock already serializes.
void write_entry(const fs::path& entry, const char* stage, std::uint64_t key,
                 const Payloads& payloads, const ArtifactStore::WarnFn& warn) {
    const fs::path tmp = entry.string() + ".tmp." + std::to_string(::getpid());
    std::error_code ec;
    fs::remove_all(tmp, ec);
    try {
        fs::create_directories(tmp);
        const auto put = [&](const std::string& name, const std::string& bytes) {
            std::ofstream out(tmp / name, std::ios::binary);
            out << bytes;
            if (!out) throw std::runtime_error("write of " + name + " failed");
        };
        for (const auto& [name, bytes] : payloads) put(name, bytes);
        put(kManifestName, manifest_text(stage, key, payloads));
        // Death here leaves only the .tmp staging dir: readers never see a
        // half-written entry, and the debris is skipped by is_key_dir_name.
        fault::FsHooks::instance().crash_point("store.publish.pre-rename");
        // The publish rename retries transient failures under the shared
        // backoff policy; a permanent error (or an exhausted budget) falls
        // through to the warn below — the store degrades to uncached.
        const fault::RetryPolicy policy = fault::retry_policy();
        for (int attempt = 1;; ++attempt) {
            int err = 0;
            if (const auto a = fault::FsHooks::instance().check(fault::Op::kRename,
                                                                entry.string());
                a.fire) {
                err = a.err;
            } else {
                std::error_code rec;
                fs::rename(tmp, entry, rec);
                if (rec) {
                    // Destination exists (a stale or corrupt entry being
                    // repaired): replace it.
                    fs::remove_all(entry, rec);
                    fs::rename(tmp, entry, rec);
                    err = rec.value();
                }
            }
            if (err == 0) break;
            if (!fault::is_transient_errno(err) || attempt >= policy.max_attempts) {
                errno = err;
                throw util::FsError("entry rename failed: " + std::string(strerror(err)),
                                    err);
            }
            obs::MetricsRegistry::global().counter("fs_retry_total").add(1);
            fault::sleep_for_ms(fault::backoff_delay_ms(policy, entry.string(), attempt));
        }
    } catch (const std::exception& e) {
        fs::remove_all(tmp, ec);
        warn_at(warn, "artifact store: could not persist " + entry.string() + ": " +
                          e.what());
    }
}

/// True for a well-formed entry directory name (16 lower-hex chars).
/// Filters out stale ".tmp.<pid>" staging dirs left by a crashed writer.
bool is_key_dir_name(const std::string& name) {
    if (name.size() != 16) return false;
    for (char c : name)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
    return true;
}

// ---------------------------------------------------------------------------
// Per-kind payloads: one encode and one decode each.  A decode throws on
// anything wrong; an encode that returns no payloads persists nothing.
// ---------------------------------------------------------------------------

const std::string& payload(const Payloads& p, const std::string& name) {
    const auto it = p.find(name);
    if (it == p.end()) throw std::runtime_error("missing payload " + name);
    return it->second;
}

Json num(double v) { return Json(v); }

/// A whole number in [0, max]; anything else is corruption.
std::uint64_t whole(const Json& j, std::uint64_t max) {
    const double v = j.as_double();
    if (!(v >= 0.0 && v <= double(max) && v == std::floor(v)))
        throw std::runtime_error("json: expected a whole number up to " +
                                 std::to_string(max));
    return std::uint64_t(v);
}

std::size_t size_at(const Json& j, const std::string& key) {
    return std::size_t(whole(j.at(key), std::uint64_t(1) << 53));
}

Json id_array(const std::vector<std::uint32_t>& ids) {
    Json a = Json::array();
    for (const std::uint32_t id : ids) a.push_back(num(id));
    return a;
}

std::string hcb_file_name(std::size_t k) { return "hcb_" + std::to_string(k) + ".aig"; }

// -- train: model.tm (TrainedModel::save) + record.json ----------------------

Payloads encode(const TrainedArtifact& a) {
    if (!a.model) return {};
    std::ostringstream model;
    a.model->save(model);
    Json fit = Json::object();
    fit.set("epochs_run", num(a.fit.epochs_run));
    fit.set("stop_reason", train::stop_reason_name(a.fit.stop_reason));
    fit.set("best_epoch", num(a.fit.best_epoch));
    fit.set("train_accuracy", num(a.fit.train_accuracy));
    fit.set("eval_accuracy", num(a.fit.eval_accuracy));
    fit.set("threads_used", num(a.fit.threads_used));
    Json history = Json::array();
    for (const auto& m : a.fit.history) {
        Json e = Json::object();
        e.set("epoch", num(m.epoch));
        e.set("train_accuracy", num(m.train_accuracy));
        e.set("eval_accuracy", num(m.eval_accuracy));
        history.push_back(std::move(e));
    }
    fit.set("history", std::move(history));
    Json record = Json::object();
    record.set("train_accuracy", num(a.train_accuracy));
    record.set("test_accuracy", num(a.test_accuracy));
    record.set("fit", std::move(fit));
    return {{"model.tm", model.str()}, {"record.json", record.dump() + "\n"}};
}

void decode(const Payloads& p, TrainedArtifact& a) {
    std::istringstream model(payload(p, "model.tm"));
    a.model = std::make_shared<model::TrainedModel>(model::TrainedModel::load(model));
    const Json record = Json::parse(payload(p, "record.json"));
    a.train_accuracy = record.at("train_accuracy").as_double();
    a.test_accuracy = record.at("test_accuracy").as_double();
    const Json& fit = record.at("fit");
    a.fit.epochs_run = size_at(fit, "epochs_run");
    const auto reason = train::stop_reason_from_name(fit.at("stop_reason").as_string());
    if (!reason) throw std::runtime_error("unknown stop reason");
    a.fit.stop_reason = *reason;
    a.fit.best_epoch = size_at(fit, "best_epoch");
    a.fit.train_accuracy = fit.at("train_accuracy").as_double();
    a.fit.eval_accuracy = fit.at("eval_accuracy").as_double();
    a.fit.threads_used = unsigned(whole(fit.at("threads_used"), 0xffffffffu));
    for (const Json& e : fit.at("history").as_array())
        a.fit.history.push_back({size_at(e, "epoch"), e.at("train_accuracy").as_double(),
                                 e.at("eval_accuracy").as_double()});
}

// -- generate: record.json + one binary AIGER file per HCB --------------------

Payloads encode(const GeneratedArtifact& a) {
    if (!a.hcbs) return {};
    Payloads p;
    Json hcbs = Json::array();
    for (std::size_t k = 0; k < a.hcbs->size(); ++k) {
        const rtl::HcbNetlist& hcb = (*a.hcbs)[k];
        Json spec = Json::object();
        spec.set("packet", num(hcb.spec.packet));
        spec.set("lo", num(hcb.spec.lo));
        spec.set("hi", num(hcb.spec.hi));
        spec.set("active_clauses", id_array(hcb.spec.active_clauses));
        spec.set("passthrough_clauses", id_array(hcb.spec.passthrough_clauses));
        std::string chain;  // one '0' or '1' per active clause
        for (const bool b : hcb.spec.has_chain_input) chain += b ? '1' : '0';
        spec.set("has_chain_input", std::move(chain));
        hcbs.push_back(std::move(spec));
        p.emplace(hcb_file_name(k), logic::write_aiger_binary(hcb.aig));
    }
    Json record = Json::object();
    record.set("strash", a.strash);
    record.set("mapped_luts", num(a.hcb_mapped_luts));
    record.set("max_depth", num(a.hcb_max_depth));
    record.set("hcbs", std::move(hcbs));
    p.emplace("record.json", record.dump() + "\n");
    return p;
}

void decode(const Payloads& p, GeneratedArtifact& a) {
    const Json record = Json::parse(payload(p, "record.json"));
    a.strash = record.at("strash").as_bool();
    a.hcb_mapped_luts = size_at(record, "mapped_luts");
    a.hcb_max_depth = unsigned(whole(record.at("max_depth"), 0xffffffffu));
    auto hcbs = std::make_shared<std::vector<rtl::HcbNetlist>>();
    for (const Json& j : record.at("hcbs").as_array()) {
        const std::size_t k = hcbs->size();
        rtl::HcbNetlist hcb;
        rtl::HcbSpec& spec = hcb.spec;
        spec.packet = size_at(j, "packet");
        spec.lo = size_at(j, "lo");
        spec.hi = size_at(j, "hi");
        for (const Json& id : j.at("active_clauses").as_array())
            spec.active_clauses.push_back(std::uint32_t(whole(id, 0xffffffffu)));
        for (const Json& id : j.at("passthrough_clauses").as_array())
            spec.passthrough_clauses.push_back(std::uint32_t(whole(id, 0xffffffffu)));
        for (const char c : j.at("has_chain_input").as_string()) {
            if (c != '0' && c != '1') throw std::runtime_error("corrupt chain flags");
            spec.has_chain_input.push_back(c == '1');
        }
        const std::size_t chains = std::size_t(
            std::count(spec.has_chain_input.begin(), spec.has_chain_input.end(), true));
        if (spec.packet != k || spec.lo > spec.hi ||
            spec.has_chain_input.size() != spec.active_clauses.size())
            throw std::runtime_error("corrupt spec of HCB " + std::to_string(k));

        const std::string& bytes = payload(p, hcb_file_name(k));
        hcb.aig = logic::read_aiger(bytes, a.strash);
        if (hcb.aig.num_pis() != spec.hi - spec.lo + chains ||
            hcb.aig.num_pos() != spec.active_clauses.size())
            throw std::runtime_error(hcb_file_name(k) + " does not fit its HCB spec");
        if (logic::write_aiger_binary(hcb.aig) != bytes)
            throw std::runtime_error(hcb_file_name(k) +
                                     " does not re-export to its own bytes");
        hcbs->push_back(std::move(hcb));
    }
    a.hcbs = std::move(hcbs);
}

// -- lint and proof: report.json ----------------------------------------------

Payloads encode(const LintArtifact& a) {
    return {{"report.json", lint::lint_report_to_json(a.report).dump(2) + "\n"}};
}

void decode(const Payloads& p, LintArtifact& a) {
    a.report = lint::lint_report_from_json(Json::parse(payload(p, "report.json")));
}

Payloads encode(const ProofArtifact& a) {
    return {{"report.json", sat::prove_report_to_json(a.report).dump(2) + "\n"}};
}

void decode(const Payloads& p, ProofArtifact& a) {
    a.report = sat::prove_report_from_json(Json::parse(payload(p, "report.json")));
}

// -- the disk tier of any kind -------------------------------------------------

/// nullopt when there is no entry; throws on a corrupt one.
template <typename T>
std::optional<T> read_disk(const std::string& dir, const char* stage, std::uint64_t key) {
    const auto payloads = read_entry(entry_dir(dir, stage, key), stage, key);
    if (!payloads) return std::nullopt;
    T artifact;
    decode(*payloads, artifact);
    return artifact;
}

template <typename T>
void write_disk(const std::string& dir, const char* stage, std::uint64_t key,
                const T& artifact, const ArtifactStore::WarnFn& warn) {
    const Payloads payloads = encode(artifact);
    if (!payloads.empty())
        write_entry(entry_dir(dir, stage, key), stage, key, payloads, warn);
}

/// Published entries of one stage (key-named directories with a manifest).
std::size_t count_disk_entries(const std::string& dir, const char* stage) {
    std::error_code ec;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(fs::path(dir) / stage, ec))
        if (e.is_directory() && is_key_dir_name(e.path().filename().string()) &&
            fs::exists(e.path() / kManifestName))
            ++n;
    return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

ArtifactStore::ArtifactStore(std::string cache_dir) : dir_(std::move(cache_dir)) {}

template <typename T>
T ArtifactStore::get_or_compute(StageSlots<T>& stage, std::uint64_t key,
                                const std::function<T()>& fn, ArtifactTier* served,
                                const WarnFn& warn) {
    std::shared_ptr<typename StageSlots<T>::Slot> slot;
    {
        std::lock_guard<std::mutex> lock(stage.mu);
        auto& entry = stage.slots[key];
        if (!entry) entry = std::make_shared<typename StageSlots<T>::Slot>();
        slot = entry;
    }
    // Per-key lock: the first caller loads or computes while same-key
    // callers wait; other keys proceed in parallel.
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->computed) {
        stage.memory_hits++;
        if (served) *served = ArtifactTier::kMemory;
        return slot->artifact;
    }
    if (persistent()) {
        // A disk entry must never be able to fail the request: any load
        // error - however exotic the corruption - degrades to a recompute.
        std::optional<T> loaded;
        try {
            loaded = read_disk<T>(dir_, stage.name, key);
        } catch (const std::exception& e) {
            warn_at(warn, std::string("artifact store: skipping ") + stage.name +
                              " entry " + key_hex(key) + " (" + e.what() +
                              "); recomputing");
        }
        if (loaded) {
            slot->artifact = std::move(*loaded);
            slot->computed = true;
            stage.memory_entries++;
            stage.disk_hits++;
            if (served) *served = ArtifactTier::kDisk;
            return slot->artifact;
        }
    }
    slot->artifact = fn();
    slot->computed = true;
    stage.memory_entries++;
    stage.misses++;
    if (served) *served = ArtifactTier::kNone;
    if (persistent()) write_disk(dir_, stage.name, key, slot->artifact, warn);
    return slot->artifact;
}

TrainedArtifact ArtifactStore::get_or_compute_trained(
    std::uint64_t key, const std::function<TrainedArtifact()>& fn,
    ArtifactTier* served, const WarnFn& warn) {
    return get_or_compute(train_, key, fn, served, warn);
}

GeneratedArtifact ArtifactStore::get_or_compute_generated(
    std::uint64_t key, const std::function<GeneratedArtifact()>& fn,
    ArtifactTier* served, const WarnFn& warn) {
    return get_or_compute(generate_, key, fn, served, warn);
}

LintArtifact ArtifactStore::get_or_compute_lint(
    std::uint64_t key, const std::function<LintArtifact()>& fn,
    ArtifactTier* served, const WarnFn& warn) {
    return get_or_compute(lint_, key, fn, served, warn);
}

ProofArtifact ArtifactStore::get_or_compute_proof(
    std::uint64_t key, const std::function<ProofArtifact()>& fn,
    ArtifactTier* served, const WarnFn& warn) {
    return get_or_compute(proof_, key, fn, served, warn);
}

std::optional<TrainedArtifact> ArtifactStore::read_trained(std::uint64_t key) const {
    if (!persistent()) return std::nullopt;
    return read_disk<TrainedArtifact>(dir_, train_.name, key);
}

// ---------------------------------------------------------------------------
// Stats and maintenance
// ---------------------------------------------------------------------------

ArtifactStore::Stats ArtifactStore::stats() const {
    Stats s;
    for (const StageCounters* stage : stages_) {
        TierStats& t = s[stage->name];
        t.memory_hits = stage->memory_hits.load();
        t.disk_hits = stage->disk_hits.load();
        t.misses = stage->misses.load();
        t.memory_entries = stage->memory_entries.load();
        t.disk_entries = persistent() ? count_disk_entries(dir_, stage->name) : 0;
    }
    return s;
}

std::vector<ArtifactStore::DiskEntry> ArtifactStore::list_disk() const {
    std::vector<DiskEntry> entries;
    if (!persistent()) return entries;
    for (const char* stage : kStages) {
        std::error_code ec;
        std::vector<DiskEntry> stage_entries;
        for (const auto& e : fs::directory_iterator(fs::path(dir_) / stage, ec)) {
            if (!e.is_directory()) continue;
            const std::string name = e.path().filename().string();
            if (!is_key_dir_name(name)) continue;
            DiskEntry d;
            d.stage = stage;
            d.key = std::stoull(name, nullptr, 16);
            d.key_hex = name;
            d.path = e.path().string();
            std::error_code fec;
            for (const auto& f : fs::directory_iterator(e.path(), fec)) {
                if (!f.is_regular_file()) continue;
                d.files++;
                d.bytes += f.file_size(fec);
                if (f.path().filename() != kManifestName)
                    d.payloads.push_back(f.path().string());
            }
            std::sort(d.payloads.begin(), d.payloads.end());
            stage_entries.push_back(std::move(d));
        }
        std::sort(stage_entries.begin(), stage_entries.end(),
                  [](const DiskEntry& a, const DiskEntry& b) {
                      return a.key_hex < b.key_hex;
                  });
        entries.insert(entries.end(), stage_entries.begin(), stage_entries.end());
    }
    return entries;
}

std::uintmax_t ArtifactStore::clear_disk() {
    std::uintmax_t bytes = 0;
    for (const auto& e : list_disk()) bytes += e.bytes;
    if (persistent())
        for (const char* stage : kStages) {
            std::error_code ec;
            fs::remove_all(fs::path(dir_) / stage, ec);
        }
    return bytes;
}

}  // namespace matador::core
