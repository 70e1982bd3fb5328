#include "fault/fault.hpp"

#include <csignal>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace matador::fault {

const char* op_name(Op op) {
    switch (op) {
        case Op::kOpen: return "open";
        case Op::kWrite: return "write";
        case Op::kFsync: return "fsync";
        case Op::kRename: return "rename";
        case Op::kDirFsync: return "dirfsync";
        case Op::kAny: return "any";
    }
    return "?";
}

const char* fault_class_name(FaultClass cls) {
    switch (cls) {
        case FaultClass::kEIO: return "eio";
        case FaultClass::kENOSPC: return "enospc";
        case FaultClass::kTornTmp: return "torn";
        case FaultClass::kBitFlip: return "bitflip";
        case FaultClass::kKill: return "kill";
    }
    return "?";
}

namespace {

Op op_from_name(const std::string& s) {
    if (s == "open") return Op::kOpen;
    if (s == "write") return Op::kWrite;
    if (s == "fsync") return Op::kFsync;
    if (s == "rename") return Op::kRename;
    if (s == "dirfsync") return Op::kDirFsync;
    if (s == "any" || s.empty()) return Op::kAny;
    throw std::runtime_error("fault plan: unknown op \"" + s + "\"");
}

FaultClass class_from_name(const std::string& s) {
    if (s == "eio") return FaultClass::kEIO;
    if (s == "enospc") return FaultClass::kENOSPC;
    if (s == "torn") return FaultClass::kTornTmp;
    if (s == "bitflip") return FaultClass::kBitFlip;
    if (s == "kill") return FaultClass::kKill;
    throw std::runtime_error("fault plan: unknown class \"" + s + "\"");
}

int class_errno(FaultClass cls) {
    switch (cls) {
        case FaultClass::kENOSPC: return ENOSPC;
        default: return EIO;
    }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& json_text) {
    const util::Json doc = util::Json::parse(json_text);
    FaultPlan plan;
    for (const auto& [key, value] : doc.as_object()) {
        if (key == "seed") {
            plan.seed = value.as_count();
        } else if (key == "rules") {
            for (const auto& rj : value.as_array()) {
                FaultRule rule;
                for (const auto& [rk, rv] : rj.as_object()) {
                    if (rk == "class") rule.cls = class_from_name(rv.as_string());
                    else if (rk == "op") rule.op = op_from_name(rv.as_string());
                    else if (rk == "path") rule.path_substr = rv.as_string();
                    else if (rk == "point") rule.point = rv.as_string();
                    else if (rk == "at") rule.at = rv.as_count();
                    else if (rk == "count") rule.count = rv.as_count();
                    else if (rk == "prob") rule.prob = rv.as_double();
                    else throw std::runtime_error("fault plan: unknown rule field \"" + rk + "\"");
                }
                if (rule.at == 0)
                    throw std::runtime_error("fault plan: rule \"at\" is 1-based, got 0");
                plan.rules.push_back(std::move(rule));
            }
        } else {
            throw std::runtime_error("fault plan: unknown field \"" + key + "\"");
        }
    }
    return plan;
}

std::string FaultPlan::to_json() const {
    util::Json doc = util::Json::object();
    doc.set("seed", util::Json(double(seed)));
    util::Json rules_json = util::Json::array();
    for (const auto& rule : rules) {
        util::Json rj = util::Json::object();
        rj.set("class", util::Json(fault_class_name(rule.cls)));
        if (rule.cls == FaultClass::kKill) {
            rj.set("point", util::Json(rule.point));
        } else {
            rj.set("op", util::Json(op_name(rule.op)));
            if (!rule.path_substr.empty()) rj.set("path", util::Json(rule.path_substr));
        }
        rj.set("at", util::Json(double(rule.at)));
        rj.set("count", util::Json(double(rule.count)));
        if (rule.prob > 0.0) rj.set("prob", util::Json(rule.prob));
        rules_json.push_back(std::move(rj));
    }
    doc.set("rules", std::move(rules_json));
    return doc.dump();
}

std::optional<FaultPlan> FaultPlan::from_env() {
    const char* env = std::getenv("MATADOR_FAULT_PLAN");
    if (env == nullptr || env[0] == '\0') return std::nullopt;
    const std::string value(env);
    if (value.front() == '{') return FaultPlan::parse(value);
    return FaultPlan::parse(util::read_file(value));
}

FsHooks& FsHooks::instance() {
    static FsHooks hooks;
    return hooks;
}

void FsHooks::arm(FaultPlan plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = std::move(plan);
    for (auto& rule : plan_.rules) {
        rule.matches = 0;
        rule.fires = 0;
    }
    for (auto& n : fires_by_class_) n = 0;
    log_.clear();
    armed_.store(true, std::memory_order_release);
}

void FsHooks::disarm() {
    armed_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = FaultPlan{};
}

bool FsHooks::arm_from_env() {
    auto plan = FaultPlan::from_env();
    if (!plan) return false;
    arm(std::move(*plan));
    return true;
}

namespace {

/// Count-window or seeded-probability firing decision for one match.
/// `ordinal` is the 1-based match count after this match.
bool rule_fires(const FaultRule& rule, std::uint64_t plan_seed,
                std::size_t rule_index, std::uint64_t ordinal) {
    if (rule.prob > 0.0) {
        util::KeyedRng rng(plan_seed, 0xfa117ull, rule_index, ordinal);
        return rng.bernoulli(rule.prob);
    }
    if (ordinal < rule.at) return false;
    if (rule.count == 0) return true;
    return ordinal < rule.at + rule.count;
}

}  // namespace

FaultAction FsHooks::check(Op op, const std::string& path,
                           std::size_t payload_size) {
    if (!armed()) return {};
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
        FaultRule& rule = plan_.rules[i];
        if (rule.cls == FaultClass::kKill) continue;
        if (rule.op != Op::kAny && rule.op != op) continue;
        if (!rule.path_substr.empty() &&
            path.find(rule.path_substr) == std::string::npos)
            continue;
        const std::uint64_t ordinal = ++rule.matches;
        if (!rule_fires(rule, plan_.seed, i, ordinal)) continue;
        ++rule.fires;
        ++fires_by_class_[static_cast<std::size_t>(rule.cls)];

        FaultAction action;
        action.fire = true;
        action.cls = rule.cls;
        action.err = class_errno(rule.cls);
        if (rule.cls == FaultClass::kBitFlip || rule.cls == FaultClass::kTornTmp) {
            // Seeded, so the same plan corrupts / tears the same bytes.
            util::KeyedRng rng(plan_.seed, 0xb17f11ull, i, ordinal);
            const std::uint64_t bits = payload_size > 0 ? payload_size * 8 : 8;
            action.flip_bit = rng.below(bits);
            action.torn_bytes = payload_size > 0
                                    ? std::size_t(rng.below(payload_size))
                                    : 0;
        }
        log_.push_back(std::string(fault_class_name(rule.cls)) + " " +
                       op_name(op) + " " + path + " n=" +
                       std::to_string(ordinal));
        obs::MetricsRegistry::global()
            .counter("fault_injected_total",
                     {{"class", fault_class_name(rule.cls)}})
            .add(1);
        return action;
    }
    return {};
}

void FsHooks::crash_point(const char* name) {
    if (!armed()) return;
    bool kill_now = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
            FaultRule& rule = plan_.rules[i];
            if (rule.cls != FaultClass::kKill) continue;
            if (!rule.point.empty() && rule.point != name) continue;
            const std::uint64_t ordinal = ++rule.matches;
            if (!rule_fires(rule, plan_.seed, i, ordinal)) continue;
            ++rule.fires;
            ++fires_by_class_[static_cast<std::size_t>(FaultClass::kKill)];
            log_.push_back(std::string("kill point ") + name + " n=" +
                           std::to_string(ordinal));
            obs::MetricsRegistry::global()
                .counter("fault_injected_total", {{"class", "kill"}})
                .add(1);
            kill_now = true;
            break;
        }
    }
    // Raise outside the lock: SIGKILL is not catchable, but leaving the
    // mutex held would deadlock tools that install a SIGKILL-less test
    // double via a modified plan.
    if (kill_now) ::raise(SIGKILL);
}

std::uint64_t FsHooks::fires(FaultClass cls) const {
    std::lock_guard<std::mutex> lock(mu_);
    return fires_by_class_[static_cast<std::size_t>(cls)];
}

std::uint64_t FsHooks::total_fires() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto n : fires_by_class_) total += n;
    return total;
}

std::vector<std::string> FsHooks::fired_log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
}

// ---------------------------------------------------------------------------
// Error classification + bounded retry
// ---------------------------------------------------------------------------

bool is_transient_errno(int err) {
    switch (err) {
        case EIO:
        case ENOSPC:  // space is routinely reclaimed by gc / other writers
        case EAGAIN:
        case EBUSY:
        case EINTR:
        case ENOMEM:
        case ETIMEDOUT:
#ifdef EDQUOT
        case EDQUOT:
#endif
#ifdef ESTALE
        case ESTALE:
#endif
            return true;
        default:
            return false;
    }
}

namespace {

std::mutex g_policy_mu;
RetryPolicy g_policy;

std::uint64_t fnv1a64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace

RetryPolicy retry_policy() {
    std::lock_guard<std::mutex> lock(g_policy_mu);
    return g_policy;
}

void set_retry_policy(const RetryPolicy& p) {
    std::lock_guard<std::mutex> lock(g_policy_mu);
    g_policy = p;
}

double backoff_delay_ms(const RetryPolicy& policy, const std::string& key,
                        int attempt) {
    if (attempt < 1) attempt = 1;
    double ceiling = policy.base_delay_ms;
    for (int i = 1; i < attempt && ceiling < policy.max_delay_ms; ++i)
        ceiling *= 2.0;
    if (ceiling > policy.max_delay_ms) ceiling = policy.max_delay_ms;
    // Full jitter in [0, ceiling): decorrelates concurrent shards while a
    // fixed (seed, key, attempt) tuple still always sleeps the same span.
    util::KeyedRng rng(policy.seed, 0xbacc0ffull, fnv1a64(key),
                       std::uint64_t(attempt));
    return rng.uniform() * ceiling;
}

void sleep_for_ms(double ms) {
    if (ms <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace matador::fault
