#include "serve/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"

namespace matador::serve {

namespace {

constexpr std::size_t kOutcomeWindow = 1024;  ///< rolling-accuracy window

}  // namespace

LatencyRing::LatencyRing(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity), 0.0) {}

void LatencyRing::record(double us) {
    ring_[next_] = us;
    next_ = (next_ + 1) % ring_.size();
    count_ = std::min(count_ + 1, ring_.size());
}

LatencyRing::Quantiles LatencyRing::quantiles() const {
    Quantiles q;
    q.samples = count_;
    if (count_ == 0) return q;
    std::vector<double> sorted(ring_.begin(), ring_.begin() + count_);
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank: the smallest sample >= the requested fraction of mass.
    const auto rank = [&](double p) {
        const std::size_t r = std::size_t(p * double(count_ - 1) + 0.5);
        return sorted[std::min(r, count_ - 1)];
    };
    q.p50_us = rank(0.50);
    q.p95_us = rank(0.95);
    q.p99_us = rank(0.99);
    return q;
}

ServeMetrics::ServeMetrics()
    : queue_depth_(registry_.gauge("serve_queue_depth")) {}

ServeMetrics::PerModel& ServeMetrics::slot_locked(const std::string& hash_hex) {
    auto it = per_model_.find(hash_hex);
    if (it == per_model_.end()) {
        it = per_model_.try_emplace(hash_hex).first;
        PerModel& m = it->second;
        const obs::Labels labels{{"model", hash_hex}};
        m.requests = &registry_.counter("serve_requests", labels);
        m.errors = &registry_.counter("serve_errors", labels);
        m.shed = &registry_.counter("serve_shed", labels);
        m.batches = &registry_.counter("serve_batches", labels);
        m.lanes = &registry_.counter("serve_lanes", labels);
        m.labeled = &registry_.counter("serve_labeled", labels);
        m.correct = &registry_.counter("serve_correct", labels);
        m.latency = &registry_.histogram("serve_latency_us", labels);
        m.outcomes.assign(kOutcomeWindow, 0);
    }
    return it->second;
}

void ServeMetrics::record_response(const std::string& hash_hex,
                                   double latency_us,
                                   std::optional<bool> correct) {
    std::lock_guard<std::mutex> lock(mu_);
    PerModel& m = slot_locked(hash_hex);
    m.requests->add();
    m.latency->record(latency_us);
    if (correct) {
        m.labeled->add();
        m.correct->add(*correct);
        m.outcomes[m.outcome_next] = *correct;
        m.outcome_next = (m.outcome_next + 1) % m.outcomes.size();
        m.outcome_count = std::min(m.outcome_count + 1, m.outcomes.size());
    }
}

void ServeMetrics::record_batch(const std::string& hash_hex,
                                std::size_t lanes) {
    std::lock_guard<std::mutex> lock(mu_);
    PerModel& m = slot_locked(hash_hex);
    m.batches->add();
    m.lanes->add(lanes);
}

void ServeMetrics::record_error(const std::string& hash_hex) {
    std::lock_guard<std::mutex> lock(mu_);
    slot_locked(hash_hex).errors->add();
}

void ServeMetrics::record_shed(const std::string& hash_hex,
                               const std::string& reason,
                               std::size_t queue_depth) {
    std::lock_guard<std::mutex> lock(mu_);
    if (hash_hex.empty())
        ++shed_unattributed_;
    else
        slot_locked(hash_hex).shed->add();
    auto it = shed_reasons_.find(reason);
    if (it == shed_reasons_.end())
        it = shed_reasons_
                 .emplace(reason, &registry_.counter("serve_shed_total",
                                                     {{"reason", reason}}))
                 .first;
    it->second->add();
    queue_depth_.set(double(queue_depth));
}

void ServeMetrics::set_queue_depth(std::size_t depth) {
    queue_depth_.set(double(depth));
}

void ServeMetrics::set_breaker_provider(std::function<util::Json()> provider) {
    std::lock_guard<std::mutex> lock(mu_);
    breaker_provider_ = std::move(provider);
}

ServeMetrics::Snapshot ServeMetrics::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.uptime_seconds = uptime_.seconds();
    s.total_shed = shed_unattributed_;
    s.queue_depth = std::size_t(queue_depth_.value());
    s.spans_dropped =
        std::size_t(obs::TraceRecorder::instance().dropped_total());
    for (const auto& [reason, counter] : shed_reasons_)
        s.shed_reasons.emplace_back(reason, std::size_t(counter->value()));
    for (const auto& [hash, m] : per_model_) {
        ModelMetrics out;
        out.hash_hex = hash;
        out.requests = std::size_t(m.requests->value());
        out.errors = std::size_t(m.errors->value());
        out.shed = std::size_t(m.shed->value());
        out.batches = std::size_t(m.batches->value());
        out.lanes = std::size_t(m.lanes->value());
        out.labeled = std::size_t(m.labeled->value());
        out.correct = std::size_t(m.correct->value());
        const obs::Histogram::Quantiles q = m.latency->quantiles();
        out.latency.p50_us = q.p50;
        out.latency.p95_us = q.p95;
        out.latency.p99_us = q.p99;
        out.latency.samples = q.samples;
        out.rolling_window = m.outcome_count;
        if (m.outcome_count > 0) {
            std::size_t ok = 0;
            for (std::size_t i = 0; i < m.outcome_count; ++i)
                ok += m.outcomes[i];
            out.rolling_accuracy = double(ok) / double(m.outcome_count);
        }
        s.total_requests += out.requests;
        s.total_shed += out.shed;
        s.models.push_back(std::move(out));
    }
    return s;
}

util::Json ServeMetrics::snapshot_json() const {
    const Snapshot s = snapshot();
    util::Json j = util::Json::object();
    j.set("format", "matador-serve-status");
    j.set("version", double(kStatusVersion));
    j.set("uptime_seconds", s.uptime_seconds);
    j.set("total_requests", double(s.total_requests));
    j.set("total_shed", double(s.total_shed));
    j.set("queue_depth", double(s.queue_depth));
    j.set("spans_dropped", double(s.spans_dropped));
    if (!s.shed_reasons.empty()) {
        util::Json reasons = util::Json::object();
        for (const auto& [reason, count] : s.shed_reasons)
            reasons.set(reason, double(count));
        j.set("shed_reasons", std::move(reasons));
    }
    util::Json models = util::Json::array();
    for (const auto& m : s.models) {
        util::Json e = util::Json::object();
        e.set("hash", m.hash_hex);
        e.set("requests", double(m.requests));
        e.set("errors", double(m.errors));
        e.set("shed", double(m.shed));
        e.set("batches", double(m.batches));
        e.set("batch_occupancy", m.batch_occupancy());
        e.set("p50_us", m.latency.p50_us);
        e.set("p95_us", m.latency.p95_us);
        e.set("p99_us", m.latency.p99_us);
        e.set("latency_samples", double(m.latency.samples));
        e.set("labeled", double(m.labeled));
        e.set("correct", double(m.correct));
        e.set("rolling_accuracy", m.rolling_accuracy);
        e.set("rolling_window", double(m.rolling_window));
        models.push_back(std::move(e));
    }
    j.set("models", std::move(models));
    // v3: quarantine state, only when some breaker has state - a clean
    // daemon's status stays byte-compatible with a v2 reader's expectations.
    std::function<util::Json()> provider;
    {
        std::lock_guard<std::mutex> lock(mu_);
        provider = breaker_provider_;
    }
    if (provider) {
        util::Json breakers = provider();
        if (breakers.is_array() && !breakers.as_array().empty())
            j.set("breakers", std::move(breakers));
    }
    return j;
}

std::string format_status_text(const util::Json& doc) {
    std::string out;
    char line[512];
    std::snprintf(line, sizeof line,
                  "serve: up %.1f s, %zu request(s), %zu shed",
                  doc.at("uptime_seconds").as_double(),
                  doc.at("total_requests").as_count(),
                  doc.at("total_shed").as_count());
    out += line;
    // v2 fields: absent from v1 files, so probe before reading.
    if (doc.contains("queue_depth")) {
        std::snprintf(line, sizeof line, ", queue %zu",
                      doc.at("queue_depth").as_count());
        out += line;
    }
    if (doc.contains("spans_dropped") &&
        doc.at("spans_dropped").as_double() > 0) {
        std::snprintf(line, sizeof line, ", %zu span(s) dropped",
                      doc.at("spans_dropped").as_count());
        out += line;
    }
    out += '\n';
    if (doc.contains("shed_reasons")) {
        for (const auto& [reason, count] : doc.at("shed_reasons").as_object()) {
            std::snprintf(line, sizeof line, "  shed[%s]: %zu\n",
                          reason.c_str(), count.as_count());
            out += line;
        }
    }
    // v3 field: absent from older files and from clean daemons.
    if (doc.contains("breakers")) {
        for (const auto& b : doc.at("breakers").as_array()) {
            if (b.at("open").as_bool()) {
                std::snprintf(line, sizeof line,
                              "  breaker[%s]: OPEN, retry in %.0f ms after "
                              "%zu failure(s); last: %s\n",
                              b.at("model").as_string().c_str(),
                              b.at("retry_after_ms").as_double(),
                              b.at("failures").as_count(),
                              b.at("last_error").as_string().c_str());
            } else {
                std::snprintf(line, sizeof line,
                              "  breaker[%s]: closed, %zu failure(s) burned\n",
                              b.at("model").as_string().c_str(),
                              b.at("failures").as_count());
            }
            out += line;
        }
    }
    for (const auto& m : doc.at("models").as_array()) {
        std::snprintf(
            line, sizeof line,
            "  %s: %zu req, %zu err, %zu shed | occupancy %.1f/64 over %zu "
            "batch(es) | p50 %.0fus p95 %.0fus p99 %.0fus",
            m.at("hash").as_string().c_str(),
            m.at("requests").as_count(),
            m.at("errors").as_count(),
            m.at("shed").as_count(),
            m.at("batch_occupancy").as_double(),
            m.at("batches").as_count(),
            m.at("p50_us").as_double(), m.at("p95_us").as_double(),
            m.at("p99_us").as_double());
        out += line;
        if (m.at("rolling_window").as_count() > 0) {
            std::snprintf(line, sizeof line,
                          " | acc %.2f%% (last %zu labeled)",
                          100.0 * m.at("rolling_accuracy").as_double(),
                          m.at("rolling_window").as_count());
            out += line;
        }
        out += '\n';
    }
    return out;
}

}  // namespace matador::serve
