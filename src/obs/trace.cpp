#include "obs/trace.hpp"

#include <chrono>

#include "util/fsio.hpp"

namespace matador::obs {

std::uint64_t wall_anchor_us() {
    // Pin the steady-clock epoch to the system clock exactly once, the
    // first time anything asks (recorder construction in practice).  The
    // two clocks are sampled back to back, so the anchor is accurate to a
    // few microseconds - coarse but ample for aligning shard tracks.
    static const std::uint64_t anchor = [] {
        detail::process_epoch();  // fix the steady epoch first
        const auto wall = std::chrono::system_clock::now().time_since_epoch();
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(wall).count();
        return std::uint64_t(us) - now_ns() / 1000;
    }();
    return anchor;
}

TraceRecorder& TraceRecorder::instance() {
    static TraceRecorder recorder;
    return recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (!buffer) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<ThreadBuffer>(next_tid_++));
        buffer = buffers_.back().get();
    }
    return *buffer;
}

void TraceRecorder::set_thread_name(std::string name) {
    ThreadBuffer& buffer = local_buffer();
    std::lock_guard<std::mutex> lock(mu_);
    buffer.name = std::move(name);
}

void TraceRecorder::set_process_name(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    process_name_ = std::move(name);
}

void TraceRecorder::record(TraceEvent ev) {
    if (!enabled()) return;
    ThreadBuffer& buffer = local_buffer();
    // Single producer per buffer: only this thread writes `events` and
    // `count`, so the plain load / release store pair publishes the slot
    // (and, on the first record, the storage itself) to exporters, which
    // never touch `events` while they read a count of 0.
    if (buffer.events.empty()) buffer.events.resize(kEventsPerThread);
    const std::size_t i = buffer.count.load(std::memory_order_relaxed);
    if (i >= buffer.events.size()) {
        buffer.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buffer.events[i] = std::move(ev);
    buffer.count.store(i + 1, std::memory_order_release);
}

void TraceRecorder::complete(const char* name, const char* cat,
                             std::uint64_t ts_ns, std::uint64_t dur_ns,
                             util::Json args) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.phase = 'X';
    ev.name = name;
    ev.cat = cat;
    ev.ts_ns = ts_ns;
    ev.dur_ns = dur_ns;
    ev.args = std::move(args);
    record(std::move(ev));
}

void TraceRecorder::instant(const char* name, const char* cat,
                            util::Json args) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.phase = 'i';
    ev.name = name;
    ev.cat = cat;
    ev.ts_ns = now_ns();
    ev.args = std::move(args);
    record(std::move(ev));
}

void TraceRecorder::instant_dyn(std::string name, const char* cat,
                                util::Json args) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.phase = 'i';
    ev.dyn_name = std::move(name);
    ev.cat = cat;
    ev.ts_ns = now_ns();
    ev.args = std::move(args);
    record(std::move(ev));
}

void TraceRecorder::counter(const char* name, double value) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.phase = 'C';
    ev.name = name;
    ev.cat = "counter";
    ev.ts_ns = now_ns();
    util::Json args = util::Json::object();
    args.set("value", value);
    ev.args = std::move(args);
    record(std::move(ev));
}

std::uint64_t TraceRecorder::recorded_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& b : buffers_)
        total += b->count.load(std::memory_order_acquire);
    return total;
}

std::uint64_t TraceRecorder::dropped_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& b : buffers_)
        total += b->dropped.load(std::memory_order_relaxed);
    return total;
}

util::Json TraceRecorder::to_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    util::Json events = util::Json::array();

    // Process metadata first, then one thread_name record per named track.
    {
        util::Json meta = util::Json::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", 1.0);
        meta.set("tid", 0.0);
        util::Json args = util::Json::object();
        args.set("name", process_name_);
        meta.set("args", std::move(args));
        events.push_back(std::move(meta));
    }

    std::uint64_t dropped = 0;
    for (const auto& buffer : buffers_) {
        dropped += buffer->dropped.load(std::memory_order_relaxed);
        const std::size_t n = buffer->count.load(std::memory_order_acquire);
        if (n == 0 && buffer->name.empty()) continue;
        {
            util::Json meta = util::Json::object();
            meta.set("name", "thread_name");
            meta.set("ph", "M");
            meta.set("pid", 1.0);
            meta.set("tid", double(buffer->tid));
            util::Json args = util::Json::object();
            args.set("name", buffer->name.empty()
                                 ? "thread-" + std::to_string(buffer->tid)
                                 : buffer->name);
            meta.set("args", std::move(args));
            events.push_back(std::move(meta));
        }
        for (std::size_t i = 0; i < n; ++i) {
            const TraceEvent& ev = buffer->events[i];
            util::Json e = util::Json::object();
            e.set("name", ev.dyn_name.empty() ? std::string(ev.name)
                                              : ev.dyn_name);
            e.set("cat", std::string(ev.cat));
            e.set("ph", std::string(1, ev.phase));
            e.set("ts", double(ev.ts_ns) / 1000.0);  // microseconds
            if (ev.phase == 'X') e.set("dur", double(ev.dur_ns) / 1000.0);
            if (ev.phase == 'i') e.set("s", "t");  // thread-scoped marker
            e.set("pid", 1.0);
            e.set("tid", double(buffer->tid));
            if (!ev.args.is_null()) e.set("args", ev.args);
            events.push_back(std::move(e));
        }
    }

    util::Json root = util::Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    util::Json other = util::Json::object();
    other.set("format", "matador-trace");
    other.set("version", double(kTraceJsonVersion));
    other.set("process_name", process_name_);
    other.set("wall_anchor_us", double(wall_anchor_us()));
    other.set("events_dropped", double(dropped));
    root.set("otherData", std::move(other));
    return root;
}

void TraceRecorder::write_file(const std::string& path) const {
    util::write_file_atomic(path, to_json().dump(1) + "\n");
}

void TraceRecorder::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
        buffer->count.store(0, std::memory_order_release);
        buffer->dropped.store(0, std::memory_order_relaxed);
    }
}

void SpanGuard::close() {
    if (!active_) return;
    active_ = false;
    TraceEvent ev;
    ev.phase = 'X';
    ev.name = name_;
    ev.dyn_name = std::move(dyn_name_);
    ev.cat = cat_;
    ev.ts_ns = start_;
    ev.dur_ns = now_ns() - start_;
    ev.args = std::move(args_);
    TraceRecorder::instance().record(std::move(ev));
}

double TimedSpan::finish(util::Json args) {
    if (!done_) {
        done_ = true;
        dur_ns_ = now_ns() - start_;
        TraceRecorder& rec = TraceRecorder::instance();
        if (rec.enabled()) {
            TraceEvent ev;
            ev.phase = 'X';
            ev.name = name_;
            ev.dyn_name = std::move(dyn_name_);
            ev.cat = cat_;
            ev.ts_ns = start_;
            ev.dur_ns = dur_ns_;
            ev.args = std::move(args);
            rec.record(std::move(ev));
        }
    }
    return double(dur_ns_) * 1e-9;
}

}  // namespace matador::obs
