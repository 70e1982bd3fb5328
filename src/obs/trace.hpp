// Low-overhead span tracing with Chrome trace-event JSON export.
//
// Every thread that records gets its own fixed-capacity event buffer, so
// the hot path is: one relaxed atomic load (the runtime enable flag), two
// steady_clock reads, and a single-producer append - no locks, no
// allocation after the buffer's first event.  The event storage itself is
// allocated by the owning thread on its first record, so a thread that is
// only named (every pool worker, every serve thread) costs a name, not
// megabytes, while tracing is off.  The registry mutex is taken only when
// a thread records its first event and at export time; an export can run
// while traffic continues (it reads each buffer up to its published count,
// and entries below that count are immutable).  A full buffer drops
// further events and counts them - tracing is best-effort telemetry, never
// backpressure.
//
// Exported JSON is the Chrome trace-event format: load the file in
// Perfetto (ui.perfetto.dev) or chrome://tracing and every named thread is
// a track of nested spans.  `dist::merge_traces` stitches the per-shard
// files of a distributed sweep into one multi-process timeline.
//
// Instrumentation macros (compiled out entirely under
// MATADOR_OBS_NO_TRACING; see the MATADOR_DISABLE_TRACING CMake option):
//
//   TRACE_SPAN("score-block", "infer");          RAII scope -> one span
//   TRACE_INSTANT("steal", "shard");             zero-duration marker
//   TRACE_COUNTER("queue_depth", depth);         a plotted counter track
//
// `TimedSpan` is the instrumented replacement for the old util::Stopwatch:
// it always measures (callers keep their wall-clock numbers even when
// tracing is off) and emits the span only when tracing is on, from the
// same two clock reads - the StageRecord seconds and the Perfetto span are
// one measurement.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/json.hpp"

namespace matador::obs {

/// One recorded event.  `name` points at a string literal on the cheap
/// path; `dyn_name` (used when non-empty) carries owned names like
/// "point 7".
struct TraceEvent {
    char phase = 'X';  ///< 'X' complete, 'i' instant, 'C' counter
    const char* name = "";
    std::string dyn_name;
    const char* cat = "";
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    util::Json args;  ///< kNull = no args member emitted
};

class TraceRecorder {
public:
    /// The process-wide recorder (tracing is inherently process-global:
    /// one timeline per process, stitched across processes at merge time).
    static TraceRecorder& instance();

    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    void disable() { enabled_.store(false, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Name the calling thread's track in the exported timeline.
    void set_thread_name(std::string name);
    /// Name this process's track group (default "matador").
    void set_process_name(std::string name);

    /// Append one event to the calling thread's buffer.  No-ops (and does
    /// not touch the clock) when tracing is disabled.
    void record(TraceEvent ev);

    /// Convenience wrappers; all check `enabled()` first.
    void complete(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, util::Json args = {});
    void instant(const char* name, const char* cat, util::Json args = {});
    void instant_dyn(std::string name, const char* cat, util::Json args = {});
    void counter(const char* name, double value);

    /// Events recorded / dropped (buffer-full) so far, all threads.
    std::uint64_t recorded_total() const;
    std::uint64_t dropped_total() const;

    /// The Chrome trace-event document for everything recorded so far.
    /// Safe to call while other threads keep recording.
    static constexpr unsigned kTraceJsonVersion = 1;
    util::Json to_json() const;
    /// Atomically write `to_json()` to `path`.
    void write_file(const std::string& path) const;

    /// Drop every recorded event and re-arm empty buffers.  Only call at a
    /// quiet point (process start, post-fork shard start, test setup).
    void reset();

    /// Fixed per-thread buffer capacity, in events.
    static constexpr std::size_t kEventsPerThread = 1u << 16;

private:
    struct ThreadBuffer {
        explicit ThreadBuffer(unsigned id) : tid(id) {}
        /// Empty until the owning thread's first record, then sized to
        /// kEventsPerThread (before the first release of `count`) and never
        /// resized again.
        std::vector<TraceEvent> events;
        std::atomic<std::size_t> count{0};  ///< published events (release)
        std::atomic<std::uint64_t> dropped{0};
        unsigned tid;
        std::string name;  ///< guarded by the registry mutex
    };

    TraceRecorder() = default;
    ThreadBuffer& local_buffer();

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;  ///< buffer list + thread/process names
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    unsigned next_tid_ = 1;
    std::string process_name_ = "matador";
};

/// RAII span for the TRACE_SPAN macro.  When tracing is disabled the
/// constructor is one relaxed atomic load and the destructor one branch.
class SpanGuard {
public:
    SpanGuard(const char* name, const char* cat)
        : name_(name), cat_(cat), active_(TraceRecorder::instance().enabled()) {
        if (active_) start_ = now_ns();
    }
    SpanGuard(std::string name, const char* cat)
        : name_(""), cat_(cat), active_(TraceRecorder::instance().enabled()) {
        if (active_) {
            dyn_name_ = std::move(name);
            start_ = now_ns();
        }
    }
    ~SpanGuard() { close(); }

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

    /// Attach an args object, emitted with the span when it closes.
    void set_args(util::Json args) {
        if (active_) args_ = std::move(args);
    }

    /// End the span now (idempotent; the destructor calls it too).
    void close();

private:
    const char* name_;
    std::string dyn_name_;
    const char* cat_;
    util::Json args_;
    std::uint64_t start_ = 0;
    bool active_;
};

/// Measuring span: the util::Stopwatch replacement for code that reports
/// wall-clock numbers.  Always reads the clock; emits the trace span (from
/// the same reads) only when tracing is enabled.
class TimedSpan {
public:
    TimedSpan(const char* name, const char* cat)
        : name_(name), cat_(cat), start_(now_ns()) {}
    TimedSpan(std::string name, const char* cat)
        : name_(""), dyn_name_(std::move(name)), cat_(cat), start_(now_ns()) {}
    ~TimedSpan() {
        if (!done_) finish();
    }

    TimedSpan(const TimedSpan&) = delete;
    TimedSpan& operator=(const TimedSpan&) = delete;

    /// Elapsed seconds so far (the span stays open).
    double seconds() const { return double(now_ns() - start_) * 1e-9; }

    /// Close the span and return its duration in seconds - the one number
    /// both the report and the trace carry.  Idempotent.
    double finish(util::Json args = {});

private:
    const char* name_;
    std::string dyn_name_;
    const char* cat_;
    std::uint64_t start_;
    std::uint64_t dur_ns_ = 0;
    bool done_ = false;
};

/// Name the calling thread's track (no-op until it records with tracing
/// enabled is fine too - the name sticks to the thread's buffer).
inline void set_thread_name(std::string name) {
    TraceRecorder::instance().set_thread_name(std::move(name));
}

#define MATADOR_OBS_CAT2(a, b) a##b
#define MATADOR_OBS_CAT(a, b) MATADOR_OBS_CAT2(a, b)

#ifndef MATADOR_OBS_NO_TRACING
#define TRACE_SPAN(name, cat) \
    ::matador::obs::SpanGuard MATADOR_OBS_CAT(obs_span_, __LINE__)(name, cat)
#define TRACE_INSTANT(name, cat) \
    ::matador::obs::TraceRecorder::instance().instant(name, cat)
#define TRACE_COUNTER(name, value) \
    ::matador::obs::TraceRecorder::instance().counter(name, double(value))
#else
#define TRACE_SPAN(name, cat) ((void)0)
#define TRACE_INSTANT(name, cat) ((void)0)
#define TRACE_COUNTER(name, value) ((void)0)
#endif

}  // namespace matador::obs
