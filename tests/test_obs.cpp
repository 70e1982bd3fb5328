// Tests for the observability subsystem: span recording and thread
// tracks, Chrome-trace JSON export, histogram/LatencyRing percentile
// parity, registry concurrency (the TSan job runs this binary), the
// cross-shard merge helpers, and serve-status wire-format back-compat.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/metrics.hpp"
#include "util/json.hpp"

namespace {

using matador::util::Json;
namespace obs = matador::obs;
namespace serve = matador::serve;

/// Every test starts and ends with the process-global recorder disabled
/// and empty, so tests compose in one gtest process.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().reset();
    }
    void TearDown() override {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().reset();
    }
};

/// All trace events with the given ph/name from an exported document.
std::vector<Json> find_events(const Json& doc, const std::string& ph,
                              const std::string& name) {
    std::vector<Json> out;
    for (const Json& ev : doc.at("traceEvents").as_array())
        if (ev.at("ph").as_string() == ph && ev.at("name").as_string() == name)
            out.push_back(ev);
    return out;
}

TEST_F(ObsTest, SpanNestingSharesOneTimelinePerThread) {
    auto& rec = obs::TraceRecorder::instance();
    rec.enable();
    {
        obs::SpanGuard outer("outer", "test");
        {
            obs::SpanGuard inner("inner", "test");
            inner.close();
        }
        outer.close();
    }
    rec.disable();

    const Json doc = rec.to_json();
    const auto outer = find_events(doc, "X", "outer");
    const auto inner = find_events(doc, "X", "inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);

    // Same thread -> same track; the inner span is contained in the outer.
    EXPECT_EQ(outer[0].at("tid").as_double(), inner[0].at("tid").as_double());
    const double o_start = outer[0].at("ts").as_double();
    const double o_end = o_start + outer[0].at("dur").as_double();
    const double i_start = inner[0].at("ts").as_double();
    const double i_end = i_start + inner[0].at("dur").as_double();
    EXPECT_LE(o_start, i_start);
    EXPECT_LE(i_end, o_end);
}

TEST_F(ObsTest, NamedThreadsGetTheirOwnTracks) {
    auto& rec = obs::TraceRecorder::instance();
    rec.enable();
    {
        obs::SpanGuard main_span("main-span", "test");
        main_span.close();
    }
    std::thread worker([&] {
        obs::set_thread_name("obs-worker");
        obs::SpanGuard span("worker-span", "test");
        span.close();
    });
    worker.join();
    rec.disable();

    const Json doc = rec.to_json();
    const auto main_ev = find_events(doc, "X", "main-span");
    const auto worker_ev = find_events(doc, "X", "worker-span");
    ASSERT_EQ(main_ev.size(), 1u);
    ASSERT_EQ(worker_ev.size(), 1u);
    EXPECT_NE(main_ev[0].at("tid").as_double(),
              worker_ev[0].at("tid").as_double());

    // The worker's track carries its name as 'M' metadata.
    bool named = false;
    for (const Json& ev : find_events(doc, "M", "thread_name"))
        named = named ||
                (ev.at("tid").as_double() == worker_ev[0].at("tid").as_double() &&
                 ev.at("args").at("name").as_string() == "obs-worker");
    EXPECT_TRUE(named);
}

TEST_F(ObsTest, DisabledRecorderCostsNoEventsButTimedSpanStillMeasures) {
    auto& rec = obs::TraceRecorder::instance();
    ASSERT_FALSE(rec.enabled());
    const std::uint64_t before = rec.recorded_total();
    {
        TRACE_SPAN("invisible", "test");
        TRACE_INSTANT("invisible", "test");
        TRACE_COUNTER("invisible", 1);
    }
    obs::TimedSpan watch("timed", "test");
    const double secs = watch.finish();
    EXPECT_GE(secs, 0.0);
    EXPECT_EQ(rec.recorded_total(), before);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MATADOR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MATADOR_TEST_SANITIZED 1
#endif
#endif

/// Resident set size of this process, in bytes (0 when unreadable).
std::size_t vm_rss_bytes() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmRSS:", 0) == 0) return std::stoul(line.substr(6)) * 1024;
    return 0;
}

TEST_F(ObsTest, NamedThreadsWithTracingOffAllocateNoEventStorage) {
#ifdef MATADOR_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory skews VmRSS";
#endif
    auto& rec = obs::TraceRecorder::instance();
    ASSERT_FALSE(rec.enabled());
    const std::size_t before = vm_rss_bytes();
    ASSERT_GT(before, 0u);
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([i] {
            obs::set_thread_name("rss-" + std::to_string(i));
            TRACE_SPAN("invisible", "test");
        });
    for (auto& t : threads) t.join();
    // One full event buffer is kEventsPerThread events (about 11 MB); a
    // named thread that never records must not pay for it.
    EXPECT_LT(vm_rss_bytes(), before + (std::size_t(16) << 20));

    // The names still export as tracks.
    int named = 0;
    for (const Json& ev : find_events(rec.to_json(), "M", "thread_name"))
        named += ev.at("args").at("name").as_string().rfind("rss-", 0) == 0;
    EXPECT_EQ(named, kThreads);
}

TEST_F(ObsTest, ExportRacesThreadsRecordingTheirFirstEvents) {
    // Each thread allocates its event storage on its first record while
    // the main thread keeps exporting (the TSan job runs this).
    auto& rec = obs::TraceRecorder::instance();
    rec.enable();
    constexpr int kThreads = 4;
    constexpr int kSpans = 200;
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            obs::set_thread_name("racer-" + std::to_string(i));
            for (int s = 0; s < kSpans; ++s) obs::SpanGuard span("racer-span", "test");
            done.fetch_add(1);
        });
    while (done.load() < kThreads) rec.to_json();
    for (auto& t : threads) t.join();
    rec.disable();
    EXPECT_EQ(find_events(rec.to_json(), "X", "racer-span").size(),
              std::size_t(kThreads * kSpans));
}

TEST_F(ObsTest, FullBufferDropsAndCounts) {
    auto& rec = obs::TraceRecorder::instance();
    rec.enable();
    const std::size_t extra = 10;
    for (std::size_t i = 0; i < obs::TraceRecorder::kEventsPerThread + extra;
         ++i)
        rec.instant("tick", "test");
    rec.disable();
    EXPECT_EQ(rec.dropped_total(), extra);
    const Json doc = rec.to_json();
    EXPECT_EQ(doc.at("otherData").at("events_dropped").as_double(),
              double(extra));
}

TEST_F(ObsTest, TraceJsonStrictParsesWithExpectedShape) {
    auto& rec = obs::TraceRecorder::instance();
    rec.enable();
    {
        obs::SpanGuard span("shaped", "test");
        Json args = Json::object();
        args.set("k", 7.0);
        span.set_args(std::move(args));
        span.close();
    }
    rec.instant("marker", "test");
    rec.counter("depth", 3.0);
    rec.disable();

    // The exported text must survive the strict parser and round back to
    // the same document.
    const Json doc = rec.to_json();
    const Json parsed = Json::parse(doc.dump(1));
    EXPECT_EQ(parsed.dump(), doc.dump());

    EXPECT_EQ(parsed.at("otherData").at("format").as_string(), "matador-trace");
    EXPECT_EQ(parsed.at("otherData").at("version").as_double(),
              double(obs::TraceRecorder::kTraceJsonVersion));
    const auto span = find_events(parsed, "X", "shaped");
    ASSERT_EQ(span.size(), 1u);
    EXPECT_EQ(span[0].at("args").at("k").as_double(), 7.0);
    const auto marker = find_events(parsed, "i", "marker");
    ASSERT_EQ(marker.size(), 1u);
    EXPECT_EQ(marker[0].at("s").as_string(), "t");
    const auto counter = find_events(parsed, "C", "depth");
    ASSERT_EQ(counter.size(), 1u);
    EXPECT_EQ(counter[0].at("args").at("value").as_double(), 3.0);
}

TEST(ObsMetrics, HistogramQuantilesBitMatchLatencyRing) {
    // Identical sample streams through both implementations, past the ring
    // capacity so the wrap path is exercised; percentiles must be
    // bit-identical (same capacity, same nearest-rank formula).
    obs::Histogram hist;       // default 4096
    serve::LatencyRing ring;   // default 4096
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < 6000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const double sample = double(state >> 40);
        hist.record(sample);
        ring.record(sample);
    }
    const obs::Histogram::Quantiles h = hist.quantiles();
    const serve::LatencyRing::Quantiles r = ring.quantiles();
    EXPECT_EQ(h.samples, r.samples);
    EXPECT_EQ(h.p50, r.p50_us);
    EXPECT_EQ(h.p95, r.p95_us);
    EXPECT_EQ(h.p99, r.p99_us);
    EXPECT_EQ(hist.count(), 6000u);
}

TEST(ObsMetrics, ConcurrentWritersNeverLoseCounts) {
    // Registration races with recording on purpose: the TSan CI job runs
    // this to prove the lock-free paths are clean.
    obs::MetricsRegistry reg;
    constexpr unsigned kThreads = 8;
    constexpr std::size_t kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, t] {
            auto& c = reg.counter("shared_counter");
            auto& h = reg.histogram("shared_hist");
            auto& g = reg.gauge("shared_gauge");
            for (std::size_t i = 0; i < kAddsPerThread; ++i) {
                c.add();
                h.record(double(t));
                g.set(double(t));
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(reg.counter("shared_counter").value(), kThreads * kAddsPerThread);
    EXPECT_EQ(reg.histogram("shared_hist").count(),
              std::uint64_t(kThreads) * kAddsPerThread);
    EXPECT_GE(reg.gauge("shared_gauge").value(), 0.0);
    EXPECT_LT(reg.gauge("shared_gauge").value(), double(kThreads));
}

TEST(ObsMetrics, ResetZeroesValuesButKeepsHandles) {
    obs::MetricsRegistry reg;
    obs::Counter& c = reg.counter("c");
    obs::Histogram& h = reg.histogram("h");
    c.add(5);
    h.record(1.0);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    c.add(2);  // the old reference still feeds the same series
    EXPECT_EQ(reg.counter("c").value(), 2u);
}

TEST(ObsMetrics, JsonAndPrometheusExports) {
    obs::MetricsRegistry reg;
    reg.counter("hits", {{"stage", "train"}}).add(3);
    reg.gauge("wall_seconds").set(1.5);
    obs::Histogram& h = reg.histogram("latency_us");
    for (int i = 1; i <= 100; ++i) h.record(double(i));

    const Json doc = reg.to_json();
    EXPECT_EQ(doc.at("format").as_string(), "matador-metrics");
    EXPECT_EQ(doc.at("version").as_double(),
              double(obs::MetricsRegistry::kMetricsJsonVersion));
    ASSERT_EQ(doc.at("counters").as_array().size(), 1u);
    EXPECT_EQ(doc.at("counters").as_array()[0].at("value").as_double(), 3.0);
    EXPECT_EQ(doc.at("counters")
                  .as_array()[0]
                  .at("labels")
                  .at("stage")
                  .as_string(),
              "train");
    ASSERT_EQ(doc.at("histograms").as_array().size(), 1u);
    EXPECT_EQ(doc.at("histograms").as_array()[0].at("samples").as_array().size(),
              100u);

    const std::string prom = reg.to_prometheus();
    EXPECT_NE(prom.find("# TYPE hits counter"), std::string::npos);
    EXPECT_NE(prom.find("hits{stage=\"train\"} 3"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE latency_us summary"), std::string::npos);
    EXPECT_NE(prom.find("latency_us_count 100"), std::string::npos);

    // The file formatter renders the same shape from the JSON document.
    EXPECT_EQ(obs::format_metrics_prometheus(doc), prom);
}

namespace {

/// A minimal matador-trace document: one process_name record plus one
/// complete event at `ts_us`, anchored at `anchor_us`.
Json make_trace(const std::string& process, double anchor_us, double ts_us) {
    Json events = Json::array();
    {
        Json meta = Json::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", 1.0);
        meta.set("tid", 0.0);
        Json args = Json::object();
        args.set("name", process);
        meta.set("args", std::move(args));
        events.push_back(std::move(meta));
    }
    {
        Json e = Json::object();
        e.set("name", "work");
        e.set("cat", "test");
        e.set("ph", "X");
        e.set("ts", ts_us);
        e.set("dur", 10.0);
        e.set("pid", 1.0);
        e.set("tid", 1.0);
        events.push_back(std::move(e));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    Json other = Json::object();
    other.set("format", "matador-trace");
    other.set("version", 1.0);
    other.set("process_name", process);
    other.set("wall_anchor_us", anchor_us);
    other.set("events_dropped", 0.0);
    root.set("otherData", std::move(other));
    return root;
}

}  // namespace

TEST(ObsMerge, TracesGetDistinctPidsAndAlignedTimelines) {
    // Shard b started 500us after shard a; its events shift forward by
    // exactly that offset in the merged timeline.
    const Json a = make_trace("shard-a", 1000.0, 100.0);
    const Json b = make_trace("shard-b", 1500.0, 100.0);
    const Json merged = obs::merge_traces({a, b}, {"track-a", "track-b"});

    EXPECT_EQ(merged.at("otherData").at("merged_from").as_double(), 2.0);
    std::vector<double> pids;
    double a_ts = -1.0, b_ts = -1.0;
    bool renamed_a = false, renamed_b = false;
    for (const Json& ev : merged.at("traceEvents").as_array()) {
        if (ev.at("ph").as_string() == "X") {
            pids.push_back(ev.at("pid").as_double());
            if (ev.at("pid").as_double() == 1.0) a_ts = ev.at("ts").as_double();
            if (ev.at("pid").as_double() == 2.0) b_ts = ev.at("ts").as_double();
        }
        if (ev.at("ph").as_string() == "M" &&
            ev.at("name").as_string() == "process_name") {
            const std::string name = ev.at("args").at("name").as_string();
            renamed_a = renamed_a || name == "track-a";
            renamed_b = renamed_b || name == "track-b";
        }
    }
    ASSERT_EQ(pids.size(), 2u);
    EXPECT_EQ(a_ts, 100.0);
    EXPECT_EQ(b_ts, 600.0);  // 100 + (1500 - 1000)
    EXPECT_TRUE(renamed_a);
    EXPECT_TRUE(renamed_b);
}

TEST(ObsMerge, MetricsSumCountersMaxGaugesRecomputeQuantiles) {
    obs::MetricsRegistry r1, r2;
    r1.counter("points").add(3);
    r2.counter("points").add(4);
    r1.gauge("wall").set(2.0);
    r2.gauge("wall").set(5.0);
    for (int i = 1; i <= 50; ++i) r1.histogram("lat").record(double(i));
    for (int i = 51; i <= 100; ++i) r2.histogram("lat").record(double(i));

    const Json merged = obs::merge_metrics({r1.to_json(), r2.to_json()});
    EXPECT_EQ(merged.at("counters").as_array()[0].at("value").as_double(), 7.0);
    EXPECT_EQ(merged.at("gauges").as_array()[0].at("value").as_double(), 5.0);
    const Json& hist = merged.at("histograms").as_array()[0];
    EXPECT_EQ(hist.at("count").as_double(), 100.0);
    EXPECT_EQ(hist.at("sum").as_double(), 5050.0);

    // The union 1..100 has exact nearest-rank quantiles; a single registry
    // fed the same 100 samples must agree (merge = one big histogram).
    obs::MetricsRegistry all;
    for (int i = 1; i <= 100; ++i) all.histogram("lat").record(double(i));
    const obs::Histogram::Quantiles q = all.histogram("lat").quantiles();
    EXPECT_EQ(hist.at("p50").as_double(), q.p50);
    EXPECT_EQ(hist.at("p95").as_double(), q.p95);
    EXPECT_EQ(hist.at("p99").as_double(), q.p99);

    // Both renderings accept the merged document.
    EXPECT_NE(obs::format_metrics_text(merged).find("points"),
              std::string::npos);
    EXPECT_NE(obs::format_metrics_prometheus(merged).find("# TYPE points"),
              std::string::npos);
}

TEST_F(ObsTest, ServeStatusV2CarriesQueueDepthAndShedReasons) {
    serve::ServeMetrics metrics;
    metrics.record_response("abcd1234", 120.0, true);
    metrics.record_response("abcd1234", 180.0, std::nullopt);
    metrics.record_shed("abcd1234", "queue-full", 9);

    const Json doc = metrics.snapshot_json();
    EXPECT_EQ(doc.at("version").as_double(),
              double(serve::ServeMetrics::kStatusVersion));
    EXPECT_EQ(doc.at("queue_depth").as_double(), 9.0);
    EXPECT_EQ(doc.at("shed_reasons").at("queue-full").as_double(), 1.0);

    const std::string text = serve::format_status_text(doc);
    EXPECT_NE(text.find("2 request(s), 1 shed, queue 9"), std::string::npos);
    EXPECT_NE(text.find("shed[queue-full]: 1"), std::string::npos);
    EXPECT_NE(text.find("abcd1234: 2 req"), std::string::npos);
}

TEST(ObsServeStatus, FormatterReadsV1Documents) {
    // A wire document written before queue_depth / spans_dropped /
    // shed_reasons existed; the reader must render it without the fields
    // the file predates.
    Json model = Json::object();
    model.set("hash", "cafe0001");
    model.set("requests", 5.0);
    model.set("errors", 0.0);
    model.set("shed", 1.0);
    model.set("batches", 2.0);
    model.set("batch_occupancy", 2.5);
    model.set("p50_us", 100.0);
    model.set("p95_us", 200.0);
    model.set("p99_us", 300.0);
    model.set("latency_samples", 5.0);
    model.set("labeled", 4.0);
    model.set("correct", 3.0);
    model.set("rolling_accuracy", 0.75);
    model.set("rolling_window", 4.0);
    Json models = Json::array();
    models.push_back(std::move(model));

    Json v1 = Json::object();
    v1.set("format", "matador-serve-status");
    v1.set("version", 1.0);
    v1.set("uptime_seconds", 12.5);
    v1.set("total_requests", 5.0);
    v1.set("total_shed", 1.0);
    v1.set("models", std::move(models));

    const std::string text = serve::format_status_text(v1);
    EXPECT_NE(text.find("serve: up 12.5 s, 5 request(s), 1 shed\n"),
              std::string::npos);
    EXPECT_EQ(text.find("queue"), std::string::npos);
    EXPECT_EQ(text.find("dropped"), std::string::npos);
    EXPECT_NE(text.find("cafe0001: 5 req, 0 err, 1 shed"), std::string::npos);
    EXPECT_NE(text.find("acc 75.00% (last 4 labeled)"), std::string::npos);
}

}  // namespace
