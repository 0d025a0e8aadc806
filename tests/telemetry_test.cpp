// Tests for the telemetry layer: registration, recording semantics, scope
// nesting, the deterministic metrics export, and the campaign/fuzz contract
// that aggregated metrics are byte-identical at any --jobs value.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "fuzz/fuzzer.hpp"
#include "io/json.hpp"
#include "runner/campaign.hpp"
#include "telemetry/sinks.hpp"

namespace adhoc {
namespace {

namespace tel = telemetry;

/// Tests toggle the global switch; always restore it so ordering between
/// test cases cannot matter.
class EnabledGuard {
  public:
    explicit EnabledGuard(bool on) : prev_(tel::enabled()) { tel::set_enabled(on); }
    ~EnabledGuard() { tel::set_enabled(prev_); }

  private:
    bool prev_;
};

// ---------------------------------------------------------- registration --

TEST(TelemetryRegistry, SameNameYieldsSameId) {
    const tel::MetricId a = tel::counter("test.registry.dedupe", "events");
    const tel::MetricId b = tel::counter("test.registry.dedupe", "events");
    EXPECT_EQ(a, b);
    EXPECT_EQ(tel::metric(a).name, "test.registry.dedupe");
    EXPECT_EQ(tel::metric(a).kind, tel::Kind::kCounter);
    EXPECT_EQ(tel::metric(a).unit, "events");
}

TEST(TelemetryRegistry, DistinctNamesYieldDistinctIds) {
    const tel::MetricId a = tel::counter("test.registry.a");
    const tel::MetricId b = tel::counter("test.registry.b");
    EXPECT_NE(a, b);
    EXPECT_LT(a, tel::metric_count());
    EXPECT_LT(b, tel::metric_count());
}

// ------------------------------------------------------------- recording --

TEST(TelemetryRecording, DisabledRecordingIsInvisible) {
    const tel::MetricId id = tel::counter("test.disabled.counter");
    EnabledGuard guard(false);
    tel::RunScope scope;
    tel::count(id, 5);
    tel::observe(tel::histogram("test.disabled.hist", {1, 2}), 1);
    EXPECT_TRUE(scope.harvest().empty());
}

TEST(TelemetryRecording, CounterAccumulatesCountAndSum) {
    const tel::MetricId id = tel::counter("test.counter.sum");
    EnabledGuard guard(true);
    tel::RunScope scope;
    tel::count(id);
    tel::count(id, 9);
    const tel::Snapshot snap = scope.harvest();
    ASSERT_GT(snap.values().size(), id);
    EXPECT_EQ(snap.values()[id].count, 2u);
    EXPECT_EQ(snap.values()[id].sum, 10u);
}

TEST(TelemetryRecording, GaugeKeepsMaximum) {
    const tel::MetricId id = tel::gauge("test.gauge.max");
    EnabledGuard guard(true);
    tel::RunScope scope;
    tel::gauge_sample(id, 3);
    tel::gauge_sample(id, 40);
    tel::gauge_sample(id, 7);
    const tel::Snapshot snap = scope.harvest();
    ASSERT_GT(snap.values().size(), id);
    EXPECT_EQ(snap.values()[id].max, 40u);
    EXPECT_EQ(snap.values()[id].count, 3u);
}

TEST(TelemetryRecording, HistogramBucketsByUpperBound) {
    // Bounds {2, 5}: buckets are (<=2), (<=5), (>5).
    const tel::MetricId id = tel::histogram("test.hist.buckets", {2, 5});
    EnabledGuard guard(true);
    tel::RunScope scope;
    for (const std::uint64_t sample : {1u, 2u, 3u, 5u, 6u, 100u}) tel::observe(id, sample);
    const tel::Snapshot snap = scope.harvest();
    ASSERT_GT(snap.values().size(), id);
    const tel::MetricValue& v = snap.values()[id];
    EXPECT_EQ(v.count, 6u);
    EXPECT_EQ(v.max, 100u);
    ASSERT_EQ(v.buckets.size(), 3u);
    EXPECT_EQ(v.buckets[0], 2u);  // 1, 2
    EXPECT_EQ(v.buckets[1], 2u);  // 3, 5
    EXPECT_EQ(v.buckets[2], 2u);  // 6, 100
}

TEST(TelemetryRecording, ScopedTimerLandsInEnclosingScope) {
    const tel::MetricId id = tel::timer("test.timer.scope");
    EnabledGuard guard(true);
    tel::RunScope scope;
    { tel::ScopedTimer span(id); }
    const tel::Snapshot snap = scope.harvest();
    ASSERT_GT(snap.values().size(), id);
    EXPECT_EQ(snap.values()[id].count, 1u);
    // Wall-clock timers are excluded from the deterministic export...
    EXPECT_EQ(tel::metrics_json(snap, /*include_timing=*/false), "{}");
    // ...but present in the diagnostic one.
    EXPECT_NE(tel::metrics_json(snap, /*include_timing=*/true).find("test.timer.scope"),
              std::string::npos);
}

// --------------------------------------------------------------- scoping --

TEST(TelemetryScoping, UnharvestedScopeFoldsIntoParent) {
    const tel::MetricId id = tel::counter("test.scope.fold");
    EnabledGuard guard(true);
    tel::RunScope outer;
    {
        tel::RunScope inner;
        tel::count(id, 4);
    }  // no harvest: rolls up
    const tel::Snapshot snap = outer.harvest();
    ASSERT_GT(snap.values().size(), id);
    EXPECT_EQ(snap.values()[id].sum, 4u);
}

TEST(TelemetryScoping, HarvestedScopeDoesNotLeakToParent) {
    const tel::MetricId id = tel::counter("test.scope.leak");
    EnabledGuard guard(true);
    tel::RunScope outer;
    tel::Snapshot inner_snap;
    {
        tel::RunScope inner;
        tel::count(id, 4);
        inner_snap = inner.harvest();
    }
    ASSERT_GT(inner_snap.values().size(), id);
    EXPECT_EQ(inner_snap.values()[id].sum, 4u);
    const tel::Snapshot outer_snap = outer.harvest();
    const bool leaked =
        outer_snap.values().size() > id && !outer_snap.values()[id].empty();
    EXPECT_FALSE(leaked);
}

TEST(TelemetrySnapshot, MergeIsElementWise) {
    const tel::MetricId id = tel::counter("test.snapshot.merge");
    EnabledGuard guard(true);
    tel::Snapshot a, b;
    a.add_count(id, 3);
    b.add_count(id, 5);
    a.merge(b);
    EXPECT_EQ(a.values()[id].sum, 8u);
    EXPECT_EQ(a.values()[id].count, 2u);
}

// -------------------------------------------------------- metrics export --

TEST(MetricsJson, SortedKeysAndStableShape) {
    const tel::MetricId zebra = tel::counter("test.json.zebra");
    const tel::MetricId apple = tel::counter("test.json.apple");
    tel::Snapshot snap;
    snap.add_count(zebra, 1);
    snap.add_count(apple, 2);
    const std::string json = tel::metrics_json(snap, /*include_timing=*/false);
    const std::size_t at_apple = json.find("test.json.apple");
    const std::size_t at_zebra = json.find("test.json.zebra");
    ASSERT_NE(at_apple, std::string::npos);
    ASSERT_NE(at_zebra, std::string::npos);
    EXPECT_LT(at_apple, at_zebra);  // keys sorted by name
    EXPECT_NE(json.find("\"kind\": \"counter\", \"value\": 2"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsJson, HistogramRendersPercentiles) {
    const tel::MetricId id = tel::histogram("test.json.hist.pct", {2, 5, 10});
    EnabledGuard guard(true);
    tel::RunScope scope;
    // 10 samples: 8 land <= 2, one <= 5, one overflows (max 42).
    for (int i = 0; i < 8; ++i) tel::observe(id, 1);
    tel::observe(id, 4);
    tel::observe(id, 42);
    const tel::Snapshot snap = scope.harvest();
    const std::string json = tel::metrics_json(snap, /*include_timing=*/false);
    EXPECT_NE(json.find("\"p50\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p95\": 42"), std::string::npos) << json;  // rank 10: overflow
    EXPECT_NE(json.find("\"p99\": 42"), std::string::npos) << json;
}

TEST(MetricsJson, HistogramQuantileResolvesBounds) {
    const std::vector<std::uint64_t> bounds = {2, 5, 10};
    // 4 in (<=2), 4 in (<=5), 1 in (<=10), 1 overflow; max sample 77.
    const std::vector<std::uint64_t> buckets = {4, 4, 1, 1};
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.40), 2u);   // rank 4: first bucket
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.50), 5u);   // rank 5: second bucket
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.80), 5u);   // rank 8
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.90), 10u);  // rank 9
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.99), 77u);  // rank 10: overflow
    EXPECT_EQ(tel::histogram_quantile(bounds, buckets, 77, 0.0), 2u);    // rank >= 1
    EXPECT_EQ(tel::histogram_quantile(bounds, {}, 77, 0.5), 0u);         // empty
}

// ---------------------------------------------- campaign/fuzz determinism --

TEST(TelemetryDeterminism, CampaignMetricsBitIdenticalAcrossJobCounts) {
    // The tentpole contract: the deterministic metrics export of two
    // identical campaigns must be byte-identical at --jobs 1 and --jobs 8.
    EnabledGuard guard(true);
    const FloodingAlgorithm flooding;
    const GenericBroadcast generic(generic_fr_config(2));
    const std::vector<const BroadcastAlgorithm*> algos{&flooding, &generic};

    ExperimentConfig cfg;
    cfg.node_counts = {20, 30, 40};
    cfg.min_runs = 10;
    cfg.max_runs = 40;
    cfg.seed = 99;

    const auto metrics_at_jobs = [&](std::size_t jobs) {
        tel::Snapshot snap;
        runner::CampaignOptions options;
        options.jobs = jobs;
        options.telemetry_out = &snap;
        (void)runner::run_campaign(algos, cfg, options);
        return tel::metrics_json(snap, /*include_timing=*/false);
    };

    const std::string serial = metrics_at_jobs(1);
    const std::string parallel = metrics_at_jobs(8);
    EXPECT_EQ(serial, parallel);
    // Spot-check the content is real, not two empty objects.
    EXPECT_NE(serial.find("campaign.runs"), std::string::npos);
    EXPECT_NE(serial.find("campaign.rounds"), std::string::npos);
    EXPECT_NE(serial.find("sim.transmissions"), std::string::npos);
    EXPECT_NE(serial.find("protocol.decisions"), std::string::npos);
    EXPECT_EQ(serial.find("campaign.run\""), std::string::npos);  // timer excluded
}

TEST(TelemetryDeterminism, DisabledCampaignLeavesSnapshotEmpty) {
    EnabledGuard guard(false);
    const FloodingAlgorithm flooding;
    ExperimentConfig cfg;
    cfg.node_counts = {20};
    cfg.min_runs = 4;
    cfg.max_runs = 4;
    tel::Snapshot snap;
    runner::CampaignOptions options;
    options.telemetry_out = &snap;
    (void)runner::run_campaign({&flooding}, cfg, options);
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(tel::metrics_json(snap, /*include_timing=*/false), "{}");
}

TEST(TelemetryDeterminism, FuzzMetricsBitIdenticalAcrossJobCounts) {
    EnabledGuard guard(true);
    fuzz::FuzzOptions options;
    options.base_seed = 7;
    options.iterations = 24;
    options.limits.max_nodes = 16;

    options.jobs = 1;
    const fuzz::FuzzReport serial = fuzz::run_fuzz(options);
    options.jobs = 4;
    const fuzz::FuzzReport parallel = fuzz::run_fuzz(options);

    const std::string a = tel::metrics_json(serial.metrics, /*include_timing=*/false);
    const std::string b = tel::metrics_json(parallel.metrics, /*include_timing=*/false);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("fuzz.scenarios"), std::string::npos);
}

// --------------------------------------------------------- span pipeline --

TEST(SpanPipeline, ParseSpanLineRoundTrip) {
    // Exactly the line shape detail::jsonl_consume_spans writes.
    const std::string line =
        "{\"type\": \"span\", \"name\": \"sim.run\", \"ts_ns\": 1200, "
        "\"dur_ns\": 3400, \"tid\": 2}";
    const auto record = tel::parse_span_line(line);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->name, "sim.run");
    EXPECT_EQ(record->ts_ns, 1200u);
    EXPECT_EQ(record->dur_ns, 3400u);
    EXPECT_EQ(record->tid, 2u);

    // A value that spells a later key must not be read as that key.
    const auto named_tid = tel::parse_span_line(
        "{\"type\": \"span\", \"name\": \"tid\", \"ts_ns\": 5, \"dur_ns\": 7, \"tid\": 1}");
    ASSERT_TRUE(named_tid.has_value());
    EXPECT_EQ(named_tid->name, "tid");
    EXPECT_EQ(named_tid->ts_ns, 5u);
    EXPECT_EQ(named_tid->dur_ns, 7u);
    EXPECT_EQ(named_tid->tid, 1u);

    // Every escape json_escape writes decodes back: a\tb, not atb.
    const auto tabbed = tel::parse_span_line(
        "{\"type\": \"span\", \"name\": \"" + io::json_escape("a\tb") +
        "\", \"ts_ns\": 1, \"dur_ns\": 2, \"tid\": 3}");
    ASSERT_TRUE(tabbed.has_value());
    EXPECT_EQ(tabbed->name, "a\tb");
}

TEST(SpanPipeline, ParseSpanLineRejectsOtherRecords) {
    EXPECT_FALSE(tel::parse_span_line("{\"type\": \"run\", \"label\": \"x\"}").has_value());
    EXPECT_FALSE(tel::parse_span_line("").has_value());
    EXPECT_FALSE(tel::parse_span_line("{\"type\": \"span\", \"name\": \"x\"}").has_value());
}

TEST(SpanPipeline, SpansCollectedWhenEnabled) {
    const tel::MetricId id = tel::timer("test.span.collect");
    EnabledGuard guard(true);
    tel::set_spans_enabled(true);
    (void)tel::drain_spans();  // discard anything earlier tests left behind
    {
        tel::RunScope scope;
        { tel::ScopedTimer span(id); }
        (void)scope.harvest();  // flushes this thread's span buffer
    }
    const std::vector<tel::Span> spans = tel::drain_spans();
    tel::set_spans_enabled(false);
    const bool found = std::any_of(spans.begin(), spans.end(),
                                   [&](const tel::Span& s) { return s.metric == id; });
    EXPECT_TRUE(found);
}

TEST(ChromeTrace, WriterEmitsLoadableStructure) {
    std::vector<tel::ChromeEvent> events;
    tel::ChromeEvent complete;
    complete.name = "transmit";
    complete.ph = 'X';
    complete.tid = 3;
    complete.ts_us = 1.5;
    complete.dur_us = 2.0;
    events.push_back(complete);
    tel::ChromeEvent instant;
    instant.name = "prune";
    instant.ph = 'i';
    instant.tid = 4;
    instant.ts_us = 9.0;
    events.push_back(instant);

    std::ostringstream out;
    tel::write_chrome_trace(out, events);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"transmit\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ChromeTrace, ExactBytesThroughSharedEscaper) {
    // Dotted metric names pass through the escaper untouched; quotes and
    // backslashes are escaped the same way the bench and repro writers do.
    std::vector<tel::ChromeEvent> events(2);
    events[0].name = "sim.run";
    events[0].tid = 2;
    events[0].ts_us = 1.5;
    events[0].dur_us = 2.0;
    events[1].name = "q\"b\\s";
    events[1].ph = 'i';
    std::ostringstream out;
    tel::write_chrome_trace(out, events);
    EXPECT_EQ(out.str(),
              "{\"traceEvents\":[\n"
              "{\"name\":\"sim.run\",\"cat\":\"adhoc\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
              "\"ts\":1.500,\"dur\":2.000},\n"
              "{\"name\":\"q\\\"b\\\\s\",\"cat\":\"adhoc\",\"ph\":\"i\",\"pid\":1,\"tid\":0,"
              "\"ts\":0.000,\"s\":\"t\"}\n"
              "],\"displayTimeUnit\":\"ms\"}\n");
}

}  // namespace
}  // namespace adhoc
