// Observability subsystem: counter/gauge/histogram semantics, the global
// enable gate, quantile accuracy on known distributions, exporter
// round-trips (JSON <-> snapshot, Prometheus text shape), trace spans
// with sim-clock stamps, and ring-buffer bounding.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/sim_clock.hpp"

namespace vgbl {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ScopedEnable;

TEST(ObsCounter, DisabledIncrementsAreDropped) {
  MetricsRegistry reg;
  auto& c = reg.counter("test_counter");
  ASSERT_FALSE(obs::enabled());
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, EnabledIncrementsAccumulate) {
  MetricsRegistry reg;
  auto& c = reg.counter("test_counter", "help text");
  ScopedEnable on;
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.name(), "test_counter");
  EXPECT_EQ(c.help(), "help text");
}

TEST(ObsCounter, ShardsSumAcrossThreads) {
  MetricsRegistry reg;
  auto& c = reg.counter("test_counter");
  ScopedEnable on;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kPerThread);
}

TEST(ObsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  auto& a = reg.counter("test_counter", "first help wins");
  auto& b = reg.counter("test_counter", "ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.help(), "first help wins");
  auto& h1 = reg.histogram("test_hist", {1, 2, 3});
  auto& h2 = reg.histogram("test_hist", {9, 10});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);
}

TEST(ObsGauge, SetAndAdd) {
  MetricsRegistry reg;
  auto& g = reg.gauge("test_gauge");
  ScopedEnable on;
  g.set(10.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.5);
  g.add(2.0);
  g.add(-4.5);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
  obs::set_enabled(false);
  g.set(99);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
  obs::set_enabled(true);
}

TEST(ObsHistogram, InclusiveUpperBoundsAndOverflow) {
  MetricsRegistry reg;
  auto& h = reg.histogram("test_hist", {1.0, 2.0, 4.0});
  ScopedEnable on;
  h.observe(0.5);  // bucket 0 (le 1)
  h.observe(1.0);  // bucket 0 — bounds are inclusive
  h.observe(1.5);  // bucket 1 (le 2)
  h.observe(4.0);  // bucket 2 (le 4)
  h.observe(100);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100);
}

TEST(ObsHistogram, BucketHelpers) {
  const auto lin = obs::linear_buckets(10, 10, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 10);
  EXPECT_DOUBLE_EQ(lin[2], 30);
  const auto exp = obs::exponential_buckets(0.5, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 0.5);
  EXPECT_DOUBLE_EQ(exp[3], 4.0);
}

TEST(ObsHistogram, QuantilesOnKnownUniformDistribution) {
  MetricsRegistry reg;
  auto& h = reg.histogram("test_hist", obs::linear_buckets(10, 10, 10));
  ScopedEnable on;
  // 1..100 uniformly: 10 observations per bucket.
  for (int v = 1; v <= 100; ++v) h.observe(v);
  const MetricsSnapshot snap = reg.scrape();
  const auto* s = snap.find_histogram("test_hist");
  ASSERT_NE(s, nullptr);
  // Linear interpolation inside 10-wide buckets lands exactly on the
  // true quantiles of this distribution.
  EXPECT_DOUBLE_EQ(s->quantile(0.5), 50);
  EXPECT_DOUBLE_EQ(s->quantile(0.9), 90);
  EXPECT_DOUBLE_EQ(s->quantile(0.95), 95);
  EXPECT_DOUBLE_EQ(s->quantile(0.0), 0);
  EXPECT_DOUBLE_EQ(s->quantile(1.0), 100);
  EXPECT_DOUBLE_EQ(s->mean(), 50.5);
}

TEST(ObsHistogram, QuantileOverflowBucketReportsLastBound) {
  MetricsRegistry reg;
  auto& h = reg.histogram("test_hist", {1.0, 2.0});
  ScopedEnable on;
  h.observe(50);
  h.observe(60);
  const MetricsSnapshot snap = reg.scrape();
  const auto* s = snap.find_histogram("test_hist");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->quantile(0.99), 2.0);
}

TEST(ObsSnapshot, SubsystemsAreDistinctSortedPrefixes) {
  MetricsRegistry reg;
  ScopedEnable on;
  reg.counter("classroom_steps_total");
  reg.counter("classroom_students_total");
  reg.gauge("pool_queue_depth");
  reg.histogram("persist_checkpoint_ms", {1.0});
  const auto subsystems = reg.scrape().subsystems();
  ASSERT_EQ(subsystems.size(), 3u);
  EXPECT_EQ(subsystems[0], "classroom");
  EXPECT_EQ(subsystems[1], "persist");
  EXPECT_EQ(subsystems[2], "pool");
}

MetricsSnapshot sample_snapshot() {
  MetricsRegistry reg;
  ScopedEnable on;
  reg.counter("net_packets_sent_total").add(1587);
  reg.gauge("pool_queue_depth").set(2.25);
  auto& h = reg.histogram("persist_checkpoint_ms", {0.5, 1.0, 2.0});
  h.observe(0.75);
  h.observe(1.5);
  h.observe(30);
  return reg.scrape();
}

TEST(ObsExport, JsonRoundTripsExactly) {
  const MetricsSnapshot original = sample_snapshot();
  const std::string text = obs::to_json(original).dump(2);
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto restored = obs::snapshot_from_json(parsed.value());
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();

  const MetricsSnapshot& r = restored.value();
  ASSERT_EQ(r.counters.size(), original.counters.size());
  EXPECT_EQ(r.counters[0].name, "net_packets_sent_total");
  EXPECT_EQ(r.counters[0].value, 1587u);
  ASSERT_EQ(r.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(r.gauges[0].value, 2.25);
  ASSERT_EQ(r.histograms.size(), 1u);
  const obs::HistogramSample& h = r.histograms[0];
  EXPECT_EQ(h.bounds, original.histograms[0].bounds);
  EXPECT_EQ(h.counts, original.histograms[0].counts);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, original.histograms[0].sum);
}

TEST(ObsExport, RejectsMalformedJson) {
  auto not_object = Json::parse("[1, 2]");
  ASSERT_TRUE(not_object.ok());
  auto r1 = obs::snapshot_from_json(not_object.value());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code, ErrorCode::kCorruptData);

  // counts must be bounds.size() + 1 entries.
  auto mismatched = Json::parse(
      R"({"histograms": {"h": {"bounds": [1, 2],
          "counts": [1, 1], "count": 2, "sum": 3}}})");
  ASSERT_TRUE(mismatched.ok());
  auto r2 = obs::snapshot_from_json(mismatched.value());
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code, ErrorCode::kCorruptData);
}

TEST(ObsExport, PrometheusTextShape) {
  const std::string text = obs::to_prometheus(sample_snapshot());
  EXPECT_NE(text.find("# TYPE net_packets_sent_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("net_packets_sent_total 1587"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE persist_checkpoint_ms histogram"),
            std::string::npos);
  // Buckets are cumulative and end with the +Inf series == _count.
  // (0.75 -> le=1 bucket, 1.5 -> le=2, 30 -> overflow.)
  EXPECT_NE(text.find("persist_checkpoint_ms_bucket{le=\"0.5\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("persist_checkpoint_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("persist_checkpoint_ms_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("persist_checkpoint_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("persist_checkpoint_ms_count 3"), std::string::npos);
}

TEST(ObsExport, RenderSnapshotMentionsEveryMetric) {
  const std::string table = obs::render_snapshot(sample_snapshot());
  EXPECT_NE(table.find("subsystems: net, persist, pool"), std::string::npos);
  EXPECT_NE(table.find("net_packets_sent_total"), std::string::npos);
  EXPECT_NE(table.find("pool_queue_depth"), std::string::npos);
  EXPECT_NE(table.find("persist_checkpoint_ms"), std::string::npos);
}

TEST(ObsTrace, SpanScopeStampsSimClock) {
  ScopedEnable on;
  obs::TraceLog::global().clear();
  SimClock clock;
  {
    obs::SpanScope span("test.span", &clock);
    clock.advance(milliseconds(25));
  }
  const auto events = obs::TraceLog::global().snapshot();
  bool found = false;
  for (const auto& e : events) {
    if (std::string_view(e.name) != "test.span") continue;
    found = true;
    EXPECT_EQ(e.sim_start, 0);
    EXPECT_EQ(e.sim_end, milliseconds(25));
    EXPECT_GE(e.wall_ms, 0.0);
  }
  EXPECT_TRUE(found);
  obs::TraceLog::global().clear();
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::TraceLog::global().clear();
  ASSERT_FALSE(obs::enabled());
  {
    obs::SpanScope span("test.disabled");
  }
  for (size_t i = 0; i <= obs::TraceLog::kRingCapacity; ++i) {
    obs::TraceLog::global().record(obs::TraceEvent{.name = "test.disabled"});
  }
  for (const auto& e : obs::TraceLog::global().snapshot()) {
    EXPECT_NE(std::string_view(e.name), "test.disabled");
  }
  EXPECT_EQ(obs::TraceLog::global().dropped(), 0u);
}

TEST(ObsTrace, RingOverwritesOldestAndStaysBounded) {
  ScopedEnable on;
  obs::TraceLog::global().clear();
  const size_t total = obs::TraceLog::kRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    obs::TraceEvent e;
    e.name = "test.flood";
    e.sim_start = static_cast<MicroTime>(i);
    obs::TraceLog::global().record(e);
  }
  size_t flood = 0;
  MicroTime newest = 0;
  for (const auto& e : obs::TraceLog::global().snapshot()) {
    if (std::string_view(e.name) != "test.flood") continue;
    ++flood;
    newest = std::max(newest, e.sim_start);
  }
  EXPECT_LE(flood, obs::TraceLog::kRingCapacity);
  EXPECT_EQ(newest, static_cast<MicroTime>(total - 1));  // newest survived
  EXPECT_EQ(obs::TraceLog::global().dropped(), 100u);  // and said so
  obs::TraceLog::global().clear();
  EXPECT_EQ(obs::TraceLog::global().dropped(), 0u);
}

TEST(ObsTrace, SummaryKeepsSpansTheRingOverwrote) {
  // `vgbl classroom --stream --metrics-out`: the classroom's one sim.run
  // span is recorded first, then the stream replay floods the same
  // thread's ring with segment fetches. The summary must keep both rows,
  // with exact counts, although the ring no longer holds sim.run.
  ScopedEnable on;
  obs::TraceLog::global().clear();
  obs::TraceLog::global().record(obs::TraceEvent{
      .name = "sim.run", .sim_start = 0, .sim_end = milliseconds(40),
      .wall_ms = 2.5});
  for (int i = 0; i < 5000; ++i) {
    obs::TraceLog::global().record(obs::TraceEvent{
        .name = "stream.segment_fetch", .wall_ms = 0.5});
  }
  for (const auto& e : obs::TraceLog::global().snapshot()) {
    EXPECT_NE(std::string_view(e.name), "sim.run");  // overwritten
  }
  const auto totals = obs::TraceLog::global().totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_STREQ(totals[0].name, "sim.run");
  EXPECT_EQ(totals[0].count, 1u);
  EXPECT_DOUBLE_EQ(totals[0].wall_ms, 2.5);
  EXPECT_DOUBLE_EQ(totals[0].sim_ms, 40.0);
  EXPECT_STREQ(totals[1].name, "stream.segment_fetch");
  EXPECT_EQ(totals[1].count, 5000u);
  EXPECT_DOUBLE_EQ(totals[1].wall_ms, 2500.0);

  const std::string table = obs::render_trace_summary(totals);
  const auto row = [&](const std::string& name) {
    const size_t at = table.find("\n" + name + " ");
    return at == std::string::npos
               ? std::string()
               : table.substr(at + 1, table.find('\n', at + 1) - at - 1);
  };
  EXPECT_NE(row("sim.run").find(" 1 "), std::string::npos) << table;
  EXPECT_NE(row("stream.segment_fetch").find(" 5000 "), std::string::npos)
      << table;

  obs::TraceLog::global().clear();
  EXPECT_TRUE(obs::TraceLog::global().totals().empty());
}

TEST(ObsTimer, ObservesOneSampleWhenEnabled) {
  MetricsRegistry reg;
  auto& h = reg.histogram("test_timer_ms", {1000.0});
  {
    obs::ScopedTimer idle(h);  // disabled: no observation
  }
  EXPECT_EQ(h.count(), 0u);
  ScopedEnable on;
  {
    obs::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
}

}  // namespace
}  // namespace vgbl
