// Self-tests of the benchmark's own arithmetic: percentiles, self time,
// layer reconciliation and the metric catalog. run.py runs them before
// every workload, so a broken helper cannot produce a plausible number.
#include <cmath>
#include <cstdio>
#include <set>

#include "catalog.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

bool near(f64 a, f64 b) { return std::fabs(a - b) < 1e-9; }

Span span(const char* layer, u32 parent, i64 start, i64 end) {
  Span s;
  s.name = layer;
  s.layer = layer;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

void percentile_tests() {
  expect(highest_supported_percentile(0) == 0, "empty sample has no percentile");
  expect(highest_supported_percentile(19) == 50, "small samples report the median");
  expect(highest_supported_percentile(40) == 75, "40 samples support p75");
  expect(highest_supported_percentile(100) == 90, "100 samples support p90");
  expect(highest_supported_percentile(199) == 90, "199 samples stop at p90");
  expect(highest_supported_percentile(200) == 95, "200 samples support p95");
  expect(highest_supported_percentile(999) == 95, "999 samples stop at p95");
  expect(highest_supported_percentile(1000) == 99, "1000 samples support p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");

  std::vector<f64> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  expect(near(percentile_of(values, 50), 50.5), "median of 1..100 is 50.5");
  expect(near(percentile_of(values, 0), 1) && near(percentile_of(values, 100), 100),
         "p0/p100 are the extremes");
  expect(near(percentile_of(values, 90), 90.1), "p90 of 1..100 interpolates");
  const Percentile p = percentile(values, 99);
  expect(p.samples == 100 && p.reported == 90 && near(p.value, 90.1),
         "p99 of 100 samples falls back to p90 with the sample count");
  const Percentile q = percentile(values, 50);
  expect(q.reported == 50 && near(q.value, 50.5), "requested p50 is kept");
  expect(near(median({3, 1, 2}), 2) && near(median({}), 0), "median");
}

void self_time_tests() {
  expect(union_length({{0, 10}, {5, 15}, {20, 30}}) == 25, "union merges overlaps");
  expect(union_length({{0, 10}, {2, 3}, {10, 12}}) == 12, "union of nested and touching");
  expect(union_length({}) == 0, "empty union");

  // root [0,100ms]; a [10,30] and b [20,50] overlap (union 40); c [60,70]
  // is a grandchild under d [55,90].
  std::vector<Span> spans;
  spans.push_back(span("-", kNoParent, 0, 100000));
  spans.push_back(span("a", 0, 10000, 30000));
  spans.push_back(span("b", 0, 20000, 50000));
  spans.push_back(span("d", 0, 55000, 90000));
  spans.push_back(span("c", 3, 60000, 70000));
  const std::vector<f64> self = self_times_ms(spans);
  expect(near(self[0], 100 - 40 - 35), "root self = span - union of children");
  expect(near(self[3], 35 - 10), "child self excludes grandchild");
  expect(near(self[4], 10), "leaf self is its duration");

  // A child sticking out of its parent only counts inside the parent.
  std::vector<Span> clipped;
  clipped.push_back(span("-", kNoParent, 0, 10000));
  clipped.push_back(span("a", 0, 5000, 20000));
  expect(near(self_times_ms(clipped)[0], 5), "children are clipped to the parent");

  // Virtual children (replay- or obs-measured work) come off self time.
  std::vector<Span> spans_v;
  spans_v.push_back(span("-", kNoParent, 0, 10000));
  spans_v.push_back(span("sim", 0, 0, 8000));
  VirtualChildren virt;
  virt[1]["runtime"] = 5;
  expect(near(self_times_ms(spans_v, virt)[1], 3),
         "virtual children reduce self time");
}

void reconciliation_tests() {
  std::vector<Span> spans;
  spans.push_back(span("-", kNoParent, 0, 100000));
  spans.push_back(span("runtime", 0, 0, 30000));
  spans.push_back(span("media", 1, 10000, 20000));
  spans.push_back(span("media", 0, 40000, 70000));
  spans.push_back(span("-", kNoParent, 200000, 250000));
  spans.push_back(span("sim", 4, 200000, 240000));
  VirtualChildren virt;
  virt[5]["net"] = 15;
  const Attribution a = attribute(spans, virt);
  expect(near(a.total_ms, 150), "traced total sums root spans");
  expect(near(a.layer_ms.at("runtime"), 20) && near(a.layer_ms.at("media"), 40) &&
             near(a.layer_ms.at("sim"), 25) && near(a.layer_ms.at("net"), 15),
         "layers get self time and virtual children");
  expect(near(a.unattributed_ms, 40 + 10), "uncovered root time is unattributed");
  expect(a.reconciliation_error_ms <= reconciliation_slack_ms(a.total_ms),
         "nested spans reconcile");

  // Overlapping siblings double-count and must show up as an error.
  std::vector<Span> bad;
  bad.push_back(span("-", kNoParent, 0, 100000));
  bad.push_back(span("x", 0, 0, 60000));
  bad.push_back(span("y", 0, 40000, 100000));
  expect(attribute(bad).reconciliation_error_ms > reconciliation_slack_ms(100),
         "overlapping siblings fail reconciliation");
  // So do virtual children larger than their span.
  std::vector<Span> over;
  over.push_back(span("-", kNoParent, 0, 10000));
  VirtualChildren too_much;
  too_much[0]["net"] = 20;
  expect(attribute(over, too_much).reconciliation_error_ms >
             reconciliation_slack_ms(10),
         "virtual children beyond the span fail reconciliation");
  expect(near(reconciliation_slack_ms(1000), 5) && near(reconciliation_slack_ms(1), 0.05),
         "slack is 0.5% with a 0.05 ms floor");
}

void host_speed_tests() {
  expect(near(HostSpeed::slowdown_of({kReferenceMs * 2, kReferenceMs, kReferenceMs * 2}), 2),
         "slowdown is the median reference time over the reference speed's");
  expect(near(HostSpeed::slowdown_of({}), 1), "no samples means no scaling");
}

void catalog_tests() {
  std::set<std::string> names;
  bool units = true;
  for (const MetricDef& def : catalog()) {
    units = units && def.unit[0] != '\0';
    expect(names.insert(def.name).second, "metric names are unique");
    expect(std::string(def.better) == "higher" || std::string(def.better) == "lower",
           "metric direction is higher or lower");
  }
  expect(units, "every metric has a unit");
  for (MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kLayer}) {
    const std::string json = result_json(true, 1, 0, {}, kind);
    for (const MetricDef& def : catalog()) {
      const std::string entry = "\"" + std::string(def.name) +
                                "\": {\"value\": 0, \"unit\": \"" + def.unit + "\"}";
      const bool printed = json.find(entry) != std::string::npos;
      expect(printed == (def.kind == kind),
             "result line prints exactly its kind's metrics, with units");
    }
  }
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentile_tests();
  self_time_tests();
  reconciliation_tests();
  host_speed_tests();
  catalog_tests();
  return failures;
}

}  // namespace perfbench
