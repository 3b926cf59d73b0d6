// Tests for the observability subsystem: metric registry concurrency and
// bucket semantics, quantiles and exemplars, snapshot export (text, JSON,
// Prometheus), trace-context propagation primitives, the event journal
// and its audit handles, clock-offset estimation, and the span/tracer
// pipeline down to well-formed Chrome-tracing JSON.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/audit.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "obs/windowed.h"

namespace vizndp::obs {
namespace {

constexpr int kThreads = 4;
constexpr int kPerThread = 25000;

TEST(Metrics, ConcurrentCounterSumsExactly) {
  Registry registry;
  Counter& counter = registry.GetCounter("test_total");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, CounterIncrementByN) {
  Counter counter;
  counter.Increment(10);
  counter.Increment(32);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Add(2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.75);
  gauge.Add(-4.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -0.25);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(1.0);  // == bounds[0] -> bucket 0
  h.Observe(1.5);  // (1, 2]      -> bucket 1
  h.Observe(2.0);  // == bounds[1] -> bucket 1
  h.Observe(4.0);  // == bounds[2] -> bucket 2
  h.Observe(5.0);  // > bounds.back() -> overflow bucket
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
}

TEST(Metrics, ConcurrentHistogramObservationsSumExactly) {
  // 1.0 is exactly representable, so the atomic double sum must be exact.
  Histogram h({0.5, 2.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto n = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), n);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n));
  EXPECT_EQ(h.bucket(0), 0u);
  EXPECT_EQ(h.bucket(1), n);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Metrics, LabelsCanonicalizeOrderIndependently) {
  EXPECT_EQ(Registry::CanonicalName("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
  EXPECT_EQ(Registry::CanonicalName("m", {}), "m");
  Registry registry;
  Counter& c1 = registry.GetCounter("m", {{"x", "1"}, {"y", "2"}});
  Counter& c2 = registry.GetCounter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&c1, &c2);
  Counter& c3 = registry.GetCounter("m", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&c1, &c3);
}

TEST(Metrics, HandlesAreStableAcrossLookups) {
  Registry registry;
  Counter& c = registry.GetCounter("c");
  c.Increment(7);
  EXPECT_EQ(&registry.GetCounter("c"), &c);
  Histogram& h = registry.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(&registry.GetHistogram("h", {9.0}), &h);  // bounds fixed by first
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(Metrics, SnapshotCarriesAllKinds) {
  Registry registry;
  registry.GetCounter("requests_total", {{"method", "x"}}).Increment(3);
  registry.GetGauge("queue_depth").Set(2.5);
  Histogram& h = registry.GetHistogram("latency_seconds", {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(10.0);

  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);

  const MetricSnapshot* c = FindMetric(snapshot, "requests_total{method=x}");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(c->value, 3.0);

  const MetricSnapshot* g = FindMetric(snapshot, "queue_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(g->value, 2.5);

  const MetricSnapshot* hs = FindMetric(snapshot, "latency_seconds");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->kind, MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(hs->count, 2u);
  ASSERT_EQ(hs->buckets.size(), 3u);
  EXPECT_EQ(hs->buckets[0], 1u);
  EXPECT_EQ(hs->buckets[1], 0u);
  EXPECT_EQ(hs->buckets[2], 1u);

  EXPECT_EQ(FindMetric(snapshot, "no_such_metric"), nullptr);
}

TEST(Metrics, KindNamesRoundTrip) {
  for (const auto kind :
       {MetricSnapshot::Kind::kCounter, MetricSnapshot::Kind::kGauge,
        MetricSnapshot::Kind::kHistogram}) {
    EXPECT_EQ(MetricKindFromName(MetricKindName(kind)), kind);
  }
}

TEST(Metrics, ExponentialBoundsAscend) {
  const std::vector<double> bounds = ExponentialBounds(1e-6, 4.0, 13);
  ASSERT_EQ(bounds.size(), 13u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(LatencyBounds(), bounds);
}

// Minimal JSON well-formedness check: balanced {} / [] outside strings,
// legal escapes, nothing trailing. Enough to catch broken emitters
// without dragging in a parser dependency.
void ExpectWellFormedJson(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ASSERT_LT(i + 1, s.size()) << "dangling escape";
        ++i;
      } else if (c == '"') {
        in_string = false;
      } else {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
            << "raw control character in string at offset " << i;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(stack.empty()) << "unbalanced brackets";
}

TEST(Metrics, JsonSnapshotIsWellFormed) {
  Registry registry;
  registry.GetCounter("c", {{"quote", "a\"b\\c"}}).Increment();
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  const std::string json = registry.JsonSnapshot();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(Metrics, TextSnapshotListsEveryMetric) {
  Registry registry;
  registry.GetCounter("c_total").Increment(5);
  registry.GetHistogram("h_seconds", {1.0}).Observe(0.5);
  const std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("c_total 5"), std::string::npos);
  EXPECT_NE(text.find("h_seconds count=1"), std::string::npos);
}

TEST(Metrics, QuantilesInterpolateWithinBuckets) {
  // 10 observations in (10, 20]: cumulative curve is linear across one
  // bucket, so every quantile interpolates inside [10, 20].
  Registry registry;
  Histogram& rh = registry.GetHistogram("h", {10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) rh.Observe(15.0);
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  const MetricSnapshot* s = FindMetric(snapshot, "h");
  ASSERT_NE(s, nullptr);
  // rank = q*count lands q of the way through the only occupied bucket.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 0.50), 15.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 0.95), 19.5);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 1.00), 20.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 0.0), 10.0);  // frac 0 -> lower edge
}

TEST(Metrics, QuantileSpansMultipleBucketsAndOverflow) {
  Registry registry;
  Histogram& h = registry.GetHistogram("h", {1.0, 2.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.5);   // bucket 1
  h.Observe(99.0);  // overflow
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  const MetricSnapshot* s = FindMetric(snapshot, "h");
  ASSERT_NE(s, nullptr);
  // p50: rank 1.5 -> second half of bucket 1 -> between 1 and 2.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 0.50), 1.5);
  // p99 lands in the overflow bucket, which has no upper edge: the
  // estimate is pinned (known low) to the last finite bound.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*s, 0.99), 2.0);
  // Non-histograms and empty histograms quantile to 0.
  registry.GetCounter("c").Increment();
  const std::vector<MetricSnapshot> with_counter = registry.Snapshot();
  EXPECT_DOUBLE_EQ(SnapshotQuantile(*FindMetric(with_counter, "c"), 0.5), 0.0);
}

TEST(Metrics, ExemplarTracksMaxObservationWithTraceId) {
  Registry registry;
  Histogram& h = registry.GetHistogram("h", {1.0});
  const TraceContext slow = TraceContext::Mint();
  const TraceContext fast = TraceContext::Mint();
  {
    ScopedTraceContext scope(fast);
    h.Observe(0.1);
  }
  {
    ScopedTraceContext scope(slow);
    h.Observe(5.0);  // the worst observation so far
  }
  {
    ScopedTraceContext scope(fast);
    h.Observe(0.2);  // smaller: must not displace the exemplar
  }
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  const MetricSnapshot* s = FindMetric(snapshot, "h");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->exemplar_value, 5.0);
  EXPECT_EQ(s->exemplar_trace_id, slow.trace_id);
  // The text rendering links value@trace so a dashboard line jumps
  // straight to the offending trace.
  const std::string text = SnapshotToText({*s});
  EXPECT_NE(text.find("exemplar=5@" + TraceIdHex(slow.trace_id)),
            std::string::npos);
}

TEST(Metrics, ExemplarWithoutContextHasZeroTraceId) {
  Registry registry;
  Histogram& h = registry.GetHistogram("h", {1.0});
  h.Observe(3.0);
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  const MetricSnapshot* s = FindMetric(snapshot, "h");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->exemplar_value, 3.0);
  EXPECT_EQ(s->exemplar_trace_id, 0u);
}

TEST(Metrics, ParseCanonicalNameRoundTrips) {
  std::string base;
  Labels labels;
  ParseCanonicalName("m{a=1,b=2}", &base, &labels);
  EXPECT_EQ(base, "m");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(labels[1], (std::pair<std::string, std::string>{"b", "2"}));
  ParseCanonicalName("bare", &base, &labels);
  EXPECT_EQ(base, "bare");
  EXPECT_TRUE(labels.empty());
}

TEST(Metrics, PromExpositionHasCumulativeBucketsAndTypes) {
  Registry registry;
  registry.GetCounter("req_total", {{"method", "x"}}).Increment(3);
  registry.GetGauge("depth").Set(2.5);
  Histogram& h = registry.GetHistogram("lat_seconds", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);
  const std::string prom = SnapshotToProm(registry.Snapshot());
  EXPECT_NE(prom.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(prom.find("req_total{method=\"x\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lat_seconds histogram"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_sum 11"), std::string::npos);
  EXPECT_NE(prom.find("lat_seconds_count 3"), std::string::npos);
}

TEST(Metrics, FormatSnapshotDispatchesAndRejectsUnknown) {
  Registry registry;
  registry.GetCounter("c_total").Increment();
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(FormatSnapshot(snapshot, "text"), SnapshotToText(snapshot));
  EXPECT_EQ(FormatSnapshot(snapshot, ""), SnapshotToText(snapshot));
  EXPECT_EQ(FormatSnapshot(snapshot, "json"), SnapshotToJson(snapshot));
  EXPECT_EQ(FormatSnapshot(snapshot, "prom"), SnapshotToProm(snapshot));
  EXPECT_THROW(FormatSnapshot(snapshot, "xml"), Error);
}

TEST(Context, MintIsUniqueAndScopesNest) {
  const TraceContext a = TraceContext::Mint();
  const TraceContext b = TraceContext::Mint();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_TRUE(a.sampled);
  EXPECT_FALSE(TraceContext::Mint(/*sampled=*/false).sampled);

  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    ScopedTraceContext outer(a);
    EXPECT_EQ(CurrentTraceContext().trace_id, a.trace_id);
    {
      ScopedTraceContext inner(b);
      EXPECT_EQ(CurrentTraceContext().trace_id, b.trace_id);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, a.trace_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(Context, SpanIdsAreProcessUniqueAndNeverZero) {
  const std::uint64_t a = NextSpanId();
  const std::uint64_t b = NextSpanId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Context, SpansFormParentChainUnderContext) {
  Tracer tracer;
  tracer.Enable();
  const TraceContext root = TraceContext::Mint();
  std::uint64_t outer_id = 0;
  {
    ScopedTraceContext scope(root);
    Span outer("outer", tracer);
    outer_id = outer.span_id();
    EXPECT_NE(outer_id, 0u);
    // The outer span installed itself as the current span.
    EXPECT_EQ(CurrentTraceContext().span_id, outer_id);
    Span inner("inner", tracer);
    EXPECT_NE(inner.span_id(), outer_id);
  }
  const std::vector<DrainedEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 2u);
  const DrainedEvent& inner = events[0];
  const DrainedEvent& outer = events[1];
  EXPECT_EQ(inner.trace_id, root.trace_id);
  EXPECT_EQ(outer.trace_id, root.trace_id);
  EXPECT_EQ(outer.parent_span_id, 0u);      // parented at the trace root
  EXPECT_EQ(inner.parent_span_id, outer_id);
}

TEST(EventLog, TagsEventsWithCurrentContextAndFilters) {
  EventLog log;
  const TraceContext a = TraceContext::Mint();
  const TraceContext b = TraceContext::Mint();
  log.Append("untagged");
  {
    ScopedTraceContext scope(a);
    log.Append("rpc.timeout", "method=ndp.select attempt=1");
  }
  {
    ScopedTraceContext scope(b);
    log.Append("rpc.retry");
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.Events().size(), 3u);
  const std::vector<LogEvent> only_a = log.Events(a.trace_id);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].name, "rpc.timeout");
  EXPECT_EQ(only_a[0].detail, "method=ndp.select attempt=1");
  EXPECT_EQ(only_a[0].trace_id, a.trace_id);
  // Sequence numbers record global append order.
  const std::vector<LogEvent> all = log.Events();
  EXPECT_LT(all[0].seq, all[1].seq);
  EXPECT_LT(all[1].seq, all[2].seq);
  ExpectWellFormedJson(log.Json());
}

TEST(EventLog, RingDropsOldestAndClearWorks) {
  EventLog log(3);
  for (int i = 0; i < 5; ++i) log.Append("e" + std::to_string(i));
  const std::vector<LogEvent> events = log.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[2].name, "e4");
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

// How many catalog events count into `counter`.
size_t CatalogEntries(const std::string& counter) {
  size_t n = 0;
  for (const auto& [event, family] : AuditCatalog()) n += family == counter;
  return n;
}

TEST(Audit, RecordMovesCounterAndJournalByOneEach) {
  Registry registry;
  EventLog journal;
  const Audit audit(registry, "test_audit_total", {{"method", "m"}},
                    "test.audit", &journal);
  const TraceContext ctx = TraceContext::Mint();
  {
    ScopedTraceContext scope(ctx);
    audit.Record("method=m attempt=1");
  }
  EXPECT_EQ(
      registry.GetCounter("test_audit_total", {{"method", "m"}}).value(), 1u);
  const std::vector<LogEvent> events = journal.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.audit");
  EXPECT_EQ(events[0].detail, "method=m attempt=1");
  EXPECT_EQ(events[0].trace_id, ctx.trace_id);

  audit.Record();
  EXPECT_EQ(
      registry.GetCounter("test_audit_total", {{"method", "m"}}).value(), 2u);
  EXPECT_EQ(journal.size(), 2u);
  // A private registry and journal stay out of the process catalog.
  EXPECT_EQ(CatalogEntries("test_audit_total"), 0u);
}

TEST(Audit, SeriesAppearsOnlyOnceRecorded) {
  Registry registry;
  EventLog journal;
  const Audit audit(registry, "test_lazy_total", {}, "test.lazy", &journal);
  EXPECT_EQ(FindMetric(registry.Snapshot(), "test_lazy_total"), nullptr);
  audit.Record();
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test_lazy_total");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 1.0);
}

TEST(Audit, CatalogListsEachDefaultRegistryPairOnce) {
  const Audit a("test_catalog_total", "test.catalog");
  const Audit b("test_catalog_total", "test.catalog");
  const Audit per_node_0(DefaultRegistry(), "test_catalog_total",
                         {{"node", "0"}}, "test.catalog");
  const Audit per_node_1(DefaultRegistry(), "test_catalog_total",
                         {{"node", "1"}}, "test.catalog");
  ASSERT_EQ(CatalogEntries("test_catalog_total"), 1u);
  EXPECT_EQ(AuditCatalog().at("test.catalog"), "test_catalog_total");
  // A family may carry several events; each is its own pair.
  const Audit other(DefaultRegistry(), "test_catalog_total", {},
                    "test.catalog_other");
  EXPECT_EQ(CatalogEntries("test_catalog_total"), 2u);
}

TEST(Audit, OneEventUnderTwoCounterFamiliesThrows) {
  const Audit first("test_owner_total", "test.owned");
  EXPECT_THROW(Audit("test_thief_total", "test.owned"), Error);
  EXPECT_THROW(Audit(DefaultRegistry(), "test_thief_total", {{"k", "v"}},
                     "test.owned"),
               Error);
  EXPECT_EQ(CatalogEntries("test_owner_total"), 1u);
  EXPECT_EQ(CatalogEntries("test_thief_total"), 0u);
  // Off the catalog (a private registry), the same name is allowed.
  Registry registry;
  EXPECT_NO_THROW(Audit(registry, "test_thief_total", {}, "test.owned"));
}

TEST(TraceMerge, MidpointOffsetRecoversKnownSkew) {
  // Server clock runs 1000us ahead of the client's; both wire legs 50us.
  //   client sends at 100, server receives at 100+50+1000 = 1150,
  //   serves for 200, sends at 1350, client receives at 400.
  const ClockOffset off = ClockOffset::Estimate(100, 1150, 1350, 400);
  EXPECT_EQ(off.offset_us, -1000);
  EXPECT_EQ(off.wire_request_us, 50u);
  EXPECT_EQ(off.wire_reply_us, 50u);
  EXPECT_EQ(off.ToLocal(1150), 150u);
  EXPECT_EQ(off.ToLocal(1350), 350u);
}

TEST(TraceMerge, WireLegsClampNonNegative) {
  // Server residency longer than the round trip (asymmetric or lying
  // clocks): legs clamp to zero instead of going negative.
  const ClockOffset off = ClockOffset::Estimate(100, 0, 900, 150);
  EXPECT_EQ(off.wire_request_us + off.wire_reply_us, 0u);
}

TEST(TraceMerge, MergeRemoteAttemptAlignsSpansAndAddsWireLegs) {
  Tracer tracer;
  RemoteAttemptTrace attempt;
  attempt.t0_client_send_us = 1000;
  attempt.t3_client_recv_us = 1400;
  attempt.t1_server_recv_us = 51100;  // server clock +50000, legs 100us
  attempt.t2_server_send_us = 51300;
  attempt.has_server_times = true;
  DrainedEvent server_span;
  server_span.name = "ndp.select";
  server_span.track = "server";
  server_span.start_us = 51150;
  server_span.dur_us = 100;
  server_span.trace_id = 7;
  server_span.span_id = 42;
  server_span.parent_span_id = 9;
  attempt.server_events.push_back(server_span);

  const ClockOffset off = MergeRemoteAttempt(tracer, attempt, 7, 9);
  EXPECT_EQ(off.offset_us, -50000);

  std::vector<DrainedEvent> merged = tracer.Drain();
  ASSERT_EQ(merged.size(), 3u);
  std::sort(merged.begin(), merged.end(),
            [](const DrainedEvent& a, const DrainedEvent& b) {
              return a.start_us < b.start_us;
            });
  EXPECT_EQ(merged[0].name, "wire:request");
  EXPECT_EQ(merged[0].track, "wire");
  EXPECT_EQ(merged[0].start_us, 1000u);
  EXPECT_EQ(merged[0].dur_us, 100u);
  EXPECT_EQ(merged[0].parent_span_id, 9u);
  EXPECT_EQ(merged[1].name, "ndp.select");
  EXPECT_EQ(merged[1].track, "server");
  EXPECT_EQ(merged[1].start_us, 1150u);  // 51150 - 50000
  EXPECT_EQ(merged[1].span_id, 42u);
  EXPECT_EQ(merged[2].name, "wire:reply");
  EXPECT_EQ(merged[2].start_us, 1300u);
  EXPECT_EQ(merged[2].dur_us, 100u);
}

TEST(Trace, ExtractSubtreeMovesOnlyDescendants) {
  Tracer tracer;
  // Trace 7: span 1 (client attempt, stays) and its child 2 with
  // grandchild 3 (server side, extracted); span 50 belongs to another
  // branch and must stay. Trace 8 must never move.
  tracer.Inject("client", "attempt", 0, 100, {7, 1, 0});
  tracer.Inject("server", "dispatch", 10, 50, {7, 2, 1});
  tracer.Inject("server", "read", 20, 10, {7, 3, 2});
  tracer.Inject("client", "other", 0, 5, {7, 50, 0});
  tracer.Inject("client", "foreign", 0, 5, {8, 2, 1});
  tracer.Inject("untagged", "plain", 0, 1);

  std::vector<DrainedEvent> out = tracer.ExtractSubtree(7, 1);
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(),
            [](const DrainedEvent& a, const DrainedEvent& b) {
              return a.span_id < b.span_id;
            });
  EXPECT_EQ(out[0].name, "dispatch");
  EXPECT_EQ(out[1].name, "read");
  // Everything else survives, including the root span itself.
  const std::vector<DrainedEvent> rest = tracer.Drain();
  ASSERT_EQ(rest.size(), 4u);
  for (const DrainedEvent& e : rest) {
    EXPECT_NE(e.name, "dispatch");
    EXPECT_NE(e.name, "read");
  }
}

TEST(Trace, DisabledTracerRecordsNothingButSpansStillTime) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    Span span("work", tracer);
    span.End();
    EXPECT_GE(span.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, NestedSpansProduceWellFormedChromeJson) {
  Tracer tracer;
  tracer.Enable();
  tracer.SetThreadTrack("server");
  {
    Span outer("ndp.select", tracer);
    {
      Span inner("ndp.read", tracer);
    }
  }
  EXPECT_EQ(tracer.event_count(), 2u);

  const std::string json = tracer.ChromeJson();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ndp.select\""), std::string::npos);
  EXPECT_NE(json.find("\"ndp.read\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);

  // The inner span must nest inside the outer one on the timeline.
  const std::vector<DrainedEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 2u);
  const auto& inner = events[0];  // oldest first: inner ends first
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "ndp.read");
  EXPECT_EQ(outer.name, "ndp.select");
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us, outer.start_us + outer.dur_us);
  EXPECT_EQ(inner.track, "server");
}

TEST(Trace, DrainClearsAndInjectMerges) {
  Tracer tracer;
  tracer.Enable();
  tracer.SetThreadTrack("client");
  { Span span("local", tracer); }
  ASSERT_EQ(tracer.event_count(), 1u);

  // Inject works even while disabled — the drain already decided to keep.
  tracer.Enable(false);
  tracer.Inject("server", "remote", 100, 50);
  EXPECT_EQ(tracer.event_count(), 2u);

  const std::vector<DrainedEvent> events = tracer.Drain();
  EXPECT_EQ(tracer.event_count(), 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "local");
  EXPECT_EQ(events[0].track, "client");
  EXPECT_EQ(events[1].name, "remote");
  EXPECT_EQ(events[1].track, "server");
  EXPECT_EQ(events[1].start_us, 100u);
  EXPECT_EQ(events[1].dur_us, 50u);
}

TEST(Trace, RingBufferKeepsNewestEvents) {
  Tracer tracer(4);
  tracer.Enable();
  for (int i = 0; i < 7; ++i) {
    tracer.Inject("t", "e" + std::to_string(i), static_cast<std::uint64_t>(i),
                  1);
  }
  EXPECT_EQ(tracer.event_count(), 4u);
  const std::vector<DrainedEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 4u);
  // Oldest three were overwritten; survivors come back oldest-first.
  EXPECT_EQ(events[0].name, "e3");
  EXPECT_EQ(events[3].name, "e6");
}

// Long epochs so wall time never rotates underneath a test; rotation is
// driven explicitly with AdvanceEpochsForTest.
WindowedHistogramOptions FrozenClock(int epochs = 4) {
  WindowedHistogramOptions options;
  options.epochs = epochs;
  options.epoch_duration = std::chrono::milliseconds(3600 * 1000);
  return options;
}

TEST(Windowed, ObservationsLandInCumulativeAndWindow) {
  WindowedHistogram wh({1.0, 2.0, 4.0}, FrozenClock());
  wh.Observe(0.5);
  wh.Observe(3.0);
  EXPECT_EQ(wh.cumulative().count(), 2u);
  EXPECT_EQ(wh.WindowCount(), 2u);
  const MetricSnapshot snap = wh.WindowSnapshot("h_window");
  EXPECT_EQ(snap.name, "h_window");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_GT(snap.window_seconds, 0.0);
}

TEST(Windowed, RotationExpiresOldEpochsButNotCumulative) {
  WindowedHistogram wh({1.0, 2.0, 4.0}, FrozenClock(4));
  wh.Observe(0.5);
  wh.Observe(0.5);
  EXPECT_EQ(wh.WindowCount(), 2u);
  // Advance past the whole ring: every observation ages out of the
  // window; the cumulative series never forgets.
  wh.AdvanceEpochsForTest(5);
  EXPECT_EQ(wh.WindowCount(), 0u);
  EXPECT_EQ(wh.cumulative().count(), 2u);
}

TEST(Windowed, WindowQuantileSeesOnlyRecentEpochs) {
  WindowedHistogram wh(ExponentialBounds(0.001, 2.0, 14), FrozenClock(4));
  // An old regime of slow observations...
  for (int i = 0; i < 100; ++i) wh.Observe(1.0);
  wh.AdvanceEpochsForTest(5);  // ...ages out completely...
  for (int i = 0; i < 100; ++i) wh.Observe(0.002);
  // ...so the window quantile reflects the new regime while the
  // cumulative quantile still averages both.
  EXPECT_LT(wh.WindowQuantile(0.99), 0.01);
  EXPECT_GT(HistogramQuantile(wh.cumulative(), 0.99), 0.5);
}

TEST(Windowed, PartialExpiryKeepsRecentEpochs) {
  WindowedHistogram wh({1.0, 2.0}, FrozenClock(4));
  wh.Observe(0.5);              // epoch E
  wh.AdvanceEpochsForTest(2);   // E+2: still inside the 4-epoch ring
  wh.Observe(0.5);
  EXPECT_EQ(wh.WindowCount(), 2u);
  wh.AdvanceEpochsForTest(2);   // E+4: first observation expires
  EXPECT_EQ(wh.WindowCount(), 1u);
}

TEST(Windowed, NameGainsWindowSuffixBeforeLabels) {
  EXPECT_EQ(WindowedName("ndp_select_seconds"), "ndp_select_seconds_window");
  EXPECT_EQ(WindowedName("h{a=b,c=d}"), "h_window{a=b,c=d}");
}

TEST(Windowed, ConcurrentObserveAndSnapshotIsExact) {
  // tsan exercise: observers race the rotating snapshot reader. The
  // cumulative count must be exact; the window is bounded by the total.
  WindowedHistogram wh(ExponentialBounds(1e-6, 4.0, 8), FrozenClock(8));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wh] {
      for (int i = 0; i < kPerThread; ++i) wh.Observe(1e-4);
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&wh, &done] {
    while (!done.load()) {
      (void)wh.WindowSnapshot();
      (void)wh.WindowQuantile(0.95);
    }
  });
  for (std::thread& t : threads) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(wh.cumulative().count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(wh.WindowCount(), wh.cumulative().count());
}

TEST(Windowed, RegistryExportsCumulativeAndWindowSeries) {
  Registry registry;
  WindowedHistogram& wh = registry.GetWindowedHistogram(
      "lat_seconds", {1.0, 2.0}, {{"m", "x"}}, FrozenClock());
  wh.Observe(0.5);
  const auto snap = registry.Snapshot();
  const MetricSnapshot* cumulative = FindMetric(snap, "lat_seconds{m=x}");
  const MetricSnapshot* window = FindMetric(snap, "lat_seconds_window{m=x}");
  ASSERT_NE(cumulative, nullptr);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(cumulative->count, 1u);
  EXPECT_EQ(cumulative->window_seconds, 0.0);
  EXPECT_EQ(window->count, 1u);
  EXPECT_GT(window->window_seconds, 0.0);
  // Find-or-create returns the same ring.
  EXPECT_EQ(&registry.GetWindowedHistogram("lat_seconds", {1.0, 2.0},
                                           {{"m", "x"}}),
            &wh);
}

TEST(Metrics, SnapshotQuantileEdgeCasesArePinned) {
  MetricSnapshot h;
  h.kind = MetricSnapshot::Kind::kHistogram;
  h.bounds = {1.0, 2.0, 4.0};
  h.buckets = {2, 0, 2, 0};
  h.count = 4;
  // q clamps: negative, >1, and NaN all behave.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, -3.0), SnapshotQuantile(h, 0.0));
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, 7.0), SnapshotQuantile(h, 1.0));
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, std::nan("")),
                   SnapshotQuantile(h, 0.0));
  // q=0 -> lower edge of first occupied bucket; q=1 -> upper edge of
  // the last occupied one.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(h, 1.0), 4.0);
  // Empty and non-histogram snapshots return 0.
  MetricSnapshot empty = h;
  empty.buckets = {0, 0, 0, 0};
  empty.count = 0;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(empty, 0.5), 0.0);
  MetricSnapshot counter;
  counter.kind = MetricSnapshot::Kind::kCounter;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(counter, 0.5), 0.0);
  // Overflow mass reports the last finite bound (known-low estimate).
  MetricSnapshot overflow = h;
  overflow.buckets = {0, 0, 0, 10};
  overflow.count = 10;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(overflow, 0.5), 4.0);
  // A hand-merged snapshot whose `count` disagrees with its buckets
  // ranks against the actual bucket mass, not the stale count.
  MetricSnapshot merged = h;
  merged.count = 400;  // lies
  EXPECT_DOUBLE_EQ(SnapshotQuantile(merged, 1.0), 4.0);
  // No finite bounds at all: only an overflow bucket.
  MetricSnapshot unbounded;
  unbounded.kind = MetricSnapshot::Kind::kHistogram;
  unbounded.buckets = {5};
  unbounded.count = 5;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(unbounded, 0.5), 0.0);
}

TEST(Metrics, PromEmitsOneTypePerFamilyDespiteWindowInterleave) {
  // Sorted canonical order interleaves "foo_window{...}" between "foo"
  // and "foo{...}" ('_' < '{'), which a consecutive-dedup TYPE emitter
  // would double-emit. One # TYPE per family, exactly.
  Registry registry;
  registry.GetWindowedHistogram("foo", {1.0}, {}, FrozenClock()).Observe(0.5);
  registry.GetWindowedHistogram("foo", {1.0}, {{"m", "x"}}, FrozenClock())
      .Observe(0.5);
  const std::string prom = SnapshotToProm(registry.Snapshot());
  auto count_of = [&prom](const std::string& needle) {
    size_t n = 0;
    for (size_t at = prom.find(needle); at != std::string::npos;
         at = prom.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE foo histogram"), 1u);
  EXPECT_EQ(count_of("# TYPE foo_window histogram"), 1u);
}

TEST(Metrics, StampSnapshotAppendsProcessClocks) {
  std::vector<MetricSnapshot> snap;
  StampSnapshot(snap);
  const MetricSnapshot* wall = FindMetric(snap, "process_wall_time_seconds");
  const MetricSnapshot* up = FindMetric(snap, "process_uptime_seconds");
  ASSERT_NE(wall, nullptr);
  ASSERT_NE(up, nullptr);
  EXPECT_GT(wall->value, 1e9);  // seconds since the Unix epoch
  EXPECT_GE(up->value, 0.0);
  const double up1 = ProcessUptimeSeconds();
  const double up2 = ProcessUptimeSeconds();
  EXPECT_GE(up2, up1);  // monotonic
}

TEST(Trace, ConcurrentSpansAllRecorded) {
  Tracer tracer;
  tracer.Enable();
  std::vector<std::thread> threads;
  constexpr int kSpansPerThread = 200;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      tracer.SetThreadTrack("worker-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("op", tracer);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  ExpectWellFormedJson(tracer.ChromeJson());
}

}  // namespace
}  // namespace vizndp::obs
