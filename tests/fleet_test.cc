// The fleet observability plane's contract: the snapshot merge is a
// commutative monoid (fleet views don't depend on scrape order), the
// SLO tracker fires exactly one audited burn-alert pair per incident,
// and a FleetScraper over a live ClusterTestbed reacts to a slow or
// dead node within one window — with every renderer exposing the same
// numbers its sweep returned.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "bench_util/testbed.h"
#include "cluster/fleet_scraper.h"
#include "io/vnd_format.h"
#include "net/fault.h"
#include "obs/event_log.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/windowed.h"
#include "sim/impact.h"

namespace vizndp::cluster {
namespace {

using bench_util::ClusterTestbed;
using bench_util::ClusterTestbedConfig;
using obs::MetricSnapshot;

// ---------------------------------------------------------------------------
// Merge algebra (obs/merge.h): counter-sum, gauge-policy, bucket-wise
// histogram add — associative, permutation-invariant, empty = identity.

MetricSnapshot Counter(const std::string& name, double value) {
  MetricSnapshot m;
  m.name = name;
  m.kind = MetricSnapshot::Kind::kCounter;
  m.value = value;
  return m;
}

MetricSnapshot Gauge(const std::string& name, double value) {
  MetricSnapshot m;
  m.name = name;
  m.kind = MetricSnapshot::Kind::kGauge;
  m.value = value;
  return m;
}

MetricSnapshot Hist(const std::string& name, std::vector<double> bounds,
                    std::vector<std::uint64_t> buckets, double sum,
                    double exemplar = 0, double window_s = 0) {
  MetricSnapshot m;
  m.name = name;
  m.kind = MetricSnapshot::Kind::kHistogram;
  m.bounds = std::move(bounds);
  m.buckets = std::move(buckets);
  m.count = 0;
  for (const std::uint64_t b : m.buckets) m.count += b;
  m.value = sum;
  m.exemplar_value = exemplar;
  m.window_seconds = window_s;
  return m;
}

const MetricSnapshot* Find(const std::vector<MetricSnapshot>& snap,
                           const std::string& name) {
  return obs::FindMetric(snap, name);
}

TEST(Merge, CountersSumAcrossSources) {
  const auto merged = obs::MergeSnapshots(
      {{Counter("reqs_total", 3)}, {Counter("reqs_total", 4)}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(merged[0].value, 7.0);
}

TEST(Merge, GaugePolicyPerBaseName) {
  obs::MergeOptions options;
  options.gauge_policy = [](const std::string& base) {
    if (base == "hi") return obs::GaugeMergePolicy::kMax;
    if (base == "lo") return obs::GaugeMergePolicy::kMin;
    return obs::GaugeMergePolicy::kSum;
  };
  const auto merged = obs::MergeSnapshots(
      {{Gauge("hi", 2), Gauge("lo", 2), Gauge("occ", 2)},
       {Gauge("hi", 9), Gauge("lo", 9), Gauge("occ", 9)}},
      options);
  EXPECT_DOUBLE_EQ(Find(merged, "hi")->value, 9.0);
  EXPECT_DOUBLE_EQ(Find(merged, "lo")->value, 2.0);
  EXPECT_DOUBLE_EQ(Find(merged, "occ")->value, 11.0);
  // The policy keys on the *base*, labels stripped.
  const auto labeled = obs::MergeSnapshots(
      {{Gauge("hi{n=0}", 2)}, {Gauge("hi{n=0}", 9)}}, options);
  EXPECT_DOUBLE_EQ(labeled[0].value, 9.0);
}

TEST(Merge, DefaultFleetPolicySumsOccupancyMaxesClocks) {
  EXPECT_EQ(obs::DefaultFleetGaugePolicy("rpc_inflight"),
            obs::GaugeMergePolicy::kSum);
  EXPECT_EQ(obs::DefaultFleetGaugePolicy("process_wall_time_seconds"),
            obs::GaugeMergePolicy::kMax);
  EXPECT_EQ(obs::DefaultFleetGaugePolicy("process_uptime_seconds"),
            obs::GaugeMergePolicy::kMax);
}

TEST(Merge, HistogramsAddBucketwiseKeepWorstExemplarAndMaxWindow) {
  const auto merged = obs::MergeSnapshots(
      {{Hist("lat", {1, 2}, {1, 2, 3}, 10.0, /*exemplar=*/0.5,
             /*window_s=*/5)},
       {Hist("lat", {1, 2}, {4, 0, 1}, 4.0, /*exemplar=*/1.5,
             /*window_s=*/10)}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].buckets, (std::vector<std::uint64_t>{5, 2, 4}));
  EXPECT_EQ(merged[0].count, 11u);
  EXPECT_DOUBLE_EQ(merged[0].value, 14.0);
  EXPECT_DOUBLE_EQ(merged[0].exemplar_value, 1.5);
  EXPECT_DOUBLE_EQ(merged[0].window_seconds, 10.0);
}

TEST(Merge, BoundsMismatchKeepsFirstShapeDropsStranger) {
  const auto merged = obs::MergeSnapshots(
      {{Hist("lat", {1, 2}, {1, 1, 1}, 3.0)},
       {Hist("lat", {1, 4}, {9, 9, 9}, 27.0)}});
  ASSERT_EQ(merged.size(), 1u);
  // Mixed-version fleet: the conflicting series is dropped, not thrown.
  EXPECT_EQ(merged[0].bounds, (std::vector<double>{1, 2}));
  EXPECT_EQ(merged[0].count, 3u);
}

TEST(Merge, KindConflictKeepsFirstMergedKind) {
  const auto merged =
      obs::MergeSnapshots({{Counter("x", 1)}, {Gauge("x", 100)}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, MetricSnapshot::Kind::kCounter);
}

// One pseudo-random source: a few counters, gauges, and histograms over
// a small shared name pool so collisions actually happen.
std::vector<MetricSnapshot> RandomSource(std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_real_distribution<double> val(0.0, 100.0);
  std::uniform_int_distribution<std::uint64_t> bucket(0, 50);
  std::vector<MetricSnapshot> src;
  for (int i = 0; i < 3; ++i) {
    src.push_back(Counter("c" + std::to_string(pick(rng)) + "_total",
                          std::floor(val(rng))));
    src.push_back(Gauge("g" + std::to_string(pick(rng)), val(rng)));
    src.push_back(Hist("h" + std::to_string(pick(rng)), {1, 2, 4},
                       {bucket(rng), bucket(rng), bucket(rng), bucket(rng)},
                       val(rng), val(rng), 10.0));
  }
  return src;
}

bool SnapshotsEqual(const std::vector<MetricSnapshot>& a,
                    const std::vector<MetricSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].kind != b[i].kind ||
        std::abs(a[i].value - b[i].value) > 1e-9 ||
        a[i].count != b[i].count || a[i].bounds != b[i].bounds ||
        a[i].buckets != b[i].buckets ||
        std::abs(a[i].exemplar_value - b[i].exemplar_value) > 1e-9 ||
        std::abs(a[i].window_seconds - b[i].window_seconds) > 1e-9) {
      return false;
    }
  }
  return true;
}

TEST(Merge, MonoidProperties) {
  obs::MergeOptions fleet;
  fleet.gauge_policy = obs::DefaultFleetGaugePolicy;
  std::mt19937 rng(20240817);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSource(rng);
    const auto b = RandomSource(rng);
    const auto c = RandomSource(rng);
    // Associativity: merge(merge(A,B),C) == merge(A,B,C).
    const auto ab = obs::MergeSnapshots({a, b}, fleet);
    const auto ab_c = obs::MergeSnapshots({ab, c}, fleet);
    const auto abc = obs::MergeSnapshots({a, b, c}, fleet);
    EXPECT_TRUE(SnapshotsEqual(ab_c, abc)) << "trial " << trial;
    // Permutation invariance (sorted-by-name output).
    const auto cba = obs::MergeSnapshots({c, b, a}, fleet);
    EXPECT_TRUE(SnapshotsEqual(abc, cba)) << "trial " << trial;
    // Empty snapshot is the identity.
    const auto a_e = obs::MergeSnapshots({a, {}}, fleet);
    const auto a_sorted = obs::MergeSnapshots({a}, fleet);
    EXPECT_TRUE(SnapshotsEqual(a_e, a_sorted)) << "trial " << trial;
  }
}

TEST(Merge, WithLabelFoldsIntoCanonicalNames) {
  std::vector<MetricSnapshot> snap = {Counter("x_total", 1),
                                      Counter("x_total{a=b}", 2)};
  const auto labeled = obs::WithLabel(std::move(snap), "node", "2");
  EXPECT_EQ(labeled[0].name, "x_total{node=2}");
  EXPECT_EQ(labeled[1].name, "x_total{a=b,node=2}");
}

// ---------------------------------------------------------------------------
// SloTracker: deterministic burn-rate alerting against a private
// Registry + EventLog (the global journal never sees these).

obs::SloObjective TightLatencyObjective() {
  obs::SloObjective o;
  o.name = "lat";
  o.latency_histogram = "fetch_seconds";
  o.latency_threshold_s = 1.0;  // observations over 1s are bad
  o.max_bad_ratio = 0.01;
  o.short_window_s = 10;
  o.long_window_s = 40;
  o.budget_window_s = 100;
  o.min_samples = 4;
  return o;
}

// Cumulative snapshot with `good` fast and `bad` slow observations.
std::vector<MetricSnapshot> FetchSnapshot(std::uint64_t good,
                                          std::uint64_t bad) {
  return {Hist("fetch_seconds", {1.0}, {good, bad},
               0.5 * static_cast<double>(good) +
                   2.0 * static_cast<double>(bad))};
}

TEST(Slo, LatencyBurnFiresOneAuditedPairThenClears) {
  obs::Registry registry;
  obs::EventLog journal;
  obs::SloTracker tracker({TightLatencyObjective()}, &registry, &journal);

  // Healthy traffic: no alert.
  double t = 0;
  tracker.Evaluate(FetchSnapshot(0, 0), t);
  std::vector<obs::SloStatus> status =
      tracker.Evaluate(FetchSnapshot(100, 0), t += 1);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_FALSE(status[0].alerting);

  // An outage: every new observation is bad, across several sweeps.
  // The alert must fire exactly once (edge-triggered) no matter how
  // many hot evaluations follow.
  tracker.Evaluate(FetchSnapshot(100, 50), t += 1);
  tracker.Evaluate(FetchSnapshot(100, 90), t += 1);
  status = tracker.Evaluate(FetchSnapshot(100, 120), t += 1);
  EXPECT_TRUE(status[0].alerting);
  EXPECT_GT(status[0].burn_short, 1.0);
  EXPECT_LT(status[0].budget_remaining, 1.0);
  EXPECT_EQ(
      registry.GetCounter("slo_burn_alert_total", {{"slo", "lat"}}).value(),
      1u);
  EXPECT_EQ(journal.CountSince("slo.burn_alert", 0), 1u);

  // Recovery: good-only traffic ages the burst out of the short window.
  // The clear fires exactly once, audited the same way.
  for (int i = 0; i < 30; ++i) {
    status =
        tracker.Evaluate(FetchSnapshot(120 + 100ull * (i + 1ull), 120), t += 1);
  }
  EXPECT_FALSE(status[0].alerting);
  EXPECT_EQ(
      registry.GetCounter("slo_burn_clear_total", {{"slo", "lat"}}).value(),
      1u);
  EXPECT_EQ(journal.CountSince("slo.burn_clear", 0), 1u);
  EXPECT_EQ(
      registry.GetCounter("slo_burn_alert_total", {{"slo", "lat"}}).value(),
      1u);
}

TEST(Slo, MinSamplesGateBlocksNoTrafficAlerts) {
  obs::SloObjective o = TightLatencyObjective();
  o.min_samples = 50;
  obs::Registry registry;
  obs::EventLog journal;
  obs::SloTracker tracker({o}, &registry, &journal);
  tracker.Evaluate(FetchSnapshot(0, 0), 0);
  // 10 events, all bad — hot burn, but under the sample gate.
  tracker.Evaluate(FetchSnapshot(0, 10), 1);
  const std::vector<obs::SloStatus> status =
      tracker.Evaluate(FetchSnapshot(0, 20), 2);
  EXPECT_FALSE(status[0].alerting);
  EXPECT_EQ(journal.CountSince("slo.burn_alert", 0), 0u);
}

TEST(Slo, CounterResetClampsToZeroDelta) {
  obs::Registry registry;
  obs::EventLog journal;
  obs::SloObjective o;
  o.name = "avail";
  o.error_counter = "errs_total";
  o.total_counter = "reqs_total";
  o.max_bad_ratio = 0.1;
  o.short_window_s = 10;
  o.long_window_s = 40;
  o.budget_window_s = 100;
  obs::SloTracker tracker({o}, &registry, &journal);
  auto snap = [](double errs, double reqs) {
    return std::vector<MetricSnapshot>{Counter("errs_total", errs),
                                       Counter("reqs_total", reqs)};
  };
  tracker.Evaluate(snap(50, 1000), 0);
  // A node restart drops the cumulative counters. The negative delta
  // must clamp to zero — not register as a giant (or negative) burst.
  std::vector<obs::SloStatus> status = tracker.Evaluate(snap(0, 10), 1);
  EXPECT_FALSE(status[0].alerting);
  EXPECT_GE(status[0].bad_ratio_short, 0.0);
  status = tracker.Evaluate(snap(0, 500), 2);
  EXPECT_FALSE(status[0].alerting);
}

TEST(Slo, ErrorObjectiveCountsFamilySumsAcrossLabels) {
  obs::SloObjective o;
  o.name = "avail";
  o.error_counter = "errs_total";
  o.total_counter = "reqs_total";
  double bad = 0, total = 0;
  obs::SloEventCounts(o,
                      {Counter("errs_total{node=0}", 2),
                       Counter("errs_total{node=1}", 3),
                       Counter("reqs_total{node=0}", 50),
                       Counter("reqs_total{node=1}", 50)},
                      &bad, &total);
  EXPECT_DOUBLE_EQ(bad, 5.0);
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(Slo, LatencyEventCountsInterpolateInsideStraddlingBucket) {
  obs::SloObjective o;
  o.name = "lat";
  o.latency_histogram = "fetch_seconds";
  o.latency_threshold_s = 1.5;  // halfway through the (1,2] bucket
  double bad = 0, total = 0;
  // 10 in (1,2], 5 overflow: ~5 of the straddling bucket + all overflow.
  obs::SloEventCounts(o, {Hist("fetch_seconds", {1.0, 2.0}, {20, 10, 5}, 0)},
                      &bad, &total);
  EXPECT_DOUBLE_EQ(total, 35.0);
  EXPECT_NEAR(bad, 10.0, 1e-9);  // 5 interpolated + 5 overflow
}

// ---------------------------------------------------------------------------
// FleetScraper over a live ClusterTestbed.

const std::vector<double> kIsos = {0.2, 0.5};

void StoreDataset(storage::ObjectStore& store, const std::string& bucket,
                  const std::string& key, int n, std::int32_t brick_edge) {
  sim::ImpactConfig cfg;
  cfg.n = n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(brick_edge);
  writer.WriteToStore(store, bucket, key);
}

ClusterTestbedConfig FleetConfig() {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(2000);
  return config;
}

std::vector<std::shared_ptr<ndp::NdpClient>> ScrapeClients(
    ClusterTestbed& cluster) {
  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  for (int i = 0; i < cluster.server_count(); ++i) {
    clients.push_back(cluster.NewNodeClient(i));
  }
  return clients;
}

TEST(Fleet, SweepPublishesEpochStampedMergedWindows) {
  ClusterTestbed cluster(FleetConfig());
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
  for (int i = 0; i < 4; ++i) {
    (void)cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  }

  FleetScraperOptions options;
  options.objectives = DefaultFleetObjectives();
  FleetScraper scraper(ScrapeClients(cluster), options);

  const auto first = scraper.ScrapeOnce();
  const auto second = scraper.ScrapeOnce();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_LT(first->epoch, second->epoch);
  EXPECT_EQ(second->reachable, 3);
  ASSERT_EQ(second->nodes.size(), 3u);
  for (const auto& node : second->nodes) {
    EXPECT_TRUE(node.reachable);
    EXPECT_GT(node.scrape_seconds, 0.0);
    EXPECT_FALSE(node.metrics.empty());
    // Rates exist from sweep 2 on (delta against the previous sweep).
    EXPECT_FALSE(node.rates.empty());
  }
  // The fetches landed in somebody's pre-filter window, and the merge
  // carries both the cumulative and the window series.
  const auto* win =
      Find(second->merged, obs::WindowedName("ndp_select_seconds"));
  const auto* cum = Find(second->merged, "ndp_select_seconds");
  ASSERT_NE(win, nullptr);
  ASSERT_NE(cum, nullptr);
  EXPECT_GT(win->window_seconds, 0.0);
  EXPECT_GT(cum->count, 0u);
  // The scraper's own counters merged in too.
  const auto* scrapes = Find(second->merged, "fleet_scrape_total{node=0}");
  ASSERT_NE(scrapes, nullptr);
  EXPECT_DOUBLE_EQ(scrapes->value, 2.0);
  // SLO statuses evaluated against the merge.
  ASSERT_EQ(second->slo.size(), options.objectives.size());
  EXPECT_FALSE(second->slo[1].alerting);  // availability: all reachable
}

TEST(Fleet, DeadNodeCountsUnreachableAndScrapeFailures) {
  ClusterTestbed cluster(FleetConfig());
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  FleetScraper scraper(ScrapeClients(cluster));
  (void)scraper.ScrapeOnce();
  cluster.KillServer(1);
  const auto snap = scraper.ScrapeOnce();
  EXPECT_EQ(snap->reachable, 2);
  EXPECT_FALSE(snap->nodes[1].reachable);
  const auto* failed = Find(snap->merged, "fleet_scrape_failed_total{node=1}");
  ASSERT_NE(failed, nullptr);
  EXPECT_DOUBLE_EQ(failed->value, 1.0);

  // The channel heals: after a restart the next sweep sees the node.
  cluster.RestartServer(1);
  const auto healed = scraper.ScrapeOnce();
  EXPECT_EQ(healed->reachable, 3);
  EXPECT_TRUE(healed->nodes[1].reachable);
}

TEST(Fleet, SlowNodeFlaggedWithinOneWindowAndCleared) {
  ClusterTestbed cluster(FleetConfig());
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  net::FaultInjectingTransport* fault = nullptr;
  for (int i = 0; i < cluster.server_count(); ++i) {
    clients.push_back(
        cluster.NewNodeClient(i, i == 2 ? &fault : nullptr));
  }
  ASSERT_NE(fault, nullptr);

  FleetScraperOptions options;
  // Nodes serve no traffic here, so the outlier signal is the scrape
  // RTT window; a couple of sweeps is enough population.
  options.slow_min_samples = 2;
  options.slow_factor = 3.0;
  FleetScraper scraper(clients, options);

  const std::uint64_t base_seq = obs::GlobalEventLog().LastSeq();
  obs::Counter& slow_counter = obs::DefaultRegistry().GetCounter(
      "cluster_slow_node_total", {{"node", "2"}});
  const std::uint64_t base_count = slow_counter.value();
  // Warm RTT windows on every node.
  (void)scraper.ScrapeOnce();
  (void)scraper.ScrapeOnce();

  // Slow node 2's scrape channel far past 3x the fleet median.
  fault->ScriptReceive(
      std::vector<net::FaultAction>(
          64, net::FaultAction::Delay(std::chrono::milliseconds(40))),
      /*loop_last=*/true);
  bool flagged = false;
  for (int sweep = 0; sweep < 6 && !flagged; ++sweep) {
    flagged = scraper.ScrapeOnce()->nodes[2].slow;
  }
  EXPECT_TRUE(flagged);
  // Edge-triggered audited pair: one counter increment, one journal
  // event for node 2. (Filter by node: in-proc scrape RTTs are a few
  // microseconds, so scheduler noise can legitimately trip the 3x rule
  // on another node for a sweep — that's a real alert, just not ours.)
  auto node2_events = [base_seq] {
    size_t n = 0;
    for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
      if (e.seq > base_seq && e.name == "cluster.slow_node" &&
          e.detail.rfind("node=2 ", 0) == 0) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(slow_counter.value() - base_count, 1u);
  EXPECT_EQ(node2_events(), 1u);

  // Remove the fault; fast sweeps age the slow epochs out of the RTT
  // window and the flag clears without a second alert.
  fault->ScriptReceive({}, /*loop_last=*/false);
  bool cleared = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!cleared && std::chrono::steady_clock::now() < deadline) {
    cleared = !scraper.ScrapeOnce()->nodes[2].slow;
    if (!cleared) std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_TRUE(cleared);
  EXPECT_EQ(slow_counter.value() - base_count, 1u);
}

TEST(Fleet, RenderersExposeTheSnapshot) {
  ClusterTestbed cluster(FleetConfig());
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
  (void)cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);

  FleetScraperOptions options;
  options.objectives = DefaultFleetObjectives();
  FleetScraper scraper(ScrapeClients(cluster), options);
  (void)scraper.ScrapeOnce();
  const auto snap = scraper.ScrapeOnce();

  const std::string json = FleetSnapshotJson(*snap);
  EXPECT_NE(json.find("\"per_node\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet_window\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"reachable\":3"), std::string::npos);

  const std::string prom = FleetSnapshotProm(*snap);
  EXPECT_NE(prom.find("node=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("node=\"2\""), std::string::npos);
  EXPECT_NE(prom.find("fleet_scrape_total"), std::string::npos);
  // One # TYPE per family even with three nodes' series interleaved.
  const std::string type_line = "# TYPE rpc_requests_total counter";
  const size_t first = prom.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(prom.find(type_line, first + 1), std::string::npos);

  const std::string text = FleetSnapshotText(*snap);
  EXPECT_NE(text.find("fleet epoch"), std::string::npos);
  EXPECT_NE(text.find("P95ms"), std::string::npos);
  EXPECT_NE(text.find("slo select-p99"), std::string::npos);
}

}  // namespace
}  // namespace vizndp::cluster
