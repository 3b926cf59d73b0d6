// The sharded serving tier's contract: scatter-gathered geometry is
// bit-identical to the single-server split pipeline under any shard
// interleaving, any single-server loss, and hedged execution — and
// every degradation is visible in metrics and the event journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <set>

#include "bench_util/testbed.h"
#include "cluster/shard_map.h"
#include "cluster/sharded_client.h"
#include "io/vnd_format.h"
#include "net/fault.h"
#include "obs/windowed.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/impact.h"

namespace vizndp::cluster {
namespace {

using bench_util::ClusterTestbed;
using bench_util::ClusterTestbedConfig;

const std::vector<double> kIsos = {0.2, 0.5};

grid::Dataset MakeImpact(int n) {
  sim::ImpactConfig cfg;
  cfg.n = n;
  return sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
}

void StoreDataset(storage::ObjectStore& store, const std::string& bucket,
                  const std::string& key, int n, std::int32_t brick_edge) {
  const grid::Dataset ds = MakeImpact(n);
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(brick_edge);
  writer.WriteToStore(store, bucket, key);
}

std::uint64_t CounterValue(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

// One one-shot select of ts.vnd, optionally restricted to `bricks`, with
// a collecting deliver: its accounting and its one chunk's selection.
struct Collected {
  ndp::StreamAccumulator acc;
  ndp::DecodedSelection selection;  // empty when no brick straddled
};

Collected Collect(ndp::NdpClient& client,
                  const std::vector<std::int64_t>* bricks) {
  Collected out;
  client.StreamSelect("ts.vnd", "v02", kIsos, bricks, out.acc,
                      [&](ndp::DecodedSelection&& sel) {
                        out.selection = std::move(sel);
                        return true;
                      });
  return out;
}

// ---------------------------------------------------------------------------
// ShardMap placement properties.

TEST(ShardMap, PartitionIsDisjointSortedAndCovers) {
  const ShardMap map(5, 2);
  const std::int64_t bricks = 512;
  const auto slices = map.Partition("codec/ts1.vnd", bricks);
  ASSERT_EQ(slices.size(), 5u);
  std::vector<std::int64_t> all;
  for (const auto& slice : slices) {
    EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
    all.insert(all.end(), slice.begin(), slice.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::int64_t> expect(static_cast<size_t>(bricks));
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(all, expect);  // disjoint + covering, in one comparison
}

TEST(ShardMap, PartitionIsRoughlyBalanced) {
  const ShardMap map(4, 2);
  const auto slices = map.Partition("a.vnd", 4096);
  for (const auto& slice : slices) {
    // Rendezvous hashing: expect 1024 +/- a generous tolerance.
    EXPECT_GT(slice.size(), 700u);
    EXPECT_LT(slice.size(), 1400u);
  }
}

TEST(ShardMap, DifferentKeysPlaceDifferently) {
  const ShardMap map(4, 1);
  const auto a = map.Partition("a.vnd", 256);
  const auto b = map.Partition("b.vnd", 256);
  EXPECT_NE(a, b);
}

TEST(ShardMap, ReplicaChainStartsHomeAndIsUnique) {
  const ShardMap map(5, 3);
  for (int shard = 0; shard < 5; ++shard) {
    const std::vector<int> chain = map.ReplicaChain(shard);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0], shard);
    std::set<int> unique(chain.begin(), chain.end());
    EXPECT_EQ(unique.size(), chain.size());
    for (const int sv : chain) {
      EXPECT_GE(sv, 0);
      EXPECT_LT(sv, 5);
    }
  }
}

TEST(ShardMap, ReplicasClampToFleet) {
  const ShardMap map(2, 5);
  EXPECT_EQ(map.replicas(), 2);
  EXPECT_EQ(map.ReplicaChain(0).size(), 2u);
}

// ---------------------------------------------------------------------------
// Scatter-gather correctness.

TEST(Cluster, ShardedMatchesSingleServer) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  ndp::NdpLoadStats ref_stats;
  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos, &ref_stats);

  ndp::NdpLoadStats stats;
  const contour::PolyData sharded =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos, &stats);

  EXPECT_TRUE(sharded.GeometricallyEquals(reference, 0.0));
  // The merge deduplicates halo points, so the sharded count equals the
  // single-server one exactly.
  EXPECT_EQ(stats.selected_points, ref_stats.selected_points);
  EXPECT_EQ(stats.total_points, ref_stats.total_points);
  EXPECT_EQ(stats.bricks_total, ref_stats.bricks_total);
  EXPECT_FALSE(stats.used_fallback);
}

TEST(Cluster, UnbrickedDatasetRoutesWhole) {
  ClusterTestbedConfig config;
  config.servers = 3;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "mono.vnd", 24,
               /*brick_edge=*/0);

  const contour::PolyData reference =
      cluster.server_client(0)->Contour("mono.vnd", "v02", kIsos);
  const contour::PolyData sharded =
      cluster.sharded_client()->Contour("mono.vnd", "v02", kIsos);
  EXPECT_TRUE(sharded.GeometricallyEquals(reference, 0.0));
}

// Restricted selections really are a partition of the full one: the
// union of per-slice ids equals the unrestricted ids (duplicates only
// from brick-boundary halos, with identical values).
TEST(Cluster, RestrictionUnionMatchesFullSelection) {
  ClusterTestbedConfig config;
  config.servers = 3;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  auto client = cluster.server_client(0);
  const Collected full = Collect(*client, nullptr);

  const auto info = client->Info("ts.vnd");
  const auto* meta = info.Find("v02");
  ASSERT_NE(meta, nullptr);
  ASSERT_GT(meta->brick_count, 0);

  const ShardMap& map = cluster.sharded_client()->shard_map();
  std::vector<grid::PointId> merged;
  for (const auto& slice : map.Partition("ts.vnd", meta->brick_count)) {
    if (slice.empty()) continue;
    const Collected part = Collect(*client, &slice);
    merged.insert(merged.end(), part.selection.ids.begin(),
                  part.selection.ids.end());
    EXPECT_LE(part.acc.bricks_read, full.acc.bricks_read);
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  std::vector<grid::PointId> expect(full.selection.ids.begin(),
                                    full.selection.ids.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(merged, expect);
}

// Merge determinism, the property the whole tier rests on: any
// permutation of partial arrivals — even with one partial applied twice
// (a won-and-lost hedge both delivering) — reconstructs the same field
// and contour, bit for bit.
TEST(Cluster, MergeIsPermutationAndDuplicateInvariant) {
  ClusterTestbedConfig config;
  config.servers = 4;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  auto client = cluster.server_client(0);
  grid::UniformGeometry geometry;
  const contour::SparseField reference_field =
      client->FetchSparseField("ts.vnd", "v02", kIsos, &geometry);
  const contour::PolyData reference =
      reference_field.Contour(geometry, kIsos);

  const auto info = client->Info("ts.vnd");
  const auto* meta = info.Find("v02");
  ASSERT_NE(meta, nullptr);
  std::vector<Collected> partials;
  for (const auto& slice : cluster.sharded_client()->shard_map().Partition(
           "ts.vnd", meta->brick_count)) {
    if (slice.empty()) continue;
    partials.push_back(Collect(*client, &slice));
  }
  ASSERT_GE(partials.size(), 2u);

  std::vector<size_t> order(partials.size());
  std::iota(order.begin(), order.end(), 0);
  int tried = 0;
  do {
    contour::SparseField field(partials[0].acc.header.dims,
                               partials[0].acc.header.dtype);
    for (const size_t i : order) {
      field.Scatter(partials[i].selection.ids, partials[i].selection.values);
    }
    // Duplicate one partial: a hedge loser that delivered anyway.
    field.Scatter(partials[order[0]].selection.ids,
                  partials[order[0]].selection.values);
    EXPECT_EQ(field.ValidCount(), reference_field.ValidCount());
    EXPECT_TRUE(
        field.Contour(geometry, kIsos).GeometricallyEquals(reference, 0.0));
  } while (std::next_permutation(order.begin(), order.end()) && ++tried < 24);
}

// ---------------------------------------------------------------------------
// Failure ladder.

TEST(Cluster, SurvivesKillingOneServerBitIdentical) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(5000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);

  const std::uint64_t failovers_before = CounterValue("cluster_failover_total");
  cluster.KillServer(1);
  const contour::PolyData degraded =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);

  EXPECT_TRUE(degraded.GeometricallyEquals(reference, 0.0));
  // Server 1 is primary for shard 1; its sub-request must have failed
  // over to a replica, and the journal must carry the event.
  EXPECT_GT(CounterValue("cluster_failover_total"), failovers_before);
  EXPECT_NE(obs::GlobalEventLog().Json().find("cluster.failover"),
            std::string::npos);
}

// The walk decides whether to try a node from each attempt's own
// outcome, so a node that failed one fetch is primary for its home
// shard again on the next one: nothing about the failure sticks.
TEST(Cluster, RecoveredNodeServesItsHomeShardOnTheNextFetch) {
  struct Case {
    const char* name;
    std::function<void(ClusterTestbed&)> fail;
    std::function<void(ClusterTestbed&)> recover;
  };
  const Case cases[] = {
      {"shed one select",
       [](ClusterTestbed& c) { c.rpc_server(1).memory_budget().SetLimit(1); },
       [](ClusterTestbed& c) { c.rpc_server(1).memory_budget().SetLimit(0); }},
      {"kill and restart", [](ClusterTestbed& c) { c.KillServer(1); },
       [](ClusterTestbed& c) { c.RestartServer(1); }},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    ClusterTestbedConfig config;
    config.servers = 3;
    config.replicas = 2;
    config.sharded.hedge_ms = -1;  // only failover reaches a replica
    config.client_options.call_timeout = std::chrono::milliseconds(5000);
    ClusterTestbed cluster(config);
    StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
    const contour::PolyData reference =
        cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);
    const auto node1_selects = [&] {
      return cluster.ndp_server(1)
          .metrics()
          .GetCounter("ndp_select_requests_total")
          .value();
    };

    tc.fail(cluster);
    EXPECT_TRUE(cluster.sharded_client()
                    ->Contour("ts.vnd", "v02", kIsos)
                    .GeometricallyEquals(reference, 0.0));
    tc.recover(cluster);
    const std::uint64_t before = node1_selects();
    EXPECT_TRUE(cluster.sharded_client()
                    ->Contour("ts.vnd", "v02", kIsos)
                    .GeometricallyEquals(reference, 0.0));
    EXPECT_GT(node1_selects(), before);
  }
}

// A streamed attempt against a dead node fails before any header. The
// walk fails it over at once, as it does a one-shot attempt: a same-node
// resume continues a stream that has its header, so none is spent
// redialing a node that never answered.
TEST(Cluster, DeadPrimaryFailsOverWithoutResumingOnIt) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.sharded.hedge_ms = -1;  // only failover reaches a replica
  config.client_options.call_timeout = std::chrono::milliseconds(5000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);

  ndp::StreamOptions stream;
  stream.chunk_bricks = 1;
  cluster.sharded_client()->SetStream(stream);
  cluster.KillServer(1);
  const std::uint64_t resumes_before = CounterValue("ndp_stream_resume_total");
  const std::uint64_t failovers_before =
      CounterValue("cluster_failover_total");
  EXPECT_TRUE(cluster.sharded_client()
                  ->Contour("ts.vnd", "v02", kIsos)
                  .GeometricallyEquals(reference, 0.0));
  EXPECT_EQ(CounterValue("ndp_stream_resume_total"), resumes_before);
  EXPECT_GE(CounterValue("cluster_failover_total"), failovers_before + 1);
}

TEST(Cluster, ApplicationErrorsPropagateInsteadOfFailingOver) {
  ClusterTestbedConfig config;
  config.servers = 3;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const std::uint64_t failovers_before = CounterValue("cluster_failover_total");
  // A bad array name is bad on every replica: one typed error, no
  // failover churn, no rescue fetch.
  EXPECT_THROW(
      cluster.sharded_client()->Contour("ts.vnd", "nope", kIsos),
      RpcError);
  // A missing object is a permanent storage failure on every replica:
  // the typed IoError propagates without failover churn.
  EXPECT_THROW(cluster.sharded_client()->Contour("missing.vnd", "v02", kIsos),
               IoError);
  EXPECT_EQ(CounterValue("cluster_failover_total"), failovers_before);
}

// ---------------------------------------------------------------------------
// Hedging.

// Both reply shapes race the same way: a stream hedges until its first
// data chunk, and a losing stream is cancelled.
TEST(Cluster, HedgeFiresOnSlowReplicaAndWins) {
  for (const std::int64_t chunk_bricks : {0, 1}) {
    SCOPED_TRACE("chunk_bricks " + std::to_string(chunk_bricks));
    ClusterTestbedConfig config;
    config.servers = 3;
    config.replicas = 2;
    config.client_options.call_timeout = std::chrono::milliseconds(10000);
    config.sharded.hedge_ms = 40;  // fixed: fire fast, deterministically
    // Server 1 answers everything 400 ms late: any sub-request homed
    // there hedges onto its replica, and the replica wins.
    config.decorate = [](net::TransportPtr t,
                         int server) -> net::TransportPtr {
      if (server != 1) return t;
      auto faulty =
          std::make_unique<net::FaultInjectingTransport>(std::move(t));
      faulty->ScriptReceive(
          {net::FaultAction::Delay(std::chrono::microseconds(400'000))},
          /*loop_last=*/true);
      return faulty;
    };
    ClusterTestbed cluster(config);
    StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

    const contour::PolyData reference =
        cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);
    ndp::StreamOptions so;
    so.chunk_bricks = chunk_bricks;
    cluster.sharded_client()->SetStream(so);

    const std::uint64_t launched_before =
        CounterValue("ndp_hedge_launched_total");
    const std::uint64_t won_before = CounterValue("ndp_hedge_won_total");
    const contour::PolyData hedged =
        cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);

    EXPECT_TRUE(hedged.GeometricallyEquals(reference, 0.0));
    EXPECT_GT(CounterValue("ndp_hedge_launched_total"), launched_before);
    EXPECT_GT(CounterValue("ndp_hedge_won_total"), won_before);
    const std::string journal = obs::GlobalEventLog().Json();
    EXPECT_NE(journal.find("cluster.hedge"), std::string::npos);
    EXPECT_NE(journal.find("cluster.hedge_won"), std::string::npos);
  }
}

TEST(Cluster, NoHedgeWhenDisabled) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.sharded.hedge_ms = -1;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const std::uint64_t launched_before =
      CounterValue("ndp_hedge_launched_total");
  cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  EXPECT_EQ(CounterValue("ndp_hedge_launched_total"), launched_before);
}

// The hedge delay's ladder, rung by rung: fixed, window, cumulative,
// floor. cluster_subfetch_seconds (each walk's time to its win) is
// process-wide, so every expectation is taken from its own snapshot.
TEST(Cluster, HedgeDelayFollowsItsLadder) {
  constexpr double kFloorMs = ShardedNdpClient::kHedgeFloorMs;
  constexpr double kQuantile = ShardedNdpClient::kHedgeQuantile;
  const auto us = [](double ms) { return static_cast<std::int64_t>(ms * 1e3); };
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(10000);
  config.sharded.hedge_ms = -1;  // feeds wins, never races
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 16, 8);
  const auto with_hedge_ms = [&](double hedge_ms) {
    ShardedClientOptions options;
    options.hedge_ms = hedge_ms;
    return std::make_unique<ShardedNdpClient>(
        std::vector{cluster.server_client(0), cluster.server_client(1),
                    cluster.server_client(2)},
        /*replicas=*/2, options);
  };

  EXPECT_FALSE(with_hedge_ms(-1)->HedgeDelay().has_value());
  EXPECT_EQ(with_hedge_ms(40)->HedgeDelay().value().count(), us(40));

  // Reads the delay; never fetches, so never adds a win of its own.
  const std::unique_ptr<ShardedNdpClient> adaptive = with_hedge_ms(0);
  obs::WindowedHistogram& wins = obs::DefaultRegistry().GetWindowedHistogram(
      "cluster_subfetch_seconds", obs::LatencyBounds());

  // Wins faster than the floor: the delay is the floor. They are
  // observed directly: how long a real in-proc win takes depends on the
  // host, and a sanitizer build can take longer than the floor.
  wins.AdvanceEpochsForTest(1000);  // empties the window
  for (std::uint64_t i = 0; i < ShardedNdpClient::kMinHedgeSamples; ++i) {
    wins.Observe(1e-3);
  }
  const obs::MetricSnapshot fast = wins.WindowSnapshot();
  ASSERT_LT(1e3 * obs::SnapshotQuantile(fast, kQuantile), kFloorMs);
  EXPECT_EQ(adaptive->HedgeDelay().value().count(), us(kFloorMs));

  // Every node answers 40 ms late: once kMinHedgeSamples wins slower
  // than the floor are in the window, its tail sets the delay.
  for (int i = 0; i < cluster.server_count(); ++i) {
    cluster.fault(i).ScriptReceive(
        {net::FaultAction::Delay(std::chrono::milliseconds(40))},
        /*loop_last=*/true);
  }
  const std::uint64_t target =
      wins.WindowCount() + ShardedNdpClient::kMinHedgeSamples;
  while (wins.WindowCount() < target) {
    (void)cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  }
  const obs::MetricSnapshot slow = wins.WindowSnapshot();
  const std::int64_t window_rung =
      us(std::max(kFloorMs, 1e3 * obs::SnapshotQuantile(slow, kQuantile)));
  EXPECT_EQ(adaptive->HedgeDelay().value().count(), window_rung);
  EXPECT_GT(window_rung, us(kFloorMs));

  // The window empties; the cumulative series still holds every win.
  wins.AdvanceEpochsForTest(1000);
  ASSERT_EQ(wins.WindowCount(), 0u);
  EXPECT_EQ(adaptive->HedgeDelay().value().count(),
            us(std::max(kFloorMs, 1e3 * obs::HistogramQuantile(
                                            wins.cumulative(), kQuantile))));
}

// Losing every replica of a shard falls to the unrestricted rescue rung:
// the whole dataset from any surviving node, still bit-identical.
TEST(Cluster, AllReplicasDownTakesUnrestrictedRescue) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 1;  // no replicas: killing a node dooms its shard
  config.client_options.call_timeout = std::chrono::milliseconds(5000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);

  const std::uint64_t rescues_before =
      CounterValue("cluster_unrestricted_fallback_total");
  cluster.KillServer(1);
  const contour::PolyData rescued =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  EXPECT_TRUE(rescued.GeometricallyEquals(reference, 0.0));
  EXPECT_GT(CounterValue("cluster_unrestricted_fallback_total"),
            rescues_before);
  EXPECT_NE(obs::GlobalEventLog().Json().find("cluster.unrestricted_fallback"),
            std::string::npos);
}

// The rescue rung's own refusals are audited like every other rung: one
// counter increment and one journal event per refused rescue attempt.
TEST(Cluster, RefusedRescueAttemptIsCountedAndJournaled) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 1;
  config.client_options.call_timeout = std::chrono::milliseconds(5000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const contour::PolyData reference =
      cluster.server_client(1)->Contour("ts.vnd", "v02", kIsos);

  const std::uint64_t refused_before =
      CounterValue("cluster_rescue_failed_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  // Server 0 dooms its own shard and is the rescue's first candidate, so
  // exactly one rescue attempt is refused before server 1 serves.
  cluster.KillServer(0);
  const contour::PolyData rescued =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  EXPECT_TRUE(rescued.GeometricallyEquals(reference, 0.0));
  EXPECT_EQ(CounterValue("cluster_rescue_failed_total") - refused_before, 1u);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("cluster.rescue_failed", seq),
            1u);
}

// Per-shard accounting exists and sums sensibly after a sharded fetch.
TEST(Cluster, PerShardCountersAdvance) {
  ClusterTestbedConfig config;
  config.servers = 3;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  std::vector<std::uint64_t> before;
  for (int s = 0; s < 3; ++s) {
    before.push_back(obs::DefaultRegistry()
                         .GetCounter("cluster_subfetch_total",
                                     {{"shard", std::to_string(s)}})
                         .value());
  }
  cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  std::uint64_t advanced = 0;
  for (int s = 0; s < 3; ++s) {
    advanced += obs::DefaultRegistry()
                    .GetCounter("cluster_subfetch_total",
                                {{"shard", std::to_string(s)}})
                    .value() -
                before[static_cast<size_t>(s)];
  }
  // 64 bricks over 3 shards: every shard holds a slice.
  EXPECT_EQ(advanced, 3u);
  EXPECT_GE(obs::DefaultRegistry()
                .GetWindowedHistogram("cluster_subfetch_seconds",
                                      obs::LatencyBounds())
                .cumulative()
                .count(),
            3u);
}

}  // namespace
}  // namespace vizndp::cluster
