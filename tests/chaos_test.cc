// Self-healing membership and the seeded chaos harness: the state
// machine walks live → suspect → dead → rejoining → live exactly as
// specified, a killed node drops out of placement and a restarted one is
// re-admitted (and observed serving again), epochs only climb, parked
// hedge losers drain to zero, hostile brick restrictions are rejected at
// the protocol boundary, and whole randomized fault schedules preserve
// bit-identical geometry with a clean counter/journal audit.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_util/testbed.h"
#include "cluster/health_monitor.h"
#include "cluster/shard_map.h"
#include "cluster/sharded_client.h"
#include "common/error.h"
#include "io/vnd_format.h"
#include "msgpack/value.h"
#include "ndp/protocol.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/impact.h"
#include "testing/chaos.h"

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

// One one-shot select of ts.vnd against a single node, its chunks
// dropped: the direct proof that the node serves.
void Select(ndp::NdpClient& client, const std::vector<std::int64_t>* bricks) {
  ndp::StreamAccumulator acc;
  client.StreamSelect("ts.vnd", "v02", kIsos, bricks, acc,
                      [](ndp::DecodedSelection&&) { return true; });
}

// Deterministic monitor driver: probe synchronously until `pred` holds.
template <typename Pred>
bool ProbeUntil(HealthMonitor& monitor, Pred pred, int max_sweeps = 20) {
  for (int i = 0; i < max_sweeps; ++i) {
    monitor.ProbeOnce();
    if (pred()) return true;
  }
  return pred();
}

// ---------------------------------------------------------------------------
// The per-node state machine, exercised as a pure function.

TEST(HealthMonitor, AdvanceWalksTheLifecycle) {
  HealthMonitorOptions opt;
  opt.suspect_after = 1;
  opt.dead_after = 3;
  opt.rejoin_after = 2;
  HealthMonitor::NodeCell cell;

  // live --fail--> suspect
  EXPECT_TRUE(HealthMonitor::Advance(cell, false, opt));
  EXPECT_EQ(cell.state, NodeState::kSuspect);
  // suspicion builds: two more failures reach dead_after.
  EXPECT_FALSE(HealthMonitor::Advance(cell, false, opt));
  EXPECT_TRUE(HealthMonitor::Advance(cell, false, opt));
  EXPECT_EQ(cell.state, NodeState::kDead);
  // dead + ok -> rejoining; rejoin_after consecutive oks -> live.
  EXPECT_TRUE(HealthMonitor::Advance(cell, true, opt));
  EXPECT_EQ(cell.state, NodeState::kRejoining);
  EXPECT_TRUE(HealthMonitor::Advance(cell, true, opt));
  EXPECT_EQ(cell.state, NodeState::kLive);
  EXPECT_EQ(cell.suspicion, 0);
}

TEST(HealthMonitor, SuspicionDecaysInsteadOfAbsolving) {
  HealthMonitorOptions opt;
  opt.suspect_after = 1;
  opt.dead_after = 3;
  HealthMonitor::NodeCell cell;
  // Two failures: suspect with suspicion 2.
  HealthMonitor::Advance(cell, false, opt);
  HealthMonitor::Advance(cell, false, opt);
  EXPECT_EQ(cell.state, NodeState::kSuspect);
  // One ok probe decays but does not clear: still suspect.
  EXPECT_FALSE(HealthMonitor::Advance(cell, true, opt));
  EXPECT_EQ(cell.state, NodeState::kSuspect);
  // The second ok climbs back to live.
  EXPECT_TRUE(HealthMonitor::Advance(cell, true, opt));
  EXPECT_EQ(cell.state, NodeState::kLive);
}

TEST(HealthMonitor, FlappingNodeNeverRejoins) {
  HealthMonitorOptions opt;
  opt.rejoin_after = 3;
  HealthMonitor::NodeCell cell;
  cell.state = NodeState::kDead;
  for (int round = 0; round < 4; ++round) {
    HealthMonitor::Advance(cell, true, opt);   // starts the gate
    HealthMonitor::Advance(cell, true, opt);   // streak 2 of 3...
    HealthMonitor::Advance(cell, false, opt);  // ...and flaps
    EXPECT_EQ(cell.state, NodeState::kDead);
  }
}

// ---------------------------------------------------------------------------
// Placement over eligibility masks.

TEST(ShardMap, EligibilityDropsDeadServersFromPartition) {
  const ShardMap map(3, 2);
  const std::vector<bool> eligible = {true, false, true};
  const auto slices = map.Partition("ts.vnd", 64, &eligible);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_TRUE(slices[1].empty());  // the dead server owns nothing
  EXPECT_EQ(slices[0].size() + slices[2].size(), 64u);  // fully re-spread
  for (const int shard : {0, 2}) {
    const std::vector<int> chain = map.ReplicaChain(shard, &eligible);
    for (const int sv : chain) EXPECT_NE(sv, 1);
  }
}

TEST(ShardMap, AllIneligibleFallsBackToEveryone) {
  const ShardMap map(3, 2);
  const std::vector<bool> nobody = {false, false, false};
  const auto slices = map.Partition("ts.vnd", 64, &nobody);
  size_t total = 0;
  for (const auto& s : slices) total += s.size();
  EXPECT_EQ(total, 64u);  // a hopeless mask must not erase the dataset
  EXPECT_EQ(map.ReplicaChain(0, &nobody).size(), 2u);
}

// ---------------------------------------------------------------------------
// Monitor + testbed: detect, route around, rejoin.

TEST(Cluster, KillDetectRouteAroundAndRejoin) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(2000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 16, 8);

  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);

  std::vector<std::shared_ptr<ndp::NdpClient>> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(cluster.probe_client(i));
  HealthMonitorOptions mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.rejoin_after = 2;
  HealthMonitor monitor(std::move(probes), mopts);
  monitor.SetViewSink([&](std::shared_ptr<const FleetView> view) {
    cluster.sharded_client()->SetFleetView(std::move(view));
  });
  // Driven synchronously (no Start()): every transition is deterministic.
  monitor.ProbeOnce();

  const std::uint64_t base_seq = obs::GlobalEventLog().LastSeq();
  cluster.KillServer(1);
  ASSERT_TRUE(ProbeUntil(monitor, [&] {
    const auto v = cluster.sharded_client()->fleet_view();
    return v != nullptr && v->states[1] == NodeState::kDead;
  }));

  // Dead node out of placement: the fetch plans around it and still
  // reproduces the oracle bit for bit.
  const std::uint64_t failovers_before =
      obs::DefaultRegistry().GetCounter("cluster_failover_total").value();
  const contour::PolyData routed =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  EXPECT_TRUE(routed.GeometricallyEquals(reference, 0.0));
  EXPECT_EQ(
      obs::DefaultRegistry().GetCounter("cluster_failover_total").value(),
      failovers_before);  // no failover needed: node 1 was never tried

  // Restart: the monitor walks it through rejoining back to live, and
  // journals the rejoin.
  cluster.RestartServer(1);
  ASSERT_TRUE(ProbeUntil(monitor, [&] {
    const auto v = cluster.sharded_client()->fleet_view();
    return v != nullptr && v->states[1] == NodeState::kLive;
  }));
  EXPECT_GE(obs::GlobalEventLog().CountSince("cluster.rejoin", base_seq), 1u);

  // The fresh incarnation serves traffic: its own select counter moves.
  const contour::PolyData after =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos);
  EXPECT_TRUE(after.GeometricallyEquals(reference, 0.0));
  if (cluster.ndp_server(1).metrics()
          .GetCounter("ndp_select_requests_total").value() == 0) {
    // This key's partition may give node 1 nothing; prove it directly.
    EXPECT_NO_THROW(Select(*cluster.server_client(1), nullptr));
  }
  EXPECT_GT(cluster.ndp_server(1).metrics()
                .GetCounter("ndp_select_requests_total").value(), 0u);
}

TEST(Cluster, ViewEpochsClimbMonotonically) {
  ClusterTestbedConfig config;
  config.servers = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(2000);
  ClusterTestbed cluster(config);

  std::vector<std::shared_ptr<ndp::NdpClient>> probes;
  for (int i = 0; i < 2; ++i) probes.push_back(cluster.probe_client(i));
  HealthMonitorOptions mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 1;
  mopts.rejoin_after = 1;
  HealthMonitor monitor(std::move(probes), mopts);

  std::vector<std::uint64_t> epochs;
  monitor.SetViewSink([&](std::shared_ptr<const FleetView> view) {
    epochs.push_back(view->epoch);
  });
  monitor.ProbeOnce();  // publishes nothing: all live, no change yet
  for (int round = 0; round < 3; ++round) {
    cluster.KillServer(0);
    ProbeUntil(monitor, [&] {
      return monitor.view() != nullptr &&
             monitor.view()->states[0] == NodeState::kDead;
    });
    cluster.RestartServer(0);
    ProbeUntil(monitor, [&] {
      return monitor.view()->states[0] == NodeState::kLive;
    });
  }
  ASSERT_GE(epochs.size(), 6u);  // >= one down + one up transition per round
  for (size_t i = 1; i < epochs.size(); ++i) {
    EXPECT_EQ(epochs[i], epochs[i - 1] + 1);  // dense and strictly climbing
  }
}

TEST(Cluster, MonitorThreadDetectsAndHealsOnItsOwn) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(2000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 16, 8);

  std::vector<std::shared_ptr<ndp::NdpClient>> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(cluster.probe_client(i));
  HealthMonitorOptions mopts;
  mopts.period = std::chrono::milliseconds(10);
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.rejoin_after = 2;
  HealthMonitor monitor(std::move(probes), mopts);
  monitor.SetViewSink([&](std::shared_ptr<const FleetView> view) {
    cluster.sharded_client()->SetFleetView(std::move(view));
  });
  monitor.Start();
  EXPECT_TRUE(monitor.running());
  ASSERT_NE(monitor.view(), nullptr);
  EXPECT_EQ(monitor.view()->epoch, 1u);  // initial all-live view

  auto wait_state = [&](int node, NodeState want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto v = monitor.view();
      if (v != nullptr && v->states[static_cast<size_t>(node)] == want) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  cluster.KillServer(2);
  EXPECT_TRUE(wait_state(2, NodeState::kDead));
  cluster.RestartServer(2);
  EXPECT_TRUE(wait_state(2, NodeState::kLive));
  monitor.Stop();
  EXPECT_FALSE(monitor.running());
}

// ---------------------------------------------------------------------------
// Satellite: a channel to a down node is not permanently dead.

TEST(Cluster, ChannelToDownServerHealsOnRestart) {
  ClusterTestbedConfig config;
  config.servers = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(2000);
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 12, 8);

  cluster.KillServer(1);
  EXPECT_THROW(cluster.server_client(1)->Health(), Error);

  // The same client object — no monitor, no rebuild — works again the
  // moment the server is back: the reconnecting channel just re-dials.
  cluster.RestartServer(1);
  EXPECT_NO_THROW(cluster.server_client(1)->Health());
  const contour::PolyData direct =
      cluster.server_client(1)->Contour("ts.vnd", "v02", kIsos);
  EXPECT_GT(direct.TriangleCount(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: health replies carry node identity + view epoch.

TEST(Cluster, HealthReportsIdentityAndEchoedEpoch) {
  ClusterTestbedConfig config;
  config.servers = 2;
  ClusterTestbed cluster(config);

  const ndp::NdpClient::HealthReport a = cluster.probe_client(0)->Health(7);
  EXPECT_NE(a.node_id, 0u);
  EXPECT_EQ(cluster.ndp_server(0).seen_view_epoch(), 7u);
  // Epochs only ratchet up: an older prober cannot regress the node.
  (void)cluster.probe_client(0)->Health(3);
  EXPECT_EQ(cluster.ndp_server(0).seen_view_epoch(), 7u);

  // A restart mints a new identity — the silent-restart tripwire.
  cluster.KillServer(0);
  cluster.RestartServer(0);
  // The very first call after the restart must succeed: the send lands
  // on the stale connection, and ReconnectingTransport re-dials and
  // re-sends transparently (the frame never left, so it is no retry).
  const ndp::NdpClient::HealthReport b = cluster.probe_client(0)->Health();
  EXPECT_NE(b.node_id, 0u);
  EXPECT_NE(b.node_id, a.node_id);
}

// ---------------------------------------------------------------------------
// Satellite: hostile brick restrictions die at the protocol boundary.

TEST(Protocol, HostileBrickRestrictionsRejected) {
  using msgpack::Array;
  using msgpack::Value;
  // A valid request with `restriction` in the restriction slot, parsed
  // the way NdpServer::Bind parses it.
  const auto parse = [](Value restriction) {
    ndp::SelectRequest request;
    request.key = "ts.vnd";
    request.array = "v02";
    Array params = ndp::SelectRequestToParams(request);
    params.push_back(std::move(restriction));
    return ndp::SelectRequestFromParams(params);
  };
  auto restriction = [](std::vector<std::int64_t> ids) {
    Array arr;
    for (const std::int64_t id : ids) arr.emplace_back(id);
    return Value(std::move(arr));
  };
  // Non-ascending, duplicate, negative: each violates the sorted-unique-
  // non-negative contract.
  EXPECT_THROW((void)parse(restriction({5, 2, 9})), DecodeError);
  EXPECT_THROW((void)parse(restriction({1, 1, 2})), DecodeError);
  EXPECT_THROW((void)parse(restriction({-1, 0})), DecodeError);
  // Absurd length: one past the hard cap.
  Array huge;
  huge.reserve(ndp::kMaxBrickRestriction + 1);
  for (size_t i = 0; i <= ndp::kMaxBrickRestriction; ++i) {
    huge.emplace_back(static_cast<std::int64_t>(i));
  }
  EXPECT_THROW((void)parse(Value(std::move(huge))), DecodeError);
  // Not an array at all.
  EXPECT_THROW((void)parse(Value(std::string("bricks"))), DecodeError);
  // A valid list still passes.
  EXPECT_EQ(parse(restriction({0, 2, 5})).bricks->size(), 3u);
}

TEST(Protocol, OutOfRangeRestrictionRejectedByServer) {
  ClusterTestbedConfig config;
  config.servers = 1;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 16, 8);
  // 16^3 at 8^3 bricks = 8 bricks; id 9999 names none of them.
  const std::vector<std::int64_t> bogus = {9999};
  EXPECT_THROW(Select(*cluster.server_client(0), &bogus), RpcError);
}

// ---------------------------------------------------------------------------
// The chaos harness itself.

TEST(Chaos, SeededSchedulesPreserveEveryInvariant) {
  testing::ChaosOptions options;
  options.seed = 20260808;
  options.schedules = 3;
  options.steps = 6;
  options.fetches_per_step = 2;
  const testing::ChaosReport report = testing::RunChaos(options);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.schedules, 3);
  EXPECT_GT(report.fetches, 0u);
  // The forced kill/restart preamble guarantees the headline path ran.
  EXPECT_GE(report.kills, 3u);
  EXPECT_GE(report.restarts, 3u);
  EXPECT_GE(report.rejoins, 3u);
  EXPECT_GE(report.rejoined_served, 3u);
  // Streaming rode along: every other fetch was chunked, each schedule
  // ended with a cancel drill (accounted 1:1) and a chunk-boundary kill
  // drill (cursor resume on a replica, bit-identical) — so resumes and
  // cancels must both have landed at least once per schedule.
  EXPECT_GT(report.stream_fetches, 0u);
  EXPECT_GE(report.stream_resumes, 3u);
  EXPECT_GE(report.stream_cancels, 3u);
  // Satellite: parked hedge losers drained with the last schedule.
  EXPECT_EQ(
      obs::DefaultRegistry().GetGauge("cluster_hedge_parked").value(), 0.0);
}

TEST(Chaos, SameSeedReplaysTheSameFaultSchedule) {
  testing::ChaosOptions options;
  options.seed = 77;
  options.schedules = 2;
  options.steps = 5;
  options.fetches_per_step = 1;
  const testing::ChaosReport a = testing::RunChaos(options);
  const testing::ChaosReport b = testing::RunChaos(options);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.corrupts, b.corrupts);
  EXPECT_EQ(a.busies, b.busies);
  EXPECT_EQ(a.store_eios, b.store_eios);
  EXPECT_EQ(a.store_slows, b.store_slows);
}

TEST(Chaos, DiskFaultSchedulesHealAndRoundTripBitRot) {
  testing::ChaosOptions options;
  options.seed = 80886;
  options.schedules = 2;
  options.steps = 8;  // longer schedules: more chances to draw disk faults
  options.fetches_per_step = 2;
  const testing::ChaosReport report = testing::RunChaos(options);
  for (const std::string& v : report.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(report.ok());
  // Every schedule ends with the forced bit-rot round trip: rot at rest
  // → scrub quarantines on every node → clean re-Put serves through the
  // quarantine-skip rung (bit-identical to the oracle) → re-scrub
  // re-admits. The invariant is asserted inside the harness; here we
  // pin that it actually ran once per schedule.
  EXPECT_EQ(report.rot_roundtrips, 2u);
  // The random draws include store-level EIO storms and slow-disk
  // windows; with 16 steps at 8 fault kinds this seed draws both.
  EXPECT_GE(report.store_eios + report.store_slows, 1u);
}

}  // namespace
}  // namespace vizndp::cluster
