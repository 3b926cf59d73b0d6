// Ablation: what hedged requests cost when healthy, and buy when not.
//
// Hedging launches a backup sub-fetch when a shard's primary blows
// through a latency budget. The machinery (per-slot race state, the
// timed condition-variable wait, loser parking) must be close to free
// when every replica is healthy, or it would never be left armed.
// Target: <2% mean latency with hedging disabled vs a build that never
// had the code path, and near-zero extra cost armed-but-idle.
//
// Four configurations over a 3-server, 2-replica in-proc cluster:
//   healthy / hedging off    — the baseline
//   healthy / hedging armed  — the overhead under test
//   slow replica / off       — every fetch eats the injected delay
//   slow replica / armed     — the hedge fires and the backup wins
// each for both reply shapes: the one-shot reply, which races to its
// whole answer, and a stream (kStreamChunkBricks bricks a chunk, the
// tool's --stream default), which races only to its first data chunk
// and cancels its loser there.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/sharded_client.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace vizndp::bench {
namespace {

using std::chrono::microseconds;

constexpr double kSlowReplicaDelayMs = 60.0;
constexpr double kHedgeMs = 8.0;
constexpr std::int64_t kStreamChunkBricks = 16;

// Builds a 3-server cluster; when `slow_server` >= 0 that node answers
// everything `kSlowReplicaDelayMs` late, modeling a degraded storage
// node that is alive but useless for tail latency.
bench_util::ClusterTestbedConfig MakeConfig(double hedge_ms, int slow_server) {
  bench_util::ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(10'000);
  config.sharded.hedge_ms = hedge_ms;
  if (slow_server >= 0) {
    config.decorate = [slow_server](net::TransportPtr t,
                                    int server) -> net::TransportPtr {
      if (server != slow_server) return t;
      auto faulty =
          std::make_unique<net::FaultInjectingTransport>(std::move(t));
      faulty->ScriptReceive(
          {net::FaultAction::Delay(
              microseconds(static_cast<std::int64_t>(kSlowReplicaDelayMs * 1e3)))},
          /*loop_last=*/true);
      return faulty;
    };
  }
  return config;
}

// Mean wall seconds for `reps` sharded sparse-field fetches in the
// reply shape `chunk_bricks` asks for (0 = one-shot).
double MeanShardedFetchSeconds(double hedge_ms, int slow_server,
                               std::int64_t chunk_bricks,
                               const BenchParams& params, int reps) {
  bench_util::ClusterTestbed cluster(MakeConfig(hedge_ms, slow_server));
  ndp::StreamOptions stream;
  stream.chunk_bricks = chunk_bricks;
  cluster.sharded_client()->SetStream(stream);
  sim::ImpactConfig cfg;
  cfg.n = params.n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(16);
  writer.WriteToStore(cluster.store(), cluster.bucket(), "ts.vnd");
  const std::vector<double> isos = {0.5};

  grid::UniformGeometry geometry;
  // Warm: first fetch pays the ndp.info round and its cache fill.
  (void)cluster.sharded_client()->FetchSparseField("ts.vnd", "v02", isos,
                                                   &geometry, nullptr);
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    (void)cluster.sharded_client()->FetchSparseField("ts.vnd", "v02", isos,
                                                     &geometry, nullptr);
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  return bench_util::Summarize(samples).mean;
}

std::uint64_t Counter(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

int Run() {
  BenchParams params;
  params.steps = 2;  // generator minimum; only the first timestep is used
  // Overhead in the microsecond range needs more samples than the
  // throughput benches to stabilise.
  const int reps = params.reps * 8;

  std::cerr << "[setup] 3 shards x 2 replicas, " << params.n << "^3, "
            << reps << " reps per configuration\n";

  std::cout << "Hedged-request ablation (in-proc, " << params.n << "^3, "
            << reps << " reps, slow replica +"
            << static_cast<int>(kSlowReplicaDelayMs) << "ms, hedge after "
            << kHedgeMs << "ms, streams at " << kStreamChunkBricks
            << " bricks a chunk)\n";
  bench_util::Table table({"configuration", "mean load", "delta"});
  for (const std::int64_t chunk_bricks :
       {std::int64_t{0}, kStreamChunkBricks}) {
    const std::string shape = chunk_bricks == 0 ? "one-shot" : "stream";
    const std::uint64_t launched_before = Counter("ndp_hedge_launched_total");
    const std::uint64_t won_before = Counter("ndp_hedge_won_total");

    const double off_s =
        MeanShardedFetchSeconds(-1.0, -1, chunk_bricks, params, reps);
    const double armed_s =
        MeanShardedFetchSeconds(kHedgeMs, -1, chunk_bricks, params, reps);
    const std::uint64_t healthy_hedges =
        Counter("ndp_hedge_launched_total") - launched_before;

    const double slow_off_s = MeanShardedFetchSeconds(
        -1.0, /*slow_server=*/1, chunk_bricks, params, reps);
    const double slow_armed_s = MeanShardedFetchSeconds(
        kHedgeMs, /*slow_server=*/1, chunk_bricks, params, reps);
    const std::uint64_t hedges =
        Counter("ndp_hedge_launched_total") - launched_before;
    const std::uint64_t hedge_wins =
        Counter("ndp_hedge_won_total") - won_before;

    const double armed_pct = (armed_s / off_s - 1.0) * 100.0;
    const double rescue_pct = (1.0 - slow_armed_s / slow_off_s) * 100.0;

    char pct[32];
    table.AddRow({shape + ", healthy, hedging off",
                  bench_util::FormatSeconds(off_s), "--"});
    std::snprintf(pct, sizeof(pct), "%+.2f%%", armed_pct);
    table.AddRow({shape + ", healthy, hedging armed",
                  bench_util::FormatSeconds(armed_s), pct});
    table.AddRow({shape + ", slow replica, hedging off",
                  bench_util::FormatSeconds(slow_off_s), "--"});
    std::snprintf(pct, sizeof(pct), "-%.1f%%", rescue_pct);
    table.AddRow({shape + ", slow replica, hedging armed",
                  bench_util::FormatSeconds(slow_armed_s), pct});
    std::cout << shape << " hedges launched: " << hedges
              << " (healthy runs: " << healthy_hedges
              << "), won: " << hedge_wins << "\n";

    if (armed_pct >= 2.0) {
      std::fprintf(stderr,
                   "[warn] %s: armed-but-idle overhead %.2f%% exceeds the "
                   "2%% budget; rerun with more reps before concluding a "
                   "regression\n",
                   shape.c_str(), armed_pct);
    }
    if (slow_armed_s >= slow_off_s) {
      std::fprintf(stderr,
                   "[warn] %s: hedging did not beat the slow replica (%.4fs "
                   "vs %.4fs)\n",
                   shape.c_str(), slow_armed_s, slow_off_s);
    }
  }
  table.Print(std::cout);

  const std::string csv = bench_util::ResultsDir() + "/abl_hedge_overhead.csv";
  table.WriteCsv(csv);
  std::fprintf(stderr, "[result] wrote %s\n", csv.c_str());
  return 0;
}

}  // namespace
}  // namespace vizndp::bench

int main() { return vizndp::bench::Run(); }
