// Ablation: what background health probing costs on a healthy fleet.
//
// The HealthMonitor sweeps every node's ndp.health on its own timer and
// its own connections. On a healthy fleet that must be invisible to the
// fetch path — probes share no rpc::Client slot with data traffic, and
// the per-fetch view snapshot is one atomic shared_ptr read. Target:
// <2% mean fetch latency with the monitor running vs stopped.
//
// Three configurations over a 3-server, 2-replica in-proc cluster:
//   monitor off              — the baseline
//   monitor on, 50ms period  — the production-shaped cadence
//   monitor on, 5ms period   — a pathologically hot prober
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/health_monitor.h"
#include "cluster/sharded_client.h"
#include "obs/metrics.h"

namespace vizndp::bench {
namespace {

// Mean wall seconds per sharded fetch with an optional monitor running
// at `probe_period` (0 = no monitor).
double MeanFetchSeconds(std::chrono::milliseconds probe_period,
                        const BenchParams& params, int reps) {
  bench_util::ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = std::chrono::milliseconds(10'000);
  bench_util::ClusterTestbed cluster(config);
  sim::ImpactConfig cfg;
  cfg.n = params.n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(16);
  writer.WriteToStore(cluster.store(), cluster.bucket(), "ts.vnd");
  const std::vector<double> isos = {0.5};

  std::unique_ptr<cluster::HealthMonitor> monitor;
  if (probe_period.count() > 0) {
    std::vector<std::shared_ptr<ndp::NdpClient>> probes;
    for (int i = 0; i < 3; ++i) probes.push_back(cluster.NewNodeClient(i));
    cluster::HealthMonitorOptions mopts;
    mopts.period = probe_period;
    monitor = std::make_unique<cluster::HealthMonitor>(std::move(probes),
                                                       mopts);
    monitor->SetViewSink(
        [&cluster](std::shared_ptr<const cluster::FleetView> view) {
          cluster.sharded_client()->SetFleetView(std::move(view));
        });
    monitor->Start();
  }

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
  if (monitor != nullptr) monitor->Stop();
  return bench_util::Summarize(samples).mean;
}

int Run() {
  BenchParams params;
  params.steps = 2;  // generator minimum; only the first timestep is used
  // Microsecond-scale overhead needs more samples than the throughput
  // benches to stabilise.
  const int reps = params.reps * 8;

  std::cerr << "[setup] 3 shards x 2 replicas, " << params.n << "^3, "
            << reps << " reps per configuration\n";

  const double off_s = MeanFetchSeconds(std::chrono::milliseconds(0),
                                        params, reps);
  const double on_s = MeanFetchSeconds(std::chrono::milliseconds(50),
                                       params, reps);
  const double hot_s = MeanFetchSeconds(std::chrono::milliseconds(5),
                                        params, reps);
  const std::uint64_t probes = obs::DefaultRegistry()
                                   .GetCounter("cluster_probe_total",
                                               {{"result", "ok"}})
                                   .value();

  const double on_pct = (on_s / off_s - 1.0) * 100.0;
  const double hot_pct = (hot_s / off_s - 1.0) * 100.0;

  std::cout << "Health-probe ablation (in-proc, " << params.n << "^3, "
            << reps << " reps, healthy fleet)\n";
  bench_util::Table table({"configuration", "mean load", "delta"});
  char pct[32];
  table.AddRow({"monitor off", bench_util::FormatSeconds(off_s), "--"});
  std::snprintf(pct, sizeof(pct), "%+.2f%%", on_pct);
  table.AddRow({"monitor on, 50ms period", bench_util::FormatSeconds(on_s),
                pct});
  std::snprintf(pct, sizeof(pct), "%+.2f%%", hot_pct);
  table.AddRow({"monitor on, 5ms period", bench_util::FormatSeconds(hot_s),
                pct});
  table.Print(std::cout);
  std::cout << "healthy probes during the run: " << probes << "\n";

  const std::string csv = bench_util::ResultsDir() + "/abl_probe_overhead.csv";
  table.WriteCsv(csv);
  std::fprintf(stderr, "[result] wrote %s\n", csv.c_str());
  if (on_pct >= 2.0) {
    std::fprintf(stderr,
                 "[warn] monitor-on overhead %.2f%% exceeds the 2%% budget; "
                 "rerun with more reps before concluding a regression\n",
                 on_pct);
  }
  return 0;
}

}  // namespace
}  // namespace vizndp::bench

int main() { return vizndp::bench::Run(); }
