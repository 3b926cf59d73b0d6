// End-to-end contour benchmark for vizndp.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//   e2e_bench --selftest
//
// One run: self-tests; generate the 256^3 impact timestep (or read it
// from the cache the first run wrote); compute the full-read oracle
// (dense marching cubes) for every request of the workload's cycle; set
// the workload up several times (setup_s is the median); then a closed
// loop with one client thread for S seconds, rounded up to whole passes
// over the cycle. Every contour is compared to the oracle outside the
// timed interval.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced passes, reports per-layer medians over the traced
// requests (plus the tracing overhead, the p90 and the rate of the
// untraced ones), and writes the traced requests as Chrome JSON under
// .bench_out/.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exit status is non-zero on any failed or mismatched request.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "contour/marching_cubes.h"
#include "reducer.h"
#include "selftest.h"
#include "workload.h"

namespace vizndp::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;
// Dataset cache and traces, relative to the working directory.
constexpr char kOutDir[] = ".bench_out";
// ROADMAP baseline: explore-lz4-bricked at iso 0.1.
constexpr std::int64_t kPinSelected = 192438;
constexpr size_t kPinTriangles = 195012;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool selftest_only = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why << "\n"
            << "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       e2e_bench --selftest\nworkloads:";
  for (const WorkloadSpec& spec : Workloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  if (!args.selftest_only && FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

// Linear-interpolation quantile (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// The oracle: the full-read contour of every request in the cycle.
std::vector<contour::PolyData> ComputeOracle(const grid::Dataset& dataset,
                                             const WorkloadSpec& spec) {
  const std::vector<IsoSet>& cycle = spec.cycle;
  std::vector<contour::PolyData> oracle(cycle.size());
  const grid::DataArray& array = dataset.GetArray(kArray);
  std::vector<std::thread> workers;
  const size_t threads = std::min<size_t>(cycle.size(), 4);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < cycle.size(); i += threads) {
        oracle[i] = contour::MarchingCubes(dataset.dims(), dataset.geometry(),
                                           array, cycle[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return oracle;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << FormatDouble(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Per-layer figures of one traced request (README.md defines each).
std::vector<Metric> LayerFigures(const RequestResult& r, const Reduction& red) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double decode_ms = red.SumMs("codec.decompress:");
  const double post_ms = red.SumMs("contour.post");
  const std::vector<double> shards = red.Durations("cluster.shard");
  const double shard_max =
      shards.empty() ? 0.0 : *std::max_element(shards.begin(), shards.end());
  return {
      {"storage.get_ms", d(r.store.busy_ns) / 1e6, "ms"},
      {"storage.bytes_read", d(r.store.bytes_read), "B"},
      {"storage.ops", d(r.store.ops), "count"},
      {"compress.decode_ms", decode_ms, "ms"},
      {"compress.decode_mb_s", per(d(r.decoded_bytes) / 1e3, decode_ms),
       "MB/s"},
      // Brick work no span of its own covers: CRC, classify, gather and
      // sort; streamed, also each chunk's encode and emit.
      {"ndp.read_self_ms",
       red.SelfMs("ndp.read") + red.SelfMs("ndp.stream.chunk"), "ms"},
      {"ndp.scan_ms", red.SumMs("ndp.select.scan"), "ms"},
      {"ndp.pack_ms", red.SumMs("ndp.pack"), "ms"},
      {"ndp.stream_chunk_ms", red.SumMs("ndp.stream.chunk"), "ms"},
      {"ndp.stream_chunks", d(red.Count("ndp.stream.chunk")), "count"},
      {"ndp.bricks_read_ratio",
       per(d(r.stats.bricks_read), d(r.stats.bricks_total)), "ratio"},
      {"ndp.points_shipped_per_selected",
       per(d(r.shipped_points), d(r.valid_points)), "ratio"},
      {"ndp.payload_bytes_per_point",
       per(d(r.net.bytes_down), d(r.shipped_points)), "B"},
      {"rpc.dispatch_self_ms", red.SelfMs("rpc.dispatch:"), "ms"},
      {"rpc.client_wait_ms", red.client_wait_ms, "ms"},
      {"net.frames", d(r.net.frames_up + r.net.frames_down), "count"},
      {"net.bytes_up", d(r.net.bytes_up), "B"},
      {"net.bytes_down", d(r.net.bytes_down), "B"},
      {"net.send_ms", d(r.net.send_ns) / 1e6, "ms"},
      {"ndp.decode_ms", red.SumMs("ndp.decode"), "ms"},
      {"ndp.scatter_ms", red.SumMs("ndp.scatter"), "ms"},
      {"ndp.field_build_ms", red.SelfMs("ndp.fetch"), "ms"},
      {"contour.post_ms", post_ms, "ms"},
      {"contour.triangles", d(r.poly.TriangleCount()), "count"},
      {"contour.post_mtri_s", per(d(r.poly.TriangleCount()) / 1e3, post_ms),
       "Mtri/s"},
      {"cluster.fetch_ms", red.SumMs("cluster.fetch"), "ms"},
      {"cluster.merge_ms", red.SumMs("cluster.merge"), "ms"},
      {"cluster.shard_max_ms", shard_max, "ms"},
      {"cluster.shard_skew", per(shard_max, Median(shards)), "ratio"},
      {"unattributed_ms", red.unattributed_ms, "ms"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::cerr << "[e2e] workload " << spec.name << ", seed " << args.seed
            << "\n";

  if (!ResetPeakRss()) {
    std::cerr << "[e2e] FAIL: cannot reset VmHWM to measure peak RSS\n";
    return 1;
  }
  auto t = Clock::now();
  std::filesystem::create_directories(kOutDir);
  const grid::Dataset dataset =
      CachedDataset(256, std::string(kOutDir) + "/impact256.bin");
  std::cerr << "[e2e] 256^3 dataset ready in " << Seconds(t) << " s\n";
  const std::vector<size_t> order = CycleOrder(spec, args.seed);
  t = Clock::now();
  const std::vector<contour::PolyData> oracle =
      ComputeOracle(dataset, spec);
  std::cerr << "[e2e] oracle for " << order.size() << " requests in "
            << Seconds(t) << " s\n";

  // Each set-up ends with the first (cold) contour, checked too. On
  // explore-lz4-bricked that is iso 0.1, the ROADMAP baseline.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int k = 0; k < kSetups; ++k) {
    deployment.reset();
    t = Clock::now();
    deployment = std::make_unique<Deployment>(spec, dataset);
    const RequestResult cold =
        RunRequest(*deployment, spec, spec.cycle.front(), false);
    setup_s.push_back(Seconds(t));
    if (!MatchesOracle(cold.poly, oracle.front())) {
      std::cerr << "[e2e] FAIL: cold contour differs from the oracle\n";
      return 1;
    }
    if (spec.name == "explore-lz4-bricked" &&
        (cold.valid_points != kPinSelected ||
         cold.poly.TriangleCount() != kPinTriangles)) {
      std::cerr << "[e2e] FAIL: baseline pin: " << cold.valid_points
                << " points, " << cold.poly.TriangleCount()
                << " triangles; want " << kPinSelected << ", "
                << kPinTriangles << "\n";
      return 1;
    }
  }
  std::cerr << "[e2e] set-up median " << Median(setup_s) << " s over "
            << kSetups << "\n";

  // Closed loop. With --trace 1, even passes are untraced and odd passes
  // traced, and the loop ends after an even number of passes.
  const size_t pass = order.size();
  std::vector<RequestResult> untraced;
  std::vector<std::vector<Metric>> layers;
  std::vector<obs::DrainedEvent> all_events;
  std::vector<double> traced_wall;
  std::map<std::string, double> layer_self_sum;
  size_t attempted = 0;
  size_t failed = 0;
  const auto loop_start = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool pass_boundary = i % pass == 0;
    const bool traced = args.trace && (i / pass) % 2 == 1;
    if (pass_boundary && !traced && i > 0 &&
        Seconds(loop_start) >= args.seconds) {
      break;
    }
    ++attempted;
    try {
      const size_t request = order[i % pass];
      RequestResult r =
          RunRequest(*deployment, spec, spec.cycle[request], traced);
      if (!MatchesOracle(r.poly, oracle[request])) {
        ++failed;
        std::cerr << "[e2e] request " << i << ": contour differs from the "
                  << "oracle\n";
        continue;
      }
      if (!traced) {
        r.poly = contour::PolyData();  // keep only the figures
        untraced.push_back(std::move(r));
        continue;
      }
      const Reduction red = Reduce(r.events);
      layers.push_back(LayerFigures(r, red));
      traced_wall.push_back(r.wall_ms);
      for (const auto& [layer, ms] : red.LayerSelfMs()) {
        layer_self_sum[layer] += ms;
      }
      all_events.insert(all_events.end(), r.events.begin(), r.events.end());
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "[e2e] request " << i << " failed: " << e.what() << "\n";
    }
  }
  const double loop_s = Seconds(loop_start);
  std::cerr << "[e2e] " << attempted << " requests in " << loop_s << " s, "
            << failed << " failed\n";

  std::vector<Metric> metrics;
  const double n = static_cast<double>(std::max<size_t>(untraced.size(), 1));
  std::vector<double> wall;
  std::vector<double> rss_growth;
  double cpu_ms = 0;
  double wire_bytes = 0;
  for (const RequestResult& r : untraced) {
    wall.push_back(r.wall_ms);
    rss_growth.push_back(r.rss_growth_mb);
    cpu_ms += r.cpu_ms;
    wire_bytes += static_cast<double>(r.net.bytes_up + r.net.bytes_down);
  }
  double wall_sum_s = 0;
  for (const double w : wall) wall_sum_s += w / 1e3;
  const double p90_ms = Quantile(wall, 0.9);
  const double per_s =
      wall_sum_s > 0 ? static_cast<double>(wall.size()) / wall_sum_s : 0.0;
  if (!args.trace) {
    metrics = {
        {"contour_p50_ms", Median(wall), "ms"},
        {"cpu_ms_per_contour", cpu_ms / n, "ms"},
        {"wire_bytes_per_contour", wire_bytes / n, "B"},
        {"peak_request_rss_mb", Median(rss_growth), "MiB"},
        {"setup_s", Median(setup_s), "s"},
    };
    // --trace 1 reports these two as metrics (see below).
    std::cerr << "[e2e] " << untraced.size() << " samples; contour_p90_ms "
              << p90_ms << " ms; contours_per_s " << per_s << " 1/s\n";
  } else {
    metrics = LayerFigures(RequestResult(), Reduction());
    for (size_t j = 0; j < metrics.size(); ++j) {
      std::vector<double> values;
      for (const std::vector<Metric>& f : layers) values.push_back(f[j].value);
      metrics[j].value = Median(values);
    }
    metrics.push_back({"obs.trace_overhead_pct",
                       (Median(traced_wall) / Median(wall) - 1.0) * 100.0,
                       "%"});
    // The tail and the rate come from the untraced passes. They spread
    // from run to run more than the widest bound allows (README.md), so
    // they are reported here, where metrics carry no bound.
    metrics.push_back({"contour_p90_ms", p90_ms, "ms"});
    metrics.push_back({"contours_per_s", per_s, "1/s"});
    metrics.push_back(
        {"error_rate",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"});

    std::cerr << "[e2e] mean self time per traced request, by layer:\n";
    for (const auto& [layer, ms] : layer_self_sum) {
      std::cerr << "  " << layer << "\t"
                << ms / static_cast<double>(layers.size()) << " ms\n";
    }

    const std::filesystem::path file =
        std::filesystem::path(kOutDir) /
        (spec.name + "-seed" + std::to_string(args.seed) + ".json");
    obs::Tracer sink(all_events.size() + 1);
    for (const obs::DrainedEvent& e : all_events) {
      sink.Inject(e.track, e.name, e.start_us, e.dur_us,
                  {e.trace_id, e.span_id, e.parent_span_id});
    }
    std::ofstream os(file);
    sink.WriteChromeJson(os);
    std::cerr << "[e2e] trace written to " << file.string() << "\n";
  }

  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vizndp::e2e

int main(int argc, char** argv) {
  using namespace vizndp::e2e;
  const Args args = ParseArgs(argc, argv);
  if (!RunSelfTests(std::cerr)) {
    std::cerr << "[e2e] FAIL: self-tests\n";
    return 1;
  }
  if (args.selftest_only) return 0;
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::cerr << "[e2e] FAIL: " << e.what() << "\n";
    return 1;
  }
}
