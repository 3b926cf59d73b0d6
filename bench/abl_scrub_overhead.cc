// Ablation: what background scrubbing costs on the serving path.
//
// The Scrubber walks the catalog on its own low-priority thread,
// re-reading and CRC-checking every brick. Those reads share the object
// store (and the modeled SSD) with live ndp.select traffic, so the
// question is contention: does a scrub pass in flight slow the fetch
// path? The answer is a duty-cycle: a pass costs a fixed amount of
// store bandwidth, so the overhead is pass_cost / period. Target: <2%
// median (happy-path) fetch latency at the production cadence vs no
// scrubber at all — the median, because a pass is a burst: it lifts a
// handful of overlapping fetches, and the in-proc mean is dominated by
// scheduler tail noise that swamps a 2% signal.
//
// Three configurations over single-node in-proc testbeds serving one
// hot object out of a multi-object catalog (so passes have real work):
//   scrub off               — the baseline
//   scrub on, 5s period     — the production default; carries the <2%
//                             budget
//   scrub on, 500ms period  — 10x hotter: quantifies how the overhead
//                             scales when the duty cycle grows
//
// Two testbeds stay alive side by side: one never scrubbed, one
// scrubbed. Each scrubbed configuration is a phase of its own, with its
// scrubber the only one in the process, and takes its own baseline: the
// fetches alternate between the two testbeds, which goes first swapping
// every round. Host speed drift then lands on both alike instead of in
// their difference; run one after another, at a fetch of about a
// millisecond, the delta measured mostly drift. Each phase's window
// spans at least ~2.2 of its periods (the `passes` column proves
// scrubbing actually overlapped the fetch stream — a window shorter
// than the period would measure nothing).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ndp/scrub_verify.h"
#include "obs/metrics.h"
#include "storage/scrubber.h"

namespace vizndp::bench {
namespace {

constexpr int kCatalogObjects = 6;

// One testbed with its own catalog, and a scrubber over it between
// StartScrubber and StopScrubber.
class ScrubTestbed {
 public:
  explicit ScrubTestbed(const BenchParams& params) {
    sim::ImpactConfig cfg;
    cfg.n = params.n;
    for (int i = 0; i < kCatalogObjects; ++i) {
      const grid::Dataset ds =
          sim::GenerateImpactTimestep(cfg, 24006 + i, {"v02"});
      io::VndWriter writer(ds);
      writer.SetCodec(compress::MakeCodec("lz4"));
      writer.SetBrickSize(16);
      writer.WriteToStore(testbed_.store(), testbed_.bucket(),
                          "ts" + std::to_string(i) + ".vnd");
    }
    // Warm: the first fetch pays connection setup and cache fills.
    (void)Fetch();
  }

  ScrubTestbed(const ScrubTestbed&) = delete;
  ScrubTestbed& operator=(const ScrubTestbed&) = delete;

  // Wall seconds of one NDP fetch of the hot object.
  double Fetch() {
    grid::UniformGeometry geometry;
    const auto start = std::chrono::steady_clock::now();
    (void)testbed_.ndp_client().FetchSparseField("ts0.vnd", "v02", isos_,
                                                 &geometry, nullptr);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void StartScrubber(std::chrono::milliseconds period) {
    storage::ScrubberOptions options;
    options.period = period;
    scrubber_ = std::make_unique<storage::Scrubber>(
        testbed_.LocalGateway(),
        ndp::MakeVndScrubVerifier(testbed_.LocalGateway(), quarantine_,
                                  &testbed_.rpc_server().memory_budget()),
        quarantine_, options);
    scrubber_->Start();
  }

  // Stops the scrubber; returns the passes it completed.
  std::uint64_t StopScrubber() {
    scrubber_->Stop();
    const std::uint64_t passes = scrubber_->status().passes;
    scrubber_.reset();
    return passes;
  }

 private:
  const std::vector<double> isos_ = {0.5};
  bench_util::Testbed testbed_;
  storage::QuarantineSet quarantine_;
  std::unique_ptr<storage::Scrubber> scrubber_;
};

struct Phase {
  std::vector<double> off;  // fetch seconds, never-scrubbed testbed
  std::vector<double> on;   // fetch seconds, scrubbed testbed
  std::uint64_t passes = 0;
};

// Scrubs `scrubbed` at `period` and alternates one fetch of each testbed
// per round until each has `min_reps` samples and ~2.2 periods have
// passed: at least two full passes land inside the window even with the
// scrubber's 0.5 jitter pulling sleeps short.
Phase MeasurePhase(ScrubTestbed& off, ScrubTestbed& scrubbed,
                   std::chrono::milliseconds period, int min_reps) {
  const auto window = std::chrono::milliseconds(period.count() * 22 / 10);
  Phase phase;
  scrubbed.StartScrubber(period);
  const auto window_start = std::chrono::steady_clock::now();
  for (size_t round = 0;
       static_cast<int>(phase.off.size()) < min_reps ||
       std::chrono::steady_clock::now() - window_start < window;
       ++round) {
    if (round % 2 == 0) {
      phase.off.push_back(off.Fetch());
      phase.on.push_back(scrubbed.Fetch());
    } else {
      phase.on.push_back(scrubbed.Fetch());
      phase.off.push_back(off.Fetch());
    }
  }
  phase.passes = scrubbed.StopScrubber();
  return phase;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int Run() {
  BenchParams params;
  params.steps = 2;  // generator minimum; only the first timestep is used
  const int min_reps = params.reps * 32;

  std::cerr << "[setup] 2 testbeds of 1 node, " << kCatalogObjects
            << " objects of " << params.n << "^3 each, >=" << min_reps
            << " interleaved reps per configuration\n";

  ScrubTestbed off(params);
  ScrubTestbed scrubbed(params);
  const Phase on = MeasurePhase(off, scrubbed, std::chrono::milliseconds(5000),
                                min_reps);
  const Phase hot = MeasurePhase(off, scrubbed, std::chrono::milliseconds(500),
                                 min_reps);

  std::cout << "Scrub-overhead ablation (in-proc, " << kCatalogObjects
            << "x " << params.n << "^3 catalog)\n";
  bench_util::Table table(
      {"configuration", "median load", "delta", "passes", "reps"});
  // Each scrubbed row is measured against the "scrub off" row above it,
  // the baseline of its own phase.
  auto add_phase = [&table](const std::string& name, const Phase& phase) {
    const double off_s = Median(phase.off);
    const double on_s = Median(phase.on);
    const double delta_pct = (on_s / off_s - 1.0) * 100.0;
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", delta_pct);
    table.AddRow({"scrub off", bench_util::FormatSeconds(off_s), "--", "0",
                  std::to_string(phase.off.size())});
    table.AddRow({name, bench_util::FormatSeconds(on_s), pct,
                  std::to_string(phase.passes),
                  std::to_string(phase.on.size())});
    return delta_pct;
  };
  const double on_pct = add_phase("scrub on, 5s period", on);
  add_phase("scrub on, 500ms period", hot);
  table.Print(std::cout);

  const std::string csv = bench_util::ResultsDir() + "/abl_scrub_overhead.csv";
  table.WriteCsv(csv);
  std::fprintf(stderr, "[result] wrote %s\n", csv.c_str());
  if (on_pct >= 2.0) {
    std::fprintf(stderr,
                 "[warn] production-cadence scrub overhead %.2f%% exceeds "
                 "the 2%% budget; rerun with more reps before concluding a "
                 "regression\n",
                 on_pct);
  }
  return 0;
}

}  // namespace
}  // namespace vizndp::bench

int main() { return vizndp::bench::Run(); }
