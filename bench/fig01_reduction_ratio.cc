// Fig. 1 reproduction: data reduction ratios achieved by GZip, LZ4, and
// contour-based selection (the paper's headline comparison). For each
// technology we report the min..max reduction ratio observed across the
// timestep series and contour values 0.1–0.9, on the v02 and v03 arrays
// of the deep water asteroid impact dataset.
//
// Paper expectation: compression reduces 1–2 orders of magnitude;
// pipeline-filter-based selection reaches up to ~7 orders of magnitude.
#include <map>

#include "bench_common.h"
#include "contour/select.h"
#include "ndp/protocol.h"

using namespace vizndp;
using namespace vizndp::bench;

int main() {
  const BenchParams params;
  sim::ImpactConfig cfg;
  cfg.n = params.n;
  const auto labels = sim::ImpactTimestepLabels(cfg, params.steps);
  const std::vector<double> contour_values = {0.1, 0.3, 0.5, 0.7, 0.9};

  struct Range {
    double lo = 1e300;
    double hi = 0;
    void Add(double r) {
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
  };
  std::map<std::string, Range> ranges;  // per technology, both arrays pooled

  const auto gzip = compress::MakeCodec("gzip");
  const auto lz4 = compress::MakeCodec("lz4");
  std::cerr << "[fig01] sweeping " << labels.size() << " timesteps...\n";
  for (const std::int64_t t : labels) {
    const grid::Dataset ds =
        sim::GenerateImpactTimestep(cfg, t, {"v02", "v03"});
    for (const char* array : {"v02", "v03"}) {
      const grid::DataArray& a = ds.GetArray(array);
      const auto raw = static_cast<double>(a.byte_size());
      ranges["GZip"].Add(raw / static_cast<double>(gzip->Compress(a.raw()).size()));
      ranges["LZ4"].Add(raw / static_cast<double>(lz4->Compress(a.raw()).size()));
      for (const double value : contour_values) {
        const double isos[] = {value};
        const contour::Selection sel =
            contour::SelectInterestingPoints(ds.dims(), a, isos);
        const Bytes payload = ndp::EncodeSelection(sel);
        // Selection payloads can be empty-ish; clamp to 1 byte.
        ranges["Contour selection"].Add(
            raw / std::max<double>(1.0, static_cast<double>(payload.size())));
      }
    }
  }

  bench_util::Table table({"technology", "min reduction", "max reduction"});
  for (const char* tech : {"GZip", "LZ4", "Contour selection"}) {
    table.AddRow({tech, bench_util::FormatRatio(ranges[tech].lo),
                  bench_util::FormatRatio(ranges[tech].hi)});
  }
  std::cout << "Fig. 1 — data reduction ratio by technology (impact dataset,\n"
            << "         " << params.n << "^3, " << labels.size()
            << " timesteps, contour values 0.1-0.9, v02+v03)\n";
  table.Print(std::cout);
  table.WriteCsv(bench_util::ResultsDir() + "/fig01_reduction_ratio.csv");
  return 0;
}
