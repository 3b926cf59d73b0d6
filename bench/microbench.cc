// google-benchmark microbenchmarks for the substrate layers: codec
// throughput (compress + decompress per input family, and LZ4 over the
// bricks a select decodes), selection scan rate, the bricked select,
// marching cubes rate, msgpack packing, the selection wire encoding and
// the client's field build from it. These are the numbers that explain
// where the milliseconds in the figure benches go.
#include <benchmark/benchmark.h>

#include <random>

#include "compress/codec.h"
#include "contour/marching_cubes.h"
#include "contour/select.h"
#include "contour/sparse_field.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "ndp/bricked_select.h"
#include "ndp/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace {

using namespace vizndp;

// A realistic payload: one v02 array from a mid-run impact timestep.
const grid::Dataset& ImpactData() {
  static const grid::Dataset ds = [] {
    sim::ImpactConfig cfg;
    cfg.n = 64;
    return sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  }();
  return ds;
}

void BM_CodecCompress(benchmark::State& state, const std::string& name) {
  const auto codec = compress::MakeCodec(name);
  const ByteSpan input = ImpactData().GetArray("v02").raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_CodecCompress, gzip, std::string("gzip"));
BENCHMARK_CAPTURE(BM_CodecCompress, lz4, std::string("lz4"));

void BM_CodecDecompress(benchmark::State& state, const std::string& name) {
  const auto codec = compress::MakeCodec(name);
  const ByteSpan input = ImpactData().GetArray("v02").raw();
  const Bytes compressed = codec->Compress(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decompress(compressed, input.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_CodecDecompress, gzip, std::string("gzip"));
BENCHMARK_CAPTURE(BM_CodecDecompress, lz4, std::string("lz4"));

// The shape the storage node decodes and classifies: the bricks of a
// 64^3 v02 whose [min, max] straddles iso 0.1, LZ4 at brick edge 16.
struct StraddlingBricks {
  StraddlingBricks();

  storage::MemoryObjectStore store;
  std::unique_ptr<io::VndReader> reader;
  ndp::BrickPlan plan;
  std::vector<Bytes> stored;  // each planned brick's stored bytes
  std::uint64_t raw_bytes = 0;
};

const double kBrickIsos[] = {0.1};

std::unique_ptr<io::VndReader> WriteBricked(storage::MemoryObjectStore& store) {
  store.CreateBucket("data");
  io::VndWriter writer(ImpactData());
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(16);
  writer.WriteToStore(store, "data", "b.vnd");
  return std::make_unique<io::VndReader>(
      storage::FileGateway(store, "data").Open("b.vnd"));
}

StraddlingBricks::StraddlingBricks()
    : reader(WriteBricked(store)),
      plan(ndp::PlanBricks(ImpactData().dims(),
                           *reader->header().Find("v02"), kBrickIsos)) {
  const io::ArrayMeta& meta = *reader->header().Find("v02");
  for (size_t i = 0; i < plan.bricks.size(); ++i) {
    const io::BrickEntry& e =
        meta.bricks->entries[static_cast<size_t>(plan.bricks[i])];
    stored.push_back(reader->ReadArrayRange("v02", e.offset, e.stored_size));
    raw_bytes += plan.SlabBytes(i, i + 1, meta.type);
  }
}

const StraddlingBricks& Bricks() {
  static const StraddlingBricks bricks;
  return bricks;
}

// LZ4 decode of the straddling bricks, each into one reused buffer.
void BM_Lz4DecompressBricks(benchmark::State& state) {
  const StraddlingBricks& bricks = Bricks();
  const auto codec = compress::MakeCodec("lz4");
  Bytes slab;
  for (auto _ : state) {
    for (size_t i = 0; i < bricks.stored.size(); ++i) {
      slab.resize(bricks.plan.SlabBytes(i, i + 1, grid::DataType::Float32));
      codec->DecompressInto(bricks.stored[i], slab);
      benchmark::DoNotOptimize(slab.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bricks.raw_bytes));
  state.counters["bricks"] = static_cast<double>(bricks.stored.size());
}
BENCHMARK(BM_Lz4DecompressBricks);

// The server's whole select over the same bricks as one batch: the
// store read, CRC, decode, classify and dedup of ndp::SelectBricks.
void BM_SelectBricks(benchmark::State& state) {
  const StraddlingBricks& bricks = Bricks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ndp::SelectBricks(*bricks.reader, "v02",
                                               kBrickIsos, bricks.plan,
                                               bricks.plan.bricks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bricks.raw_bytes));
}
BENCHMARK(BM_SelectBricks);

void BM_SelectInterestingPoints(benchmark::State& state) {
  const grid::Dataset& ds = ImpactData();
  const double isos[] = {0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        contour::CountInterestingPoints(ds.dims(), ds.GetArray("v02"), isos));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ds.dims().PointCount());
}
BENCHMARK(BM_SelectInterestingPoints);

void BM_MarchingCubes(benchmark::State& state) {
  const grid::Dataset& ds = ImpactData();
  const double isos[] = {0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(contour::MarchingCubes(
        ds.dims(), ds.geometry(), ds.GetArray("v02"), isos));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ds.dims().CellCount());
}
BENCHMARK(BM_MarchingCubes);

// The NDP client's post-filter on the same field and isovalue: field
// build, scatter and the sparse contour, over a selection made once.
void BM_SparseFieldContour(benchmark::State& state) {
  const grid::Dataset& ds = ImpactData();
  const double isos[] = {0.1};
  const grid::DataArray& v02 = ds.GetArray("v02");
  const contour::Selection sel =
      contour::SelectInterestingPoints(ds.dims(), v02, isos);
  for (auto _ : state) {
    const contour::SparseField field =
        contour::SparseField::FromSelection(sel, v02.type());
    benchmark::DoNotOptimize(field.Contour(ds.geometry(), isos));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sel.ids.size()));
}
BENCHMARK(BM_SparseFieldContour);

// The sparse contour alone, over a field built and scattered once.
void BM_SparseFieldContourOnly(benchmark::State& state) {
  const grid::Dataset& ds = ImpactData();
  const double isos[] = {0.1};
  const grid::DataArray& v02 = ds.GetArray("v02");
  const contour::SparseField field = contour::SparseField::FromSelection(
      contour::SelectInterestingPoints(ds.dims(), v02, isos), v02.type());
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.Contour(ds.geometry(), isos));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          field.ValidCount());
}
BENCHMARK(BM_SparseFieldContourOnly);

void BM_SelectionEncode(benchmark::State& state) {
  const grid::Dataset& ds = ImpactData();
  const double isos[] = {0.1};
  const contour::Selection sel =
      contour::SelectInterestingPoints(ds.dims(), ds.GetArray("v02"), isos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ndp::EncodeSelection(sel));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sel.ids.size()));
}
BENCHMARK(BM_SelectionEncode);

// The client's field build from the wire, as a fetch does it per reply:
// decode an encoded selection payload and scatter its runs into a fresh
// SparseField. At 64^3 the value block is below the part minimum and
// runs on the calling thread; at 128^3 it splits into parts.
void BM_FieldBuild(benchmark::State& state) {
  static const grid::Dataset large = [] {
    sim::ImpactConfig cfg;
    cfg.n = 128;
    return sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  }();
  const grid::Dataset& ds = state.range(0) == 128 ? large : ImpactData();
  const double isos[] = {0.1};
  const contour::Selection sel =
      contour::SelectInterestingPoints(ds.dims(), ds.GetArray("v02"), isos);
  const Bytes payload = ndp::EncodeSelection(sel);
  for (auto _ : state) {
    state.PauseTiming();
    Bytes received = payload;  // the reply's bytes, which the decode takes
    state.ResumeTiming();
    const ndp::DecodedSelection decoded =
        ndp::DecodeSelection(std::move(received), ds.dims());
    contour::SparseField field(ds.dims(), decoded.type);
    field.Scatter(decoded.runs, decoded.type, decoded.values());
    benchmark::DoNotOptimize(field);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sel.ids.size()));
}
BENCHMARK(BM_FieldBuild)->Arg(64)->Arg(128);

void BM_MsgpackPackBin(benchmark::State& state) {
  const Bytes blob(static_cast<size_t>(state.range(0)), 0x3C);
  for (auto _ : state) {
    Bytes out;
    out.reserve(blob.size() + 16);
    msgpack::Packer packer(out);
    packer.PackArrayHeader(2);
    packer.PackStr("payload");
    packer.PackBin(blob);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MsgpackPackBin)->Arg(1 << 10)->Arg(1 << 20);

void BM_VarintRoundTrip(benchmark::State& state) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> values(10000);
  for (auto& v : values) v = rng() % (1ull << (rng() % 40));
  for (auto _ : state) {
    Bytes buf;
    for (const auto v : values) ndp::AppendVarint(v, buf);
    size_t pos = 0;
    std::uint64_t sum = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      sum += ndp::ReadVarint(buf, pos);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintRoundTrip);

// Observability hot paths. These bound the per-request instrumentation
// cost: counter bumps and histogram observes target ~single-digit ns,
// and a Span with tracing disabled is just two clock reads.
void BM_ObsCounterIncrement(benchmark::State& state) {
  static obs::Registry registry;
  obs::Counter& counter = registry.GetCounter("bench_total");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Registry registry;
  obs::Histogram& histogram =
      registry.GetHistogram("bench_seconds", obs::LatencyBounds());
  double v = 1e-6;
  for (auto _ : state) {
    histogram.Observe(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // enabled() is false: records nothing
  double total = 0;
  for (auto _ : state) {
    obs::Span span("bench.op", tracer);
    span.End();
    total += span.ElapsedSeconds();
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.Enable();
  for (auto _ : state) {
    obs::Span span("bench.op", tracer);
  }
  benchmark::DoNotOptimize(tracer.event_count());
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace
