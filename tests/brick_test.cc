// Bricked VND arrays and the brick-aware pre-filter (the extension that
// attacks the paper's "NDP is lower-bounded by local read time" limit).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <set>

#include "bench_util/testbed.h"
#include "common/worker_pool.h"
#include "contour/marching_cubes.h"
#include "contour/sparse_field.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace vizndp {
namespace {

using io::BrickGrid;

// The whole pre-filter in one batch: SelectBricks over PlanBricks.
contour::Selection SelectAllBricks(const io::VndReader& reader,
                                   const std::string& array,
                                   const std::vector<double>& isovalues,
                                   ndp::BrickedSelectStats* stats) {
  const ndp::BrickPlan plan = ndp::PlanBricks(
      reader.header().dims, *reader.header().Find(array), isovalues);
  return ndp::SelectBricks(reader, array, isovalues, plan, plan.bricks,
                           stats);
}

TEST(BrickGrid, CountsAndExtents) {
  const BrickGrid g(grid::Dims{65, 64, 2}, 32);
  EXPECT_EQ(g.nbx, 2);  // 64 cells / 32
  EXPECT_EQ(g.nby, 2);  // 63 cells -> ceil(63/32)
  EXPECT_EQ(g.nbz, 1);  // 1 cell
  EXPECT_EQ(g.BrickCount(), 4);

  const auto e0 = g.BrickExtent(0);
  EXPECT_EQ(e0.x0, 0);
  EXPECT_EQ(e0.x1, 32);  // 32 cells + ghost point
  const auto e1 = g.BrickExtent(1);
  EXPECT_EQ(e1.x0, 32);
  EXPECT_EQ(e1.x1, 64);
  const auto e2 = g.BrickExtent(2);
  EXPECT_EQ(e2.y0, 32);
  EXPECT_EQ(e2.y1, 63);  // clamped at the boundary
}

TEST(BrickGrid, DegenerateAxes) {
  const BrickGrid flat(grid::Dims{10, 10, 1}, 4);
  EXPECT_EQ(flat.nbz, 1);
  const auto e = flat.BrickExtent(0);
  EXPECT_EQ(e.z0, 0);
  EXPECT_EQ(e.z1, 0);
}

TEST(BrickGrid, EveryCellOwnedByExactlyOneBrick) {
  const grid::Dims dims{13, 9, 7};
  const BrickGrid g(dims, 4);
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, int> owners;
  for (std::int64_t b = 0; b < g.BrickCount(); ++b) {
    const auto e = g.BrickExtent(b);
    // Cells of a brick: all cells whose lowest corner is within
    // [x0, x1) x [y0, y1) x [z0, z1).
    for (std::int64_t k = e.z0; k < e.z1; ++k)
      for (std::int64_t j = e.y0; j < e.y1; ++j)
        for (std::int64_t i = e.x0; i < e.x1; ++i) ++owners[{i, j, k}];
  }
  EXPECT_EQ(owners.size(),
            static_cast<size_t>((dims.nx - 1) * (dims.ny - 1) * (dims.nz - 1)));
  for (const auto& [cell, count] : owners) {
    ASSERT_EQ(count, 1);
  }
}

grid::Dataset MakeImpact(int n) {
  sim::ImpactConfig cfg;
  cfg.n = n;
  return sim::GenerateImpactTimestep(cfg, 24006, {"v02", "v03"});
}

class BrickRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BrickRoundTripTest, BrickedFileReadsBackDense) {
  const auto& [codec, edge] = GetParam();
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(21);  // not a multiple of the edge
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec(codec));
  writer.SetBrickSize(edge);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const io::ArrayMeta* meta = reader.header().Find("v02");
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->bricks.has_value());
  const grid::Dataset back = reader.ReadAll();
  EXPECT_EQ(back, ds);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsAndEdges, BrickRoundTripTest,
    ::testing::Combine(::testing::Values("none", "gzip", "lz4"),
                       ::testing::Values(4, 8, 32)));

TEST(Brick, HeaderRecordsMinMax) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(16);
  io::VndWriter writer(ds);
  writer.SetBrickSize(8);
  writer.WriteToStore(store, "data", "b.vnd");
  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const io::ArrayMeta* meta = reader.header().Find("v02");
  ASSERT_TRUE(meta->bricks.has_value());
  const auto [lo, hi] = ds.GetArray("v02").Range();
  double brick_lo = 1e300, brick_hi = -1e300;
  for (const io::BrickEntry& e : meta->bricks->entries) {
    EXPECT_LE(e.min, e.max);
    brick_lo = std::min(brick_lo, e.min);
    brick_hi = std::max(brick_hi, e.max);
  }
  EXPECT_DOUBLE_EQ(brick_lo, lo);
  EXPECT_DOUBLE_EQ(brick_hi, hi);
}

class BrickedSelectTest : public ::testing::TestWithParam<unsigned> {};

// The headline invariant: brick-indexed selection equals dense selection.
TEST_P(BrickedSelectTest, MatchesDenseSelection) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  grid::Dataset ds(grid::Dims{18, 14, 11});
  std::mt19937 rng(GetParam());
  std::vector<float> f(static_cast<size_t>(ds.dims().PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  ds.AddArray(grid::DataArray::FromVector("f", f));
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(5);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.2, 0.5, 0.9};
  const contour::Selection dense = contour::SelectInterestingPoints(
      ds.dims(), ds.GetArray("f"), isos);
  ndp::BrickedSelectStats stats;
  const contour::Selection bricked = SelectAllBricks(reader, "f", isos, &stats);
  EXPECT_EQ(bricked.ids, dense.ids);
  EXPECT_EQ(bricked.values, dense.values);
  EXPECT_EQ(stats.bricks_total,
            io::BrickGrid(ds.dims(), 5).BrickCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrickedSelectTest,
                         ::testing::Range(5000u, 5010u));

// A batch of at least 2 MiB of decoded slabs splits into parts, one per
// whole MiB and at most one per pool thread. 80^3 float64 in bricks of
// edge 8 and 16, restricted to z-prefixes of whole brick layers: the
// restricted selection is the dense one over the prefix's points, whose
// ids are the grid's own. Each batch below names its part count on a
// machine with at least 4 threads.
class BrickedSelectPartsTest : public ::testing::TestWithParam<int> {};

TEST_P(BrickedSelectPartsTest, EveryPartCountMatchesDenseSelection) {
  const int edge = GetParam();
  const grid::Dims dims{80, 80, 80};
  std::mt19937 rng(edge);
  std::vector<double> f(static_cast<size_t>(dims.PointCount()));
  for (double& v : f) v = static_cast<double>(rng() % 1000) / 999.0;
  grid::Dataset ds(dims);
  ds.AddArray(grid::DataArray::FromVector("f", f));
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(edge);
  writer.WriteToStore(store, "data", "b.vnd");
  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const io::ArrayMeta& meta = *reader.header().Find("f");
  const BrickGrid bgrid(dims, edge);
  const std::int64_t layer = bgrid.nbx * bgrid.nby;

  struct Case {
    std::int64_t layers;
    std::int64_t parts;
  };
  // Edge 8 layers hold 0.54 MiB of slabs, edge 16 layers 0.94 MiB.
  const std::vector<Case> cases =
      edge == 8 ? std::vector<Case>{{2, 1}, {4, 2}, {6, 3}, {8, 4}, {10, 5}}
                : std::vector<Case>{{1, 1}, {3, 2}, {4, 3}, {5, 4}};
  const std::int64_t threads =
      static_cast<std::int64_t>(DefaultPool().threads());
  for (const std::vector<double>& isos :
       {std::vector<double>{0.5}, std::vector<double>{0.2, 0.9},
        std::vector<double>{0.1, 0.5, 0.75}}) {
    for (const Case& c : cases) {
      std::vector<std::int64_t> only(static_cast<size_t>(c.layers * layer));
      std::iota(only.begin(), only.end(), 0);
      const ndp::BrickPlan plan = ndp::PlanBricks(dims, meta, isos, &only);
      ASSERT_EQ(plan.bricks, only);
      ndp::BrickedSelectStats stats;
      const contour::Selection sel = ndp::SelectBricks(
          reader, "f", isos, plan, plan.bricks, &stats);
      EXPECT_EQ(stats.parts, std::min(c.parts, threads))
          << "edge " << edge << ", " << c.layers << " layers";

      const std::int64_t nz =
          std::min<std::int64_t>(c.layers * edge + 1, dims.nz);
      const grid::Dims prefix{dims.nx, dims.ny, nz};
      const contour::Selection dense = contour::SelectInterestingPoints(
          prefix,
          grid::DataArray::FromVector(
              "f", std::vector<double>(
                       f.begin(), f.begin() + prefix.PointCount())),
          isos);
      ASSERT_EQ(sel.ids, dense.ids) << "edge " << edge << ", " << c.layers
                                    << " layers";
      ASSERT_EQ(sel.values.size(), dense.values.size());
      EXPECT_EQ(std::memcmp(sel.values.View<double>().data(),
                            dense.values.View<double>().data(),
                            dense.values.View<double>().size_bytes()),
                0);
    }
  }

  // The batch that splits most, selected 20 times: byte-identical.
  const std::vector<double> isos = {0.1, 0.5, 0.75};
  const ndp::BrickPlan plan = ndp::PlanBricks(dims, meta, isos);
  const contour::Selection first =
      ndp::SelectBricks(reader, "f", isos, plan, plan.bricks);
  for (int i = 0; i < 20; ++i) {
    const contour::Selection again =
        ndp::SelectBricks(reader, "f", isos, plan, plan.bricks);
    ASSERT_EQ(again.ids, first.ids);
    ASSERT_EQ(std::memcmp(again.values.View<double>().data(),
                          first.values.View<double>().data(),
                          first.values.View<double>().size_bytes()),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Edges, BrickedSelectPartsTest,
                         ::testing::Values(8, 16));

TEST(BrickedSelect, OneBrickBatchMatchesDenseSelection) {
  // 9^3 points at edge 8: the whole grid is one brick.
  const grid::Dims dims{9, 9, 9};
  std::mt19937 rng(9);
  std::vector<double> f(static_cast<size_t>(dims.PointCount()));
  for (double& v : f) v = static_cast<double>(rng() % 1000) / 999.0;
  grid::Dataset ds(dims);
  ds.AddArray(grid::DataArray::FromVector("f", f));
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(8);
  writer.WriteToStore(store, "data", "b.vnd");
  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.5};
  ndp::BrickedSelectStats stats;
  const contour::Selection sel = SelectAllBricks(reader, "f", isos, &stats);
  EXPECT_EQ(stats.bricks_read, 1);
  EXPECT_EQ(stats.parts, 1);
  const contour::Selection dense =
      contour::SelectInterestingPoints(dims, ds.GetArray("f"), isos);
  EXPECT_EQ(sel.ids, dense.ids);
  EXPECT_EQ(std::memcmp(sel.values.View<double>().data(),
                        dense.values.View<double>().data(),
                        dense.values.View<double>().size_bytes()),
            0);
}

TEST(BrickedSelect, SkipsBricksOutsideTheValueRange) {
  // The asteroid (v03) occupies a tiny corner of the domain: nearly all
  // bricks are constant zero and must never be fetched.
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dataset ds = MakeImpact(32);
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("gzip"));
  writer.SetBrickSize(8);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.1};
  ndp::BrickedSelectStats stats;
  const contour::Selection sel = SelectAllBricks(reader, "v03", isos, &stats);
  EXPECT_GT(sel.ids.size(), 0u);
  EXPECT_GT(stats.bricks_total, 0);
  EXPECT_LT(stats.bricks_read * 4, stats.bricks_total);  // <25% touched
  EXPECT_LT(stats.bytes_read, reader.StoredSize("v03"));
  // And it still matches the dense result.
  const contour::Selection dense = contour::SelectInterestingPoints(
      ds.dims(), reader.ReadArray("v03"), isos);
  EXPECT_EQ(sel.ids, dense.ids);
}

TEST(BrickedSelect, BrickWhoseOnlyLowValueIsNanIsRead) {
  // Marching cubes counts a NaN corner as outside, so the brick holding
  // the NaN at (24, 24, 24) has mixed cells although its other values
  // are all above the isovalue. The brick index records a NaN as -inf,
  // so the brick straddles and the sparse contour is the dense one.
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  const grid::Dims dims{33, 33, 33};
  grid::Dataset ds(dims);
  std::vector<float> f(static_cast<size_t>(dims.PointCount()), 0.5f);
  f[static_cast<size_t>(dims.Index(2, 2, 2))] = 0.0f;
  f[static_cast<size_t>(dims.Index(24, 24, 24))] =
      std::numeric_limits<float>::quiet_NaN();
  ds.AddArray(grid::DataArray::FromVector("f", f));
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(16);
  writer.WriteToStore(store, "data", "b.vnd");

  io::VndReader reader(storage::FileGateway(store, "data").Open("b.vnd"));
  const std::vector<double> isos = {0.1};
  ndp::BrickedSelectStats stats;
  const contour::Selection sel = SelectAllBricks(reader, "f", isos, &stats);
  EXPECT_EQ(stats.bricks_total, 8);
  EXPECT_EQ(stats.bricks_read, 2);

  const grid::UniformGeometry geo;
  const contour::PolyData dense =
      contour::MarchingCubes(dims, geo, ds.GetArray("f"), isos);
  const contour::PolyData ndp =
      contour::SparseField::FromSelection(sel, grid::DataType::Float32)
          .Contour(geo, isos);
  EXPECT_EQ(dense.TriangleCount(), 16u);
  EXPECT_EQ(ndp.TriangleCount(), dense.TriangleCount());
  EXPECT_EQ(ndp.triangles(), dense.triangles());
  ASSERT_EQ(ndp.PointCount(), dense.PointCount());
  for (size_t p = 0; p < ndp.PointCount(); ++p) {
    EXPECT_EQ(std::memcmp(&ndp.points()[p], &dense.points()[p],
                          sizeof(contour::Vec3)),
              0)
        << "point " << p;
  }
}

TEST(BrickedNdp, EndToEndContourIdenticalAndCheaper) {
  bench_util::Testbed testbed;
  const grid::Dataset ds = MakeImpact(32);
  // Same data twice: monolithic and bricked.
  io::VndWriter mono(ds);
  mono.SetCodec(compress::MakeCodec("lz4"));
  mono.WriteToStore(testbed.store(), testbed.bucket(), "mono.vnd");
  io::VndWriter bricked(ds);
  bricked.SetCodec(compress::MakeCodec("lz4"));
  bricked.SetBrickSize(8);
  bricked.WriteToStore(testbed.store(), testbed.bucket(), "bricked.vnd");

  const std::vector<double> isos = {0.1};
  ndp::NdpLoadStats mono_stats, brick_stats;
  const contour::PolyData a =
      testbed.ndp_client().Contour("mono.vnd", "v02", isos, &mono_stats);
  const contour::PolyData b =
      testbed.ndp_client().Contour("bricked.vnd", "v02", isos, &brick_stats);
  EXPECT_TRUE(a.GeometricallyEquals(b, 0.0));
  // An unbricked array is a one-brick index, read whole.
  EXPECT_EQ(mono_stats.bricks_total, 1);
  EXPECT_EQ(mono_stats.bricks_read, 1);
  EXPECT_GT(brick_stats.bricks_total, 0);
  EXPECT_LT(brick_stats.bricks_read, brick_stats.bricks_total);
  // The server read less off the (modeled) disk on the bricked path.
  EXPECT_LT(brick_stats.stored_bytes, mono_stats.stored_bytes);
}

TEST(BrickedNdp, WorksWithUncompressedBricks) {
  bench_util::Testbed testbed;
  const grid::Dataset ds = MakeImpact(24);
  io::VndWriter writer(ds);
  writer.SetBrickSize(6);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "raw.vnd");
  const contour::PolyData poly =
      testbed.ndp_client().Contour("raw.vnd", "v02", {0.5});
  EXPECT_GT(poly.TriangleCount(), 0u);
}

}  // namespace
}  // namespace vizndp
