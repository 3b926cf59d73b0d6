#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/worker_pool.h"
#include "contour/components.h"
#include "contour/contour_filter.h"
#include "contour/marching_cubes.h"
#include "contour/marching_squares.h"
#include "contour/mc_tables.h"
#include "contour/ms_core.h"
#include "contour/select.h"
#include "contour/sparse_field.h"
#include "grid/rectilinear.h"

namespace vizndp::contour {
namespace {

std::vector<float> SphereField(const grid::Dims& d, double cx, double cy,
                               double cz) {
  std::vector<float> f(static_cast<size_t>(d.PointCount()));
  for (std::int64_t k = 0; k < d.nz; ++k) {
    for (std::int64_t j = 0; j < d.ny; ++j) {
      for (std::int64_t i = 0; i < d.nx; ++i) {
        const double dx = i - cx, dy = j - cy, dz = k - cz;
        f[static_cast<size_t>(d.Index(i, j, k))] =
            static_cast<float>(std::sqrt(dx * dx + dy * dy + dz * dz));
      }
    }
  }
  return f;
}

// Random field with a guard band of `border_value` so contours stay
// interior (watertightness then holds exactly).
std::vector<float> RandomInteriorField(const grid::Dims& d, unsigned seed,
                                       float border_value = 0.0f) {
  std::mt19937 rng(seed);
  std::vector<float> f(static_cast<size_t>(d.PointCount()), border_value);
  for (std::int64_t k = 1; k + 1 < d.nz; ++k) {
    for (std::int64_t j = 1; j + 1 < d.ny; ++j) {
      for (std::int64_t i = 1; i + 1 < d.nx; ++i) {
        f[static_cast<size_t>(d.Index(i, j, k))] =
            static_cast<float>(rng() % 1000) / 999.0f;
      }
    }
  }
  return f;
}

TEST(McTables, EdgeTableSymmetry) {
  // Complement cases use the same crossed edges.
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(kMcEdgeTable[static_cast<size_t>(c)],
              kMcEdgeTable[static_cast<size_t>(255 - c)])
        << "case " << c;
  }
  EXPECT_EQ(kMcEdgeTable[0], 0);
  EXPECT_EQ(kMcEdgeTable[255], 0);
}

TEST(McTables, TriTableUsesExactlyTheFlaggedEdges) {
  for (int c = 0; c < 256; ++c) {
    std::uint16_t used = 0;
    const auto& tris = kMcTriTable[static_cast<size_t>(c)];
    for (int t = 0; t < 16 && tris[static_cast<size_t>(t)] != -1; ++t) {
      ASSERT_GE(tris[static_cast<size_t>(t)], 0);
      ASSERT_LT(tris[static_cast<size_t>(t)], 12);
      used |= static_cast<std::uint16_t>(1u << tris[static_cast<size_t>(t)]);
    }
    EXPECT_EQ(used, kMcEdgeTable[static_cast<size_t>(c)]) << "case " << c;
  }
}

TEST(McTables, TriangleCountsTerminateAndAreMultiplesOfThree) {
  for (int c = 0; c < 256; ++c) {
    int count = 0;
    const auto& tris = kMcTriTable[static_cast<size_t>(c)];
    while (count < 16 && tris[static_cast<size_t>(count)] != -1) ++count;
    EXPECT_EQ(count % 3, 0) << "case " << c;
    EXPECT_LE(count, 15);
  }
}

TEST(McTables, EdgeTableMatchesCrossingDefinition) {
  // Recompute the edge mask from first principles: edge e is crossed iff
  // its two corners lie on opposite sides of the case's inside set.
  for (int c = 0; c < 256; ++c) {
    std::uint16_t mask = 0;
    for (int e = 0; e < 12; ++e) {
      const bool a = (c >> kEdgeCorners[static_cast<size_t>(e)][0]) & 1;
      const bool b = (c >> kEdgeCorners[static_cast<size_t>(e)][1]) & 1;
      if (a != b) mask |= static_cast<std::uint16_t>(1u << e);
    }
    EXPECT_EQ(mask, kMcEdgeTable[static_cast<size_t>(c)]) << "case " << c;
  }
}

TEST(MarchingCubes, SingleInsideCornerMakesOneTriangle) {
  const grid::Dims d{2, 2, 2};
  std::vector<float> f(8, 0.0f);
  f[static_cast<size_t>(d.Index(0, 0, 0))] = 1.0f;
  const double iso[] = {0.5};
  const PolyData poly =
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  ASSERT_EQ(poly.TriangleCount(), 1u);
  ASSERT_EQ(poly.PointCount(), 3u);
  // Vertices sit at the midpoints of the three edges leaving corner 0.
  std::set<std::array<double, 3>> got;
  for (const Vec3& p : poly.points()) got.insert({p.x, p.y, p.z});
  const std::set<std::array<double, 3>> want = {
      {0.5, 0, 0}, {0, 0.5, 0}, {0, 0, 0.5}};
  EXPECT_EQ(got, want);
}

TEST(MarchingCubes, InterpolationPositionsAreExact) {
  const grid::Dims d{2, 2, 2};
  std::vector<float> f(8, 0.0f);
  f[static_cast<size_t>(d.Index(0, 0, 0))] = 4.0f;  // iso 1 => t = 0.25
  const double iso[] = {1.0};
  const PolyData poly =
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  ASSERT_EQ(poly.PointCount(), 3u);
  for (const Vec3& p : poly.points()) {
    EXPECT_NEAR(p.x + p.y + p.z, 0.75, 1e-12);  // one axis at 0.75
  }
}

TEST(MarchingCubes, SphereAreaAndWatertightness) {
  const grid::Dims d{40, 40, 40};
  const auto f = SphereField(d, 19.5, 19.5, 19.5);
  const double iso[] = {12.0};
  const PolyData poly =
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  EXPECT_GT(poly.TriangleCount(), 1000u);
  EXPECT_EQ(poly.BoundaryEdgeCount(), 0u);
  const double expected = 4.0 * 3.14159265358979 * 12.0 * 12.0;
  EXPECT_NEAR(poly.SurfaceArea(), expected, 0.01 * expected);
  // Closed genus-0 surface: V - E + F = 2.
  const auto v = static_cast<std::int64_t>(poly.PointCount());
  const auto faces = static_cast<std::int64_t>(poly.TriangleCount());
  const std::int64_t edges = 3 * faces / 2;
  EXPECT_EQ(v - edges + faces, 2);
}

TEST(MarchingCubes, RespectsGeometry) {
  const grid::Dims d{2, 2, 2};
  grid::UniformGeometry geo{{10.0, 20.0, 30.0}, {2.0, 2.0, 2.0}};
  std::vector<float> f(8, 0.0f);
  f[static_cast<size_t>(d.Index(0, 0, 0))] = 1.0f;
  const double iso[] = {0.5};
  const PolyData poly = MarchingCubes(d, geo, std::span<const float>(f), iso);
  for (const Vec3& p : poly.points()) {
    EXPECT_GE(p.x, 10.0);
    EXPECT_LE(p.x, 12.0);
    EXPECT_GE(p.y, 20.0);
    EXPECT_GE(p.z, 30.0);
  }
}

TEST(MarchingCubes, MultiIsovalueEqualsConcatenation) {
  const grid::Dims d{12, 12, 12};
  const auto f = RandomInteriorField(d, 99);
  const double both[] = {0.3, 0.7};
  const double first[] = {0.3};
  const double second[] = {0.7};
  const PolyData combined =
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), both);
  PolyData sequential = MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), first);
  sequential.Append(MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), second));
  EXPECT_EQ(combined.TriangleCount(), sequential.TriangleCount());
  EXPECT_TRUE(combined.GeometricallyEquals(sequential, 0.0));
}

TEST(MarchingCubes, EmptyAndFullFieldsProduceNothing) {
  const grid::Dims d{6, 6, 6};
  const double iso[] = {0.5};
  std::vector<float> zeros(216, 0.0f);
  std::vector<float> ones(216, 1.0f);
  EXPECT_EQ(
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(zeros), iso).TriangleCount(),
      0u);
  EXPECT_EQ(
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(ones), iso).TriangleCount(),
      0u);
}

TEST(MarchingCubes, DoubleFieldsWork) {
  const grid::Dims d{8, 8, 8};
  std::vector<double> f(512);
  for (std::int64_t k = 0; k < 8; ++k)
    for (std::int64_t j = 0; j < 8; ++j)
      for (std::int64_t i = 0; i < 8; ++i)
        f[static_cast<size_t>(d.Index(i, j, k))] = static_cast<double>(k);
  const double iso[] = {3.5};
  const PolyData poly = MarchingCubes(d, grid::UniformGeometry{}, std::span<const double>(f), iso);
  // A flat z = 3.5 plane: 7x7 cells x 2 triangles.
  EXPECT_EQ(poly.TriangleCount(), 98u);
  for (const Vec3& p : poly.points()) EXPECT_DOUBLE_EQ(p.z, 3.5);
}

TEST(MarchingCubes, RejectsBadInputs) {
  const grid::Dims d{4, 4, 4};
  std::vector<float> wrong_size(63);
  const double iso[] = {0.5};
  EXPECT_THROW(
      MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(wrong_size), iso), Error);
  const grid::Dims flat{4, 4, 1};
  std::vector<float> f(16);
  EXPECT_THROW(MarchingCubes(flat, grid::UniformGeometry{}, std::span<const float>(f), iso), Error);
}

class WatertightTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WatertightTest, RandomFieldsYieldClosedSurfaces) {
  const grid::Dims d{14, 14, 14};
  const auto f = RandomInteriorField(d, GetParam());
  const double isos[] = {0.25, 0.5, 0.75};
  for (const double iso : isos) {
    const double one[] = {iso};
    const PolyData poly =
        MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), one);
    EXPECT_GT(poly.TriangleCount(), 0u);
    EXPECT_EQ(poly.BoundaryEdgeCount(), 0u) << "iso " << iso;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatertightTest,
                         ::testing::Range(1000u, 1012u));

TEST(MarchingSquares, SegmentTableUsesOnlyCrossedEdges) {
  // Mirror of McTables.TriTableUsesExactlyTheFlaggedEdges for 2D: every
  // segment endpoint must sit on an edge whose corners straddle the case.
  for (unsigned c = 0; c < 16; ++c) {
    std::uint8_t crossed = 0;
    for (int e = 0; e < 4; ++e) {
      const bool a = (c >> detail::kSqEdgeCorners[static_cast<size_t>(e)][0]) & 1;
      const bool b = (c >> detail::kSqEdgeCorners[static_cast<size_t>(e)][1]) & 1;
      if (a != b) crossed |= static_cast<std::uint8_t>(1u << e);
    }
    std::uint8_t used = 0;
    const auto& segs = detail::kSqSegments[c];
    for (int s = 0; s < 5 && segs[static_cast<size_t>(s)] != -1; ++s) {
      used |= static_cast<std::uint8_t>(1u << segs[static_cast<size_t>(s)]);
    }
    if (c == 5 || c == 10) {
      EXPECT_EQ(used, 0) << "saddles are handled at run time, case " << c;
      EXPECT_EQ(crossed, 0b1111) << "case " << c;
    } else {
      EXPECT_EQ(used, crossed) << "case " << c;
    }
  }
}

TEST(MarchingSquares, AllVerticesAreFiniteOnRandomFields) {
  for (unsigned seed = 100; seed < 110; ++seed) {
    const grid::Dims d{15, 11, 1};
    std::mt19937 rng(seed);
    std::vector<float> f(static_cast<size_t>(d.PointCount()));
    for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
    const double isos[] = {0.2, 0.5, 0.8};
    const PolyData poly =
        MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(f), isos);
    for (const Vec3& p : poly.points()) {
      ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << "seed " << seed;
      // On an edge: within the grid and on a lattice line.
      ASSERT_GE(p.x, 0.0);
      ASSERT_LE(p.x, static_cast<double>(d.nx - 1));
      ASSERT_GE(p.y, 0.0);
      ASSERT_LE(p.y, static_cast<double>(d.ny - 1));
    }
  }
}

TEST(MarchingSquares, Fig3StyleGrid) {
  // The paper's Fig. 3: an 8x6 mesh of values 0..9 contoured at 5.
  const grid::Dims d{8, 6, 1};
  std::mt19937 rng(5);
  std::vector<float> f(48);
  for (auto& v : f) v = static_cast<float>(rng() % 10);
  const double iso[] = {5.0};
  const PolyData poly =
      MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  EXPECT_GT(poly.LineCount(), 0u);
  EXPECT_EQ(poly.TriangleCount(), 0u);
  // Every contour vertex lies on a grid edge: one coordinate is integral
  // and linear interpolation along the other recovers the isovalue.
  for (const Vec3& p : poly.points()) {
    EXPECT_DOUBLE_EQ(p.z, 0.0);
    const bool on_x_edge = std::abs(p.y - std::round(p.y)) < 1e-12;
    const bool on_y_edge = std::abs(p.x - std::round(p.x)) < 1e-12;
    ASSERT_TRUE(on_x_edge || on_y_edge);
    if (on_x_edge && !on_y_edge) {
      const auto j = static_cast<std::int64_t>(std::round(p.y));
      const auto i0 = static_cast<std::int64_t>(std::floor(p.x));
      const double va = f[static_cast<size_t>(d.Index(i0, j))];
      const double vb = f[static_cast<size_t>(d.Index(i0 + 1, j))];
      EXPECT_NEAR(va + (p.x - i0) * (vb - va), 5.0, 1e-9);
    }
  }
}

TEST(MarchingSquares, SingleInsideCorner) {
  const grid::Dims d{2, 2, 1};
  std::vector<float> f = {1.0f, 0.0f, 0.0f, 0.0f};
  const double iso[] = {0.5};
  const PolyData poly =
      MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  ASSERT_EQ(poly.LineCount(), 1u);
  ASSERT_EQ(poly.PointCount(), 2u);
}

TEST(MarchingSquares, SaddleCasesProduceTwoSegments) {
  const grid::Dims d{2, 2, 1};
  // Corners (0,0) and (1,1) inside (case 5 in cell-corner order); the
  // cell average 0.5 < iso resolves the saddle into two separate arcs.
  std::vector<float> low_center = {1.0f, 0.0f, 0.0f, 1.0f};
  const double iso[] = {0.6};
  const PolyData poly =
      MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(low_center), iso);
  EXPECT_EQ(poly.LineCount(), 2u);
}

TEST(MarchingSquares, ClosedLoopForIsland) {
  const grid::Dims d{5, 5, 1};
  std::vector<float> f(25, 0.0f);
  f[static_cast<size_t>(d.Index(2, 2))] = 1.0f;
  const double iso[] = {0.5};
  const PolyData poly =
      MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(f), iso);
  // A single interior peak yields a small closed loop: 4 segments.
  EXPECT_EQ(poly.LineCount(), 4u);
}

TEST(ContourFilter, DispatchesOnDimensionality) {
  ContourFilter filter({0.5});
  grid::Dataset flat(grid::Dims{4, 4, 1});
  flat.AddArray(grid::DataArray::FromVector(
      "f", std::vector<float>{0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0}));
  const PolyData lines = filter.Execute(flat, "f");
  EXPECT_GT(lines.LineCount(), 0u);
  EXPECT_EQ(lines.TriangleCount(), 0u);

  grid::Dataset volume(grid::Dims{3, 3, 3});
  std::vector<float> f3(27, 0.0f);
  f3[static_cast<size_t>(volume.dims().Index(1, 1, 1))] = 1.0f;
  volume.AddArray(grid::DataArray::FromVector("f", f3));
  const PolyData tris = filter.Execute(volume, "f");
  EXPECT_GT(tris.TriangleCount(), 0u);
  EXPECT_EQ(tris.BoundaryEdgeCount(), 0u);
}

TEST(ContourFilter, RequiresIsovalues) {
  ContourFilter filter;
  grid::Dataset ds(grid::Dims{2, 2, 2});
  ds.AddArray(grid::DataArray::FromVector("f", std::vector<float>(8)));
  EXPECT_THROW(filter.Execute(ds, "f"), Error);
}

TEST(Selection, ConstantFieldSelectsNothing) {
  const grid::Dims d{8, 8, 8};
  const auto a =
      grid::DataArray::FromVector("c", std::vector<float>(512, 0.42f));
  const double isos[] = {0.1, 0.42, 0.9};
  const Selection sel = SelectInterestingPoints(d, a, isos);
  // inside(x) = x >= iso means a field exactly at an isovalue is uniformly
  // inside — no crossings anywhere.
  EXPECT_TRUE(sel.ids.empty());
  EXPECT_EQ(sel.Selectivity(), 0.0);
}

TEST(Selection, CompletenessEveryMixedCellCornerIsSelected) {
  const grid::Dims d{10, 10, 10};
  const auto f = RandomInteriorField(d, 4242);
  const auto a = grid::DataArray::FromVector("f", f);
  const double isos[] = {0.4};
  const Selection sel = SelectInterestingPoints(d, a, isos);
  std::set<grid::PointId> selected(sel.ids.begin(), sel.ids.end());

  for (std::int64_t k = 0; k + 1 < d.nz; ++k) {
    for (std::int64_t j = 0; j + 1 < d.ny; ++j) {
      for (std::int64_t i = 0; i + 1 < d.nx; ++i) {
        bool any_inside = false, any_outside = false;
        for (const auto& off : kCornerOffsets) {
          const float v =
              f[static_cast<size_t>(d.Index(i + off[0], j + off[1], k + off[2]))];
          (v >= 0.4 ? any_inside : any_outside) = true;
        }
        if (any_inside && any_outside) {
          for (const auto& off : kCornerOffsets) {
            EXPECT_TRUE(selected.count(d.Index(i + off[0], j + off[1], k + off[2])))
                << "cell " << i << "," << j << "," << k;
          }
        }
      }
    }
  }
}

TEST(Selection, TightnessEverySelectedPointTouchesAMixedCell) {
  const grid::Dims d{10, 10, 10};
  const auto f = RandomInteriorField(d, 777);
  const auto a = grid::DataArray::FromVector("f", f);
  const double isos[] = {0.6};
  const Selection sel = SelectInterestingPoints(d, a, isos);
  const auto cell_mixed = [&](std::int64_t ci, std::int64_t cj,
                              std::int64_t ck) {
    bool in = false, out = false;
    for (const auto& off : kCornerOffsets) {
      const float v = f[static_cast<size_t>(
          d.Index(ci + off[0], cj + off[1], ck + off[2]))];
      (v >= 0.6 ? in : out) = true;
    }
    return in && out;
  };
  for (const grid::PointId id : sel.ids) {
    const auto [i, j, k] = d.Coords(id);
    bool touches = false;
    for (int dk = -1; dk <= 0 && !touches; ++dk) {
      for (int dj = -1; dj <= 0 && !touches; ++dj) {
        for (int di = -1; di <= 0 && !touches; ++di) {
          const std::int64_t ci = i + di, cj = j + dj, ck = k + dk;
          if (ci >= 0 && ci + 1 < d.nx && cj >= 0 && cj + 1 < d.ny &&
              ck >= 0 && ck + 1 < d.nz) {
            touches = cell_mixed(ci, cj, ck);
          }
        }
      }
    }
    EXPECT_TRUE(touches) << "point " << id;
  }
}

TEST(Selection, CountMatchesMaterialization) {
  const grid::Dims d{12, 12, 12};
  const auto a = grid::DataArray::FromVector("f", RandomInteriorField(d, 31));
  const double isos[] = {0.2, 0.8};
  EXPECT_EQ(CountInterestingPoints(d, a, isos),
            static_cast<std::int64_t>(
                SelectInterestingPoints(d, a, isos).ids.size()));
}

TEST(Selection, MultiIsoIsUnionOfSingles) {
  const grid::Dims d{10, 10, 10};
  const auto a = grid::DataArray::FromVector("f", RandomInteriorField(d, 55));
  const double both[] = {0.3, 0.7};
  const double lo[] = {0.3};
  const double hi[] = {0.7};
  const Selection s_both = SelectInterestingPoints(d, a, both);
  const Selection s_lo = SelectInterestingPoints(d, a, lo);
  const Selection s_hi = SelectInterestingPoints(d, a, hi);
  std::set<grid::PointId> unioned(s_lo.ids.begin(), s_lo.ids.end());
  unioned.insert(s_hi.ids.begin(), s_hi.ids.end());
  EXPECT_EQ(std::set<grid::PointId>(s_both.ids.begin(), s_both.ids.end()),
            unioned);
}

TEST(Selection, Works2D) {
  const grid::Dims d{6, 6, 1};
  std::vector<float> f(36, 0.0f);
  f[static_cast<size_t>(d.Index(3, 3))] = 1.0f;
  const auto a = grid::DataArray::FromVector("f", f);
  const double iso[] = {0.5};
  const Selection sel = SelectInterestingPoints(d, a, iso);
  // The 4 cells around (3,3) are mixed: a 3x3 block of points.
  EXPECT_EQ(sel.ids.size(), 9u);
}

class SparseEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

// THE key invariant of the paper's split filter: the contour produced
// from the pre-filtered subset is identical to the full-data contour.
TEST_P(SparseEquivalenceTest, NdpContourIsBitIdenticalToFull) {
  const grid::Dims d{13, 11, 9};
  const auto f = RandomInteriorField(d, GetParam());
  const auto a = grid::DataArray::FromVector("f", f);
  const std::vector<double> isos = {0.15, 0.5, 0.85};

  const PolyData full = MarchingCubes(d, grid::UniformGeometry{}, std::span<const float>(f), isos);
  const Selection sel = SelectInterestingPoints(d, a, isos);
  const SparseField sparse =
      SparseField::FromSelection(sel, grid::DataType::Float32);
  const PolyData ndp = sparse.Contour(grid::UniformGeometry{}, isos);

  ASSERT_EQ(ndp.TriangleCount(), full.TriangleCount());
  ASSERT_EQ(ndp.PointCount(), full.PointCount());
  EXPECT_TRUE(ndp.GeometricallyEquals(full, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseEquivalenceTest,
                         ::testing::Range(2000u, 2016u));

class SparseEquivalence2DTest : public ::testing::TestWithParam<unsigned> {};

// The same exactness guarantee on 2D grids (marching squares path).
TEST_P(SparseEquivalence2DTest, NdpContourMatchesDense2D) {
  const grid::Dims d{17, 13, 1};
  std::mt19937 rng(GetParam());
  std::vector<float> f(static_cast<size_t>(d.PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  const auto a = grid::DataArray::FromVector("f", f);
  const std::vector<double> isos = {0.25, 0.5, 0.75};

  const PolyData dense = MarchingSquares(d, grid::UniformGeometry{}, std::span<const float>(f), isos);
  const Selection sel = SelectInterestingPoints(d, a, isos);
  const SparseField sparse =
      SparseField::FromSelection(sel, grid::DataType::Float32);
  const PolyData ndp = sparse.Contour(grid::UniformGeometry{}, isos);

  ASSERT_EQ(ndp.LineCount(), dense.LineCount());
  ASSERT_EQ(ndp.PointCount(), dense.PointCount());
  EXPECT_TRUE(ndp.GeometricallyEquals(dense, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseEquivalence2DTest,
                         ::testing::Range(3000u, 3010u));

// Reference cell processors, independent of the ones under test: edge
// vertices are deduplicated in a hash map keyed by (lower point id, axis)
// and positioned from the point ids. The dense filters and the sparse
// post-filter share one processor, so comparing them with each other
// cannot catch a dedup bug common to both; comparing each with these can.
template <typename Geo>
std::array<double, 3> PositionOfId(const grid::Dims& d, const Geo& geo,
                                   grid::PointId id) {
  const auto [i, j, k] = d.Coords(id);
  return geo.PointPosition(i, j, k);
}

template <typename T, typename Geo>
class RefCellProcessor {
 public:
  RefCellProcessor(const grid::Dims& dims, const Geo& geo, const T* values,
                   PolyData& out)
      : dims_(dims), geo_(geo), values_(values), out_(out) {}

  void BeginIsovalue(double iso) {
    iso_ = iso;
    edge_vertices_.clear();
  }

  void ProcessCell(std::int64_t i, std::int64_t j, std::int64_t k) {
    grid::PointId corner_ids[8];
    T corner_values[8];
    unsigned case_index = 0;
    for (int c = 0; c < 8; ++c) {
      const auto& off = kCornerOffsets[static_cast<size_t>(c)];
      const grid::PointId id = dims_.Index(i + off[0], j + off[1], k + off[2]);
      corner_ids[c] = id;
      corner_values[c] = values_[id];
      if (detail::Inside(corner_values[c], iso_)) case_index |= 1u << c;
    }
    const std::uint16_t edge_mask = kMcEdgeTable[case_index];
    if (edge_mask == 0) return;
    PolyData::Index edge_point[12];
    for (int e = 0; e < 12; ++e) {
      if (edge_mask & (1u << e)) {
        edge_point[e] = VertexOnEdge(e, corner_ids, corner_values);
      }
    }
    const auto& tris = kMcTriTable[case_index];
    for (int t = 0; tris[static_cast<size_t>(t)] != -1; t += 3) {
      out_.AddTriangle(edge_point[tris[static_cast<size_t>(t)]],
                       edge_point[tris[static_cast<size_t>(t + 1)]],
                       edge_point[tris[static_cast<size_t>(t + 2)]]);
    }
  }

 private:
  PolyData::Index VertexOnEdge(int e, const grid::PointId* corner_ids,
                               const T* corner_values) {
    const int ca = kEdgeCorners[static_cast<size_t>(e)][0];
    const int cb = kEdgeCorners[static_cast<size_t>(e)][1];
    grid::PointId pa = corner_ids[ca];
    grid::PointId pb = corner_ids[cb];
    double va = static_cast<double>(corner_values[ca]);
    double vb = static_cast<double>(corner_values[cb]);
    if (pa > pb) {
      std::swap(pa, pb);
      std::swap(va, vb);
    }
    const std::int64_t stride = pb - pa;
    const int axis = stride == 1 ? 0 : (stride == dims_.nx ? 1 : 2);
    const auto [it, inserted] = edge_vertices_.try_emplace(pa * 3 + axis, 0);
    if (!inserted) return it->second;
    const double t = (iso_ - va) / (vb - va);
    const auto a_pos = PositionOfId(dims_, geo_, pa);
    const auto b_pos = PositionOfId(dims_, geo_, pb);
    it->second = out_.AddPoint({a_pos[0] + t * (b_pos[0] - a_pos[0]),
                                a_pos[1] + t * (b_pos[1] - a_pos[1]),
                                a_pos[2] + t * (b_pos[2] - a_pos[2])});
    return it->second;
  }

  grid::Dims dims_;
  const Geo& geo_;
  const T* values_;
  PolyData& out_;
  double iso_ = 0.0;
  std::unordered_map<std::int64_t, PolyData::Index> edge_vertices_;
};

template <typename T, typename Geo>
class RefSquareCellProcessor {
 public:
  RefSquareCellProcessor(const grid::Dims& dims, const Geo& geo,
                         const T* values, PolyData& out)
      : dims_(dims), geo_(geo), values_(values), out_(out) {}

  void BeginIsovalue(double iso) {
    iso_ = iso;
    edge_vertices_.clear();
  }

  void ProcessCell(std::int64_t i, std::int64_t j) {
    const grid::PointId corner_ids[4] = {
        dims_.Index(i, j), dims_.Index(i + 1, j), dims_.Index(i + 1, j + 1),
        dims_.Index(i, j + 1)};
    double corner_values[4];
    unsigned case_index = 0;
    for (int c = 0; c < 4; ++c) {
      corner_values[c] = static_cast<double>(values_[corner_ids[c]]);
      if (detail::Inside(corner_values[c], iso_)) case_index |= 1u << c;
    }
    if (case_index == 0 || case_index == 15) return;
    const auto emit = [&](int ea, int eb) {
      out_.AddLine(VertexOnEdge(ea, corner_ids), VertexOnEdge(eb, corner_ids));
    };
    if (case_index == 5 || case_index == 10) {
      const double center = 0.25 * (corner_values[0] + corner_values[1] +
                                    corner_values[2] + corner_values[3]);
      const bool center_inside = detail::Inside(center, iso_);
      if (case_index == 5) {
        if (center_inside) {
          emit(3, 2);
          emit(1, 0);
        } else {
          emit(3, 0);
          emit(1, 2);
        }
      } else {
        if (center_inside) {
          emit(0, 3);
          emit(2, 1);
        } else {
          emit(0, 1);
          emit(2, 3);
        }
      }
      return;
    }
    const auto& segs = detail::kSqSegments[case_index];
    for (int s = 0; segs[static_cast<size_t>(s)] != -1; s += 2) {
      emit(segs[static_cast<size_t>(s)], segs[static_cast<size_t>(s + 1)]);
    }
  }

 private:
  PolyData::Index VertexOnEdge(int e, const grid::PointId* corner_ids) {
    grid::PointId pa =
        corner_ids[detail::kSqEdgeCorners[static_cast<size_t>(e)][0]];
    grid::PointId pb =
        corner_ids[detail::kSqEdgeCorners[static_cast<size_t>(e)][1]];
    if (pa > pb) std::swap(pa, pb);
    const int axis = (pb - pa == 1) ? 0 : 1;
    const auto [it, inserted] = edge_vertices_.try_emplace(pa * 2 + axis, 0);
    if (!inserted) return it->second;
    const double va = static_cast<double>(values_[pa]);
    const double vb = static_cast<double>(values_[pb]);
    const double t = (iso_ - va) / (vb - va);
    const auto a_pos = PositionOfId(dims_, geo_, pa);
    const auto b_pos = PositionOfId(dims_, geo_, pb);
    it->second = out_.AddPoint({a_pos[0] + t * (b_pos[0] - a_pos[0]),
                                a_pos[1] + t * (b_pos[1] - a_pos[1]), 0.0});
    return it->second;
  }

  grid::Dims dims_;
  const Geo& geo_;
  const T* values_;
  PolyData& out_;
  double iso_ = 0.0;
  std::unordered_map<std::int64_t, PolyData::Index> edge_vertices_;
};

// The reference contour of `values` in cell-scan order; with `field`, only
// over the cells all of whose corners the field holds, as the sparse
// post-filter visits them.
template <typename T, typename Geo>
PolyData ReferenceContour(const grid::Dims& d, const Geo& geo,
                          const std::vector<T>& values,
                          std::span<const double> isos,
                          const SparseField* field = nullptr) {
  const auto complete = [&](std::int64_t i, std::int64_t j, std::int64_t k) {
    const size_t corners = d.Is2D() ? 4 : 8;
    for (size_t c = 0; field != nullptr && c < corners; ++c) {
      const auto& off = kCornerOffsets[c];
      if (!field->IsValid(d.Index(i + off[0], j + off[1], k + off[2]))) {
        return false;
      }
    }
    return true;
  };
  PolyData out;
  if (d.Is2D()) {
    RefSquareCellProcessor<T, Geo> processor(d, geo, values.data(), out);
    for (const double iso : isos) {
      processor.BeginIsovalue(iso);
      for (std::int64_t j = 0; j + 1 < d.ny; ++j) {
        for (std::int64_t i = 0; i + 1 < d.nx; ++i) {
          if (complete(i, j, 0)) processor.ProcessCell(i, j);
        }
      }
    }
    return out;
  }
  RefCellProcessor<T, Geo> processor(d, geo, values.data(), out);
  for (const double iso : isos) {
    processor.BeginIsovalue(iso);
    for (std::int64_t k = 0; k + 1 < d.nz; ++k) {
      for (std::int64_t j = 0; j + 1 < d.ny; ++j) {
        for (std::int64_t i = 0; i + 1 < d.nx; ++i) {
          if (complete(i, j, k)) processor.ProcessCell(i, j, k);
        }
      }
    }
  }
  return out;
}

// Exact equality: every point's bits in the same order, and the same
// triangles and lines over the same indices.
void ExpectIdentical(const PolyData& got, const PolyData& want) {
  const auto bits = [](const Vec3& p) {
    return std::array<std::uint64_t, 3>{std::bit_cast<std::uint64_t>(p.x),
                                        std::bit_cast<std::uint64_t>(p.y),
                                        std::bit_cast<std::uint64_t>(p.z)};
  };
  ASSERT_EQ(got.PointCount(), want.PointCount());
  for (size_t p = 0; p < got.PointCount(); ++p) {
    ASSERT_EQ(bits(got.points()[p]), bits(want.points()[p])) << "point " << p;
  }
  EXPECT_EQ(got.triangles(), want.triangles());
  EXPECT_EQ(got.lines(), want.lines());
}

template <typename T>
std::vector<T> RandomField(const grid::Dims& d, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<T> f(static_cast<size_t>(d.PointCount()));
  for (auto& v : f) v = static_cast<T>(rng() % 1000) / static_cast<T>(999);
  return f;
}

grid::RectilinearGeometry RandomStretch(const grid::Dims& d, unsigned seed) {
  std::mt19937 rng(seed);
  const auto axis = [&](std::int64_t n) {
    std::vector<double> c(static_cast<size_t>(n));
    for (size_t i = 1; i < c.size(); ++i) {
      c[i] = c[i - 1] + 0.25 + static_cast<double>(rng() % 100) / 37.0;
    }
    return c;
  };
  return grid::RectilinearGeometry(axis(d.nx), axis(d.ny), axis(d.nz));
}

// The dense filter, and the post-filter over the pre-filter's selection,
// each equal the reference contour exactly.
template <typename T, typename Geo>
void ExpectMatchesReference(const grid::Dims& d, const Geo& geo,
                            const std::vector<T>& f,
                            const std::vector<double>& isos) {
  const auto a = grid::DataArray::FromVector("f", f);
  const PolyData dense =
      d.Is2D() ? MarchingSquares(d, geo, a, isos) : MarchingCubes(d, geo, a, isos);
  ExpectIdentical(dense, ReferenceContour(d, geo, f, isos));
  const SparseField sparse =
      SparseField::FromSelection(SelectInterestingPoints(d, a, isos), a.type());
  ExpectIdentical(sparse.Contour(geo, isos),
                  ReferenceContour(d, geo, f, isos, &sparse));
}

template <typename T>
void ExpectMatchesReferenceOnBothGeometries(const grid::Dims& d,
                                            unsigned seed,
                                            const std::vector<double>& isos) {
  SCOPED_TRACE(d.ToString() + " seed " + std::to_string(seed) +
               (sizeof(T) == 4 ? " float32" : " float64"));
  const std::vector<T> f = RandomField<T>(d, seed);
  ExpectMatchesReference(d, grid::UniformGeometry{{1.0, -2.0, 0.5},
                                                  {0.3, 1.7, 2.0}},
                         f, isos);
  ExpectMatchesReference(d, RandomStretch(d, seed), f, isos);
}

class ReferenceEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

// The edge-vertex window against the hash-map reference on the
// SparseEquivalence seeds: 3D and 2D, float32 and float64, uniform and
// rectilinear, dense and sparse.
TEST_P(ReferenceEquivalenceTest, DenseAndSparseMatchTheReferenceExactly) {
  const std::vector<double> isos = {0.15, 0.5, 0.85};
  for (const grid::Dims d : {grid::Dims{13, 11, 9}, grid::Dims{17, 13, 1}}) {
    ExpectMatchesReferenceOnBothGeometries<float>(d, GetParam(), isos);
    ExpectMatchesReferenceOnBothGeometries<double>(d, GetParam(), isos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEquivalenceTest,
                         ::testing::Range(2000u, 2016u));

TEST(ReferenceEquivalence, ThinGridsAndIsovaluesCrossingTheSameEdges) {
  // The repeated isovalue crosses exactly the edges of the first pass, so
  // its vertices must be new ones. On grids two points thick along z (or
  // y in 2D) every pass stays in one window, which only BeginIsovalue
  // resets.
  const std::vector<double> isos = {0.5, 0.5, 0.3};
  for (const grid::Dims d :
       {grid::Dims{2, 2, 2}, grid::Dims{2, 7, 6}, grid::Dims{7, 2, 6},
        grid::Dims{7, 6, 2}, grid::Dims{2, 2, 1}, grid::Dims{2, 9, 1},
        grid::Dims{9, 2, 1}}) {
    for (unsigned seed = 0; seed < 8; ++seed) {
      ExpectMatchesReferenceOnBothGeometries<float>(d, seed, isos);
      ExpectMatchesReferenceOnBothGeometries<double>(d, seed, isos);
    }
  }
}

TEST(ReferenceEquivalence, SparseWalkThatSkipsASlabOrRow) {
  // Complete cells in slab (3D) or row (2D) 2 at i % 4 == 0, and in 4 at
  // i % 4 == 1, none in 3: the walk jumps from 2 to 4, and both visit the
  // edges on columns i % 4 == 1 at the same (i, j) slots.
  const std::vector<double> isos = {0.2, 0.5, 0.8};
  for (const grid::Dims d : {grid::Dims{14, 9, 8}, grid::Dims{14, 8, 1}}) {
    const std::vector<float> f = RandomField<float>(d, 77);
    SparseField field(d, grid::DataType::Float32);
    std::vector<grid::PointId> ids;
    std::vector<float> vals;
    for (grid::PointId id = 0; id < d.PointCount(); ++id) {
      const auto [i, j, k] = d.Coords(id);
      const std::int64_t layer = d.Is2D() ? j : k;
      if (((layer == 2 || layer == 3) && i % 4 <= 1) ||
          ((layer == 4 || layer == 5) && (i % 4 == 1 || i % 4 == 2))) {
        ids.push_back(id);
        vals.push_back(f[static_cast<size_t>(id)]);
      }
    }
    field.Scatter(ids, grid::DataArray::FromVector("v", vals));

    std::set<std::int64_t> layers;
    for (std::int64_t k = 0; k + 1 < std::max<std::int64_t>(d.nz, 2); ++k) {
      for (std::int64_t j = 0; j + 1 < d.ny; ++j) {
        for (std::int64_t i = 0; i + 1 < d.nx; ++i) {
          bool complete = true;
          for (size_t c = 0; c < (d.Is2D() ? 4u : 8u); ++c) {
            const auto& off = kCornerOffsets[c];
            complete = complete &&
                       field.IsValid(d.Index(i + off[0], j + off[1], k + off[2]));
          }
          if (complete) layers.insert(d.Is2D() ? j : k);
        }
      }
    }
    ASSERT_EQ(layers, (std::set<std::int64_t>{2, 4})) << d.ToString();

    const grid::UniformGeometry geo;
    ExpectIdentical(field.Contour(geo, isos),
                    ReferenceContour(d, geo, f, isos, &field));
    const grid::RectilinearGeometry stretched = RandomStretch(d, 78);
    ExpectIdentical(field.Contour(stretched, isos),
                    ReferenceContour(d, stretched, f, isos, &field));
  }
}

// ---- the 3D post-filter's ranges ----

// The complete cells of a 3D field, found corner by corner, as (i, j, k)
// in cell-scan order.
std::vector<std::array<std::int64_t, 3>> CompleteCellsOf(
    const SparseField& field) {
  const grid::Dims& d = field.dims();
  std::vector<std::array<std::int64_t, 3>> cells;
  for (std::int64_t k = 0; k + 1 < d.nz; ++k) {
    for (std::int64_t j = 0; j + 1 < d.ny; ++j) {
      for (std::int64_t i = 0; i + 1 < d.nx; ++i) {
        bool complete = true;
        for (const auto& off : kCornerOffsets) {
          complete = complete &&
                     field.IsValid(d.Index(i + off[0], j + off[1], k + off[2]));
        }
        if (complete) cells.push_back({i, j, k});
      }
    }
  }
  return cells;
}

// The post-filter as it ran before it split into ranges: the dense
// filter's window walk over the complete cells.
template <typename T, typename Geo>
PolyData WindowWalk(const SparseField& field, const Geo& geo,
                    const std::vector<T>& values,
                    std::span<const double> isos) {
  PolyData out;
  detail::CellProcessor<T, Geo> processor(field.dims(), geo, values.data(),
                                          out);
  const auto cells = CompleteCellsOf(field);
  for (const double iso : isos) {
    processor.BeginIsovalue(iso);
    for (const auto& [i, j, k] : cells) processor.ProcessCell(i, j, k);
  }
  return out;
}

// The contour of `field` at every 2-range split point and at random
// splits into 3 to 5 ranges (some of them empty) equals the hash-map
// reference and the window walk, bit for bit.
template <typename T, typename Geo>
void ExpectEverySplitIdentical(const SparseField& field, const Geo& geo,
                               const std::vector<T>& values,
                               const std::vector<double>& isos,
                               unsigned seed) {
  const PolyData want =
      ReferenceContour(field.dims(), geo, values, isos, &field);
  ExpectIdentical(WindowWalk(field, geo, values, isos), want);
  ExpectIdentical(field.Contour(geo, isos), want);
  const size_t n = CompleteCellsOf(field).size();
  for (size_t split = 0; split <= n; ++split) {
    SCOPED_TRACE("split at " + std::to_string(split) + " of " +
                 std::to_string(n));
    const std::vector<size_t> bounds = {0, split, n};
    ExpectIdentical(detail::ContourRanges(field, geo, isos, bounds), want);
  }
  std::mt19937 rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<size_t> bounds = {0, n};
    const size_t ranges = 3 + rng() % 3;
    while (bounds.size() <= ranges) bounds.push_back(rng() % (n + 1));
    std::sort(bounds.begin(), bounds.end());
    SCOPED_TRACE("random split, trial " + std::to_string(trial));
    ExpectIdentical(detail::ContourRanges(field, geo, isos, bounds), want);
  }
}

// A field over `f` holding the pre-filter's selection (`keep_pct` 0) or
// an arbitrary scatter of about keep_pct% of the points, on which mixed
// cells can be incomplete.
template <typename T>
SparseField ScatteredField(const grid::Dims& d, const std::vector<T>& f,
                           const std::vector<double>& isos, unsigned keep_pct,
                           unsigned seed) {
  const auto a = grid::DataArray::FromVector("f", f);
  if (keep_pct == 0) {
    return SparseField::FromSelection(SelectInterestingPoints(d, a, isos),
                                      a.type());
  }
  std::mt19937 rng(seed);
  std::vector<grid::PointId> ids;
  std::vector<T> vals;
  for (grid::PointId id = 0; id < d.PointCount(); ++id) {
    if (rng() % 100 < keep_pct) {
      ids.push_back(id);
      vals.push_back(f[static_cast<size_t>(id)]);
    }
  }
  SparseField field(d, a.type());
  field.Scatter(ids, grid::DataArray::FromVector("v", vals));
  return field;
}

template <typename T>
void ExpectSplitsIdenticalOnBothGeometries(const grid::Dims& d, unsigned seed,
                                           const std::vector<double>& isos) {
  std::vector<T> f = RandomField<T>(d, seed);
  if (seed % 2 == 1) {  // a NaN corner
    f[static_cast<size_t>(seed * 7919 % d.PointCount())] =
        std::numeric_limits<T>::quiet_NaN();
  }
  for (const unsigned keep_pct : {0u, 60u, 90u}) {
    SCOPED_TRACE(d.ToString() + " seed " + std::to_string(seed) + " keep " +
                 std::to_string(keep_pct) +
                 (sizeof(T) == 4 ? " float32" : " float64"));
    const SparseField field = ScatteredField(d, f, isos, keep_pct, seed);
    ExpectEverySplitIdentical(
        field, grid::UniformGeometry{{1.0, -2.0, 0.5}, {0.3, 1.7, 2.0}}, f,
        isos, seed);
    ExpectEverySplitIdentical(field, RandomStretch(d, seed), f, isos, seed);
  }
}

TEST(SparseRanges, EverySplitMatchesTheReferenceAndTheWindowWalk) {
  // The repeated isovalue crosses exactly the edges of the first pass, so
  // its vertices must be new ones, with ids that continue the first's.
  const std::vector<double> isos = {0.3, 0.5, 0.5, 0.8};
  for (const grid::Dims d : {grid::Dims{7, 6, 5}, grid::Dims{2, 2, 2},
                             grid::Dims{5, 2, 7}, grid::Dims{3, 6, 2}}) {
    for (unsigned seed = 0; seed < 4; ++seed) {
      ExpectSplitsIdenticalOnBothGeometries<float>(d, seed, isos);
      ExpectSplitsIdenticalOnBothGeometries<double>(d, seed, isos);
    }
  }
}

TEST(SparseRanges, SlabSkippingScatterAtEverySplit) {
  // SparseWalkThatSkipsASlabOrRow's scatter: complete cells in slab 2 at
  // i % 4 == 0 and in slab 4 at i % 4 == 1, none in 3. The cells of slab 4
  // share no edge with a complete cell, so each owns all of its vertices.
  const grid::Dims d{14, 9, 8};
  const std::vector<double> isos = {0.2, 0.5, 0.8};
  const std::vector<float> f = RandomField<float>(d, 77);
  SparseField field(d, grid::DataType::Float32);
  std::vector<grid::PointId> ids;
  std::vector<float> vals;
  for (grid::PointId id = 0; id < d.PointCount(); ++id) {
    const auto [i, j, k] = d.Coords(id);
    if (((k == 2 || k == 3) && i % 4 <= 1) ||
        ((k == 4 || k == 5) && (i % 4 == 1 || i % 4 == 2))) {
      ids.push_back(id);
      vals.push_back(f[static_cast<size_t>(id)]);
    }
  }
  field.Scatter(ids, grid::DataArray::FromVector("v", vals));
  ASSERT_FALSE(CompleteCellsOf(field).empty());
  ExpectEverySplitIdentical(field, grid::UniformGeometry{}, f, isos, 1);
  ExpectEverySplitIdentical(field, RandomStretch(d, 78), f, isos, 2);
}

TEST(SparseRanges, RangeRuleGivesOneRangeBelowTheMinimum) {
  const size_t n = detail::kMinRangeCells;
  using Bounds = std::vector<size_t>;
  EXPECT_EQ(detail::RangeBounds(0, 4), (Bounds{0, 0}));
  EXPECT_EQ(detail::RangeBounds(n - 1, 4), (Bounds{0, n - 1}));
  EXPECT_EQ(detail::RangeBounds(2 * n - 1, 4), (Bounds{0, 2 * n - 1}));
  EXPECT_EQ(detail::RangeBounds(2 * n, 4), (Bounds{0, n, 2 * n}));
  // At most one range per thread, equal to within a cell.
  EXPECT_EQ(detail::RangeBounds(10 * n + 3, 4),
            (Bounds{0, (10 * n + 3) / 4, (10 * n + 3) / 2,
                    3 * (10 * n + 3) / 4, 10 * n + 3}));
  EXPECT_EQ(detail::RangeBounds(10 * n, 1), (Bounds{0, 10 * n}));
  EXPECT_EQ(detail::RangeBounds(10 * n, 0), (Bounds{0, 10 * n}));
}

TEST(SparseRanges, RejectsBoundsThatDoNotSplitTheCells) {
  const grid::Dims d{6, 6, 6};
  const auto f = RandomField<float>(d, 5);
  const std::vector<double> isos = {0.5};
  const SparseField field = ScatteredField(d, f, isos, 0, 5);
  const size_t n = CompleteCellsOf(field).size();
  ASSERT_GT(n, 2u);
  const grid::UniformGeometry geo;
  for (const std::vector<size_t>& bounds :
       {std::vector<size_t>{0},
        std::vector<size_t>{1, n}, std::vector<size_t>{0, n - 1},
        std::vector<size_t>{0, 2, 1, n}}) {
    EXPECT_THROW(detail::ContourRanges(field, geo, isos, bounds), Error);
  }
}

TEST(SparseRanges, CallFromAPoolThreadRunsInlineWithTheSameBits) {
  // A sphere with enough complete cells for the range rule to split them
  // on a machine with more than one thread.
  const grid::Dims d{48, 48, 48};
  const auto f = SphereField(d, 23.5, 24.0, 22.5);
  const std::vector<double> isos = {20.3};
  const auto a = grid::DataArray::FromVector("f", f);
  const SparseField field =
      SparseField::FromSelection(SelectInterestingPoints(d, a, isos), a.type());
  ASSERT_GE(CompleteCellsOf(field).size(), 2 * detail::kMinRangeCells);
  const grid::UniformGeometry geo;
  const PolyData want = ReferenceContour(d, geo, f, isos, &field);
  ExpectIdentical(field.Contour(geo, isos), want);

  // Part 0 or 1 runs on the one worker; the part on the calling thread
  // waits for it, so the worker cannot be left without a part.
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;
  PolyData got;
  pool.Run(2, [&](size_t) {
    if (std::this_thread::get_id() == caller) {
      std::unique_lock lock(mu);
      done_cv.wait(lock, [&] { return done; });
      return;
    }
    PolyData contour = field.Contour(geo, isos);
    const std::lock_guard lock(mu);
    got = std::move(contour);
    done = true;
    done_cv.notify_all();
  });
  ExpectIdentical(got, want);
}

// The selection before the bit-plane classify, kept as the oracle: one
// byte per point, marked from each cell's min and max, then a gather. It
// agrees with marching cubes' predicate on NaN-free fields only.
template <typename T>
void ReferenceMarkInterestingPoints(const grid::Dims& dims,
                                    std::span<const T> values,
                                    std::span<const double> isovalues,
                                    std::vector<std::uint8_t>& selected) {
  const auto mixed = [&](double lo, double hi) {
    for (const double iso : isovalues) {
      if (lo < iso && hi >= iso) return true;
    }
    return false;
  };
  const std::int64_t nx = dims.nx;
  const std::int64_t ny = dims.ny;
  const std::int64_t nz = dims.nz;
  const T* const v = values.data();
  if (dims.Is2D()) {
    for (std::int64_t j = 0; j + 1 < ny; ++j) {
      const std::int64_t r0 = j * nx;
      const std::int64_t r1 = (j + 1) * nx;
      for (std::int64_t i = 0; i + 1 < nx; ++i) {
        const double c0 = v[r0 + i], c1 = v[r0 + i + 1];
        const double c2 = v[r1 + i], c3 = v[r1 + i + 1];
        const double lo = std::min(std::min(c0, c1), std::min(c2, c3));
        const double hi = std::max(std::max(c0, c1), std::max(c2, c3));
        if (mixed(lo, hi)) {
          for (const std::int64_t p :
               {r0 + i, r0 + i + 1, r1 + i, r1 + i + 1}) {
            selected[static_cast<size_t>(p)] = 1;
          }
        }
      }
    }
    return;
  }
  for (std::int64_t k = 0; k + 1 < nz; ++k) {
    for (std::int64_t j = 0; j + 1 < ny; ++j) {
      for (std::int64_t i = 0; i + 1 < nx; ++i) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto& off : kCornerOffsets) {
          const double c =
              v[dims.Index(i + off[0], j + off[1], k + off[2])];
          lo = std::min(lo, c);
          hi = std::max(hi, c);
        }
        if (mixed(lo, hi)) {
          for (const auto& off : kCornerOffsets) {
            selected[static_cast<size_t>(
                dims.Index(i + off[0], j + off[1], k + off[2]))] = 1;
          }
        }
      }
    }
  }
}

template <typename T>
Selection ReferenceGatherSelection(const grid::Dims& dims,
                                   const std::vector<T>& values,
                                   const std::vector<std::uint8_t>& selected) {
  Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  std::vector<T> picked;
  for (std::int64_t id = 0; id < dims.PointCount(); ++id) {
    if (selected[static_cast<size_t>(id)]) {
      out.ids.push_back(id);
      picked.push_back(values[static_cast<size_t>(id)]);
    }
  }
  out.values = grid::DataArray::FromVector("f", std::move(picked));
  return out;
}

// Random values, a third of them from a pool that holds each isovalue's
// nearest T values on both sides and the extremes of T, so the classify
// meets every edge of its >= predicate.
template <typename T>
std::vector<T> PredicateEdgeField(const grid::Dims& d, unsigned seed,
                                  std::span<const double> isos) {
  constexpr T kInf = std::numeric_limits<T>::infinity();
  std::vector<T> pool = {T{0}, T{1}, T{-1}, std::numeric_limits<T>::max(),
                         std::numeric_limits<T>::lowest(), kInf, -kInf};
  for (const double iso : isos) {
    if (!(std::abs(iso) <= std::numeric_limits<T>::max())) continue;
    const T near = static_cast<T>(iso);
    pool.insert(pool.end(), {near, std::nextafter(near, kInf),
                             std::nextafter(near, -kInf)});
  }
  std::mt19937 rng(seed);
  std::vector<T> f(static_cast<size_t>(d.PointCount()));
  for (auto& v : f) {
    v = rng() % 3 == 0 ? pool[rng() % pool.size()]
                       : static_cast<T>(rng() % 1000) / static_cast<T>(999);
  }
  return f;
}

// A smooth field: few mixed cells, long runs of empty words.
template <typename T>
std::vector<T> WaveField(const grid::Dims& d) {
  std::vector<T> f(static_cast<size_t>(d.PointCount()));
  for (std::int64_t k = 0; k < d.nz; ++k) {
    for (std::int64_t j = 0; j < d.ny; ++j) {
      for (std::int64_t i = 0; i < d.nx; ++i) {
        f[static_cast<size_t>(d.Index(i, j, k))] = static_cast<T>(
            std::sin(0.21 * static_cast<double>(i)) +
            std::cos(0.37 * static_cast<double>(j)) *
                std::sin(0.5 + 0.29 * static_cast<double>(k)));
      }
    }
  }
  return f;
}

template <typename T>
void ExpectSelectionMatchesReference(const grid::Dims& d,
                                     const std::vector<T>& f,
                                     const std::vector<double>& isos) {
  std::vector<std::uint8_t> selected(static_cast<size_t>(d.PointCount()), 0);
  ReferenceMarkInterestingPoints<T>(d, f, isos, selected);
  const Selection want = ReferenceGatherSelection(d, f, selected);
  const auto a = grid::DataArray::FromVector("f", f);
  const Selection got = SelectInterestingPoints(d, a, isos);
  ASSERT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(CountInterestingPoints(d, a, isos),
            static_cast<std::int64_t>(want.ids.size()));
}

// The bit-plane classify against the byte-mask oracle on NaN-free
// fields: rows that end inside, at and just past a 64-point word, 2D and
// thin grids, float32 and float64, and isovalues at, between and beyond
// float's values.
TEST(SelectionReference, BitPlanesMatchTheByteMask) {
  const std::vector<std::vector<double>> iso_sets = {
      {0.1},
      {0.7},
      {0.1, 0.5, 0.9},
      {1e39},
      {-1e39},
      {0.3, 1e39, -1e39},
      {std::numeric_limits<double>::infinity()},
      {-std::numeric_limits<double>::infinity()},
      {}};
  const std::vector<grid::Dims> dims = {
      {1, 3, 3},   {2, 2, 2},   {3, 4, 5},   {63, 3, 4},  {64, 3, 3},
      {65, 3, 4},  {127, 2, 3}, {128, 3, 2}, {129, 4, 3}, {200, 2, 2},
      {65, 1, 3},  {64, 2, 2},  {1, 5, 1},   {63, 4, 1},  {64, 3, 1},
      {65, 5, 1},  {129, 7, 1}, {2, 9, 1},   {9, 2, 1},   {5, 1, 1}};
  for (const grid::Dims& d : dims) {
    for (const std::vector<double>& isos : iso_sets) {
      for (unsigned seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE(d.ToString() + " seed " + std::to_string(seed) +
                     " isos " + std::to_string(isos.size()) + " from " +
                     (isos.empty() ? "-" : std::to_string(isos.front())));
        ExpectSelectionMatchesReference(
            d, PredicateEdgeField<float>(d, seed, isos), isos);
        ExpectSelectionMatchesReference(
            d, PredicateEdgeField<double>(d, seed, isos), isos);
      }
      ExpectSelectionMatchesReference(d, WaveField<float>(d), isos);
      ExpectSelectionMatchesReference(d, WaveField<double>(d), isos);
    }
  }
}

TEST(SelectionReference, SeedsMatchTheByteMask) {
  const std::vector<double> isos = {0.15, 0.5, 0.85};
  for (unsigned seed = 2000; seed < 2016; ++seed) {
    for (const grid::Dims d : {grid::Dims{13, 11, 9}, grid::Dims{17, 13, 1},
                               grid::Dims{70, 5, 4}}) {
      ExpectSelectionMatchesReference(d, RandomField<float>(d, seed), isos);
      ExpectSelectionMatchesReference(d, RandomField<double>(d, seed), isos);
    }
  }
}

// Marching cubes counts a NaN corner as outside every isovalue, and so
// must the selection, or a cell it drops is missing from the NDP contour.
// A grid of 0.5 at iso 0.1 with 0.0 at point 0 and a NaN at each
// position in turn: the sparse contour is the dense one, bit for bit.
void ExpectNanPositionsMatchDense(const grid::Dims& d) {
  const std::vector<double> isos = {0.1};
  const grid::UniformGeometry geo;
  for (grid::PointId nan_at = 0; nan_at < d.PointCount(); ++nan_at) {
    SCOPED_TRACE("NaN at point " + std::to_string(nan_at));
    std::vector<float> f(static_cast<size_t>(d.PointCount()), 0.5f);
    f[0] = 0.0f;
    f[static_cast<size_t>(nan_at)] = std::numeric_limits<float>::quiet_NaN();
    const auto a = grid::DataArray::FromVector("f", f);
    const PolyData dense = d.Is2D() ? MarchingSquares(d, geo, a, isos)
                                    : MarchingCubes(d, geo, a, isos);
    const SparseField sparse = SparseField::FromSelection(
        SelectInterestingPoints(d, a, isos), a.type());
    ExpectIdentical(sparse.Contour(geo, isos), dense);
  }
}

TEST(SelectionNan, EveryNanPositionMatchesDense3D) {
  ExpectNanPositionsMatchDense(grid::Dims{3, 3, 3});
}

TEST(SelectionNan, EveryNanPositionMatchesDense2D) {
  ExpectNanPositionsMatchDense(grid::Dims{3, 3, 1});
}

TEST(SparseField, ScatterAndValidity) {
  SparseField field(grid::Dims{4, 4, 4}, grid::DataType::Float32);
  EXPECT_EQ(field.ValidCount(), 0);
  const std::vector<grid::PointId> ids = {0, 5, 63};
  const auto values =
      grid::DataArray::FromVector("v", std::vector<float>{1.0f, 2.0f, 3.0f});
  field.Scatter(ids, values);
  EXPECT_EQ(field.ValidCount(), 3);
  EXPECT_TRUE(field.IsValid(5));
  EXPECT_FALSE(field.IsValid(6));
  // Re-scattering the same id does not double count.
  field.Scatter(ids, values);
  EXPECT_EQ(field.ValidCount(), 3);
}

TEST(SparseField, RejectsBadScatter) {
  SparseField field(grid::Dims{2, 2, 2}, grid::DataType::Float32);
  const std::vector<grid::PointId> out_of_range = {99};
  const auto one = grid::DataArray::FromVector("v", std::vector<float>{1.0f});
  EXPECT_THROW(field.Scatter(out_of_range, one), Error);
  const std::vector<grid::PointId> ok = {0};
  const auto wrong_type =
      grid::DataArray::FromVector("v", std::vector<double>{1.0});
  EXPECT_THROW(field.Scatter(ok, wrong_type), Error);
}

TEST(SparseField, PartialCellsProduceNoGeometry) {
  // A cell missing any one corner must be skipped, not guessed. The walk
  // reaches a cell only through its lowest corner, so a missing point 0
  // and a missing point 1..7 take different branches. Points 0 and n-1
  // hold 1 and the rest 0, so every partial cell is still mixed.
  const double iso[] = {0.5};
  for (const grid::Dims d : {grid::Dims{2, 2, 2}, grid::Dims{2, 2, 1}}) {
    const grid::PointId n = d.PointCount();
    const auto contour_without = [&](grid::PointId missing) {
      SparseField field(d, grid::DataType::Float32);
      std::vector<grid::PointId> ids;
      std::vector<float> vals;
      for (grid::PointId id = 0; id < n; ++id) {
        if (id == missing) continue;
        ids.push_back(id);
        vals.push_back(id == 0 || id == n - 1 ? 1.0f : 0.0f);
      }
      field.Scatter(ids, grid::DataArray::FromVector("v", vals));
      const PolyData poly = field.Contour(grid::UniformGeometry{}, iso);
      return poly.TriangleCount() + poly.LineCount();
    };
    EXPECT_GT(contour_without(-1), 0u) << d.ToString();
    for (grid::PointId missing = 0; missing < n; ++missing) {
      EXPECT_EQ(contour_without(missing), 0u)
          << d.ToString() << " without point " << missing;
    }
  }
}

// Resident set size of this process in KiB, or -1 if it cannot be read.
std::int64_t VmRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

TEST(SparseField, ResidentMemoryFollowsScatter) {
  // The 256^3 float backing is 64 MiB of address space; only the pages a
  // scatter writes, plus the 2 MiB validity bitmap, may become resident.
  const grid::Dims d{256, 256, 256};
  std::vector<grid::PointId> ids;
  std::vector<float> vals;
  for (std::int64_t k = 0; k < 16; ++k) {
    for (std::int64_t j = 0; j < 16; ++j) {
      for (std::int64_t i = 0; i < 16; ++i) {
        ids.push_back(d.Index(100 + i, 100 + j, 100 + k));
        vals.push_back(static_cast<float>(
            std::sqrt((i - 7.5) * (i - 7.5) + (j - 7.5) * (j - 7.5) +
                      (k - 7.5) * (k - 7.5))));
      }
    }
  }
  const auto values = grid::DataArray::FromVector("v", vals);
  const double iso[] = {5.0};

  const std::int64_t before = VmRssKib();
  if (before < 0) GTEST_SKIP() << "VmRSS not readable from /proc/self/status";
  SparseField field(d, grid::DataType::Float32);
  field.Scatter(ids, values);
  const PolyData poly = field.Contour(grid::UniformGeometry{}, iso);
  const std::int64_t growth_kib = VmRssKib() - before;

  EXPECT_GT(poly.TriangleCount(), 0u);
  EXPECT_LT(growth_kib, 16 * 1024) << "VmRSS grew by " << growth_kib << " KiB";
}

// ---- The field build by runs

// Ascending, disjoint runs over `d` with gaps of 0 to `max_gap` points
// (0: two runs touch) and lengths of 1 to `max_length`.
std::vector<PointRun> RandomRuns(const grid::Dims& d, unsigned seed,
                                 std::int64_t max_gap,
                                 std::int64_t max_length) {
  std::mt19937 rng(seed);
  std::vector<PointRun> runs;
  std::int64_t at = 0;
  for (;;) {
    const auto start = at + static_cast<std::int64_t>(
                                rng() % static_cast<unsigned>(max_gap + 1));
    const auto length = 1 + static_cast<std::int64_t>(
                                rng() % static_cast<unsigned>(max_length));
    if (start + length > d.PointCount()) return runs;
    runs.push_back({start, length});
    at = start + length;
  }
}

std::int64_t PointsIn(std::span<const PointRun> runs) {
  std::int64_t n = 0;
  for (const PointRun& run : runs) n += run.length;
  return n;
}

// The values of `runs`' points in id order, taken from `f`.
template <typename T>
Bytes RunValues(std::span<const PointRun> runs, const std::vector<T>& f) {
  Bytes out;
  for (const PointRun& run : runs) {
    const ByteSpan bytes = AsBytes(std::span<const T>(f).subspan(
        static_cast<size_t>(run.start), static_cast<size_t>(run.length)));
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

// The per-point reference: the same points, one id per run, in
// descending order, so that the id form scatters each in its own call.
template <typename T>
SparseField PerPointField(const grid::Dims& d, std::span<const PointRun> runs,
                          const std::vector<T>& f) {
  std::vector<grid::PointId> ids;
  std::vector<T> values;
  for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
    for (std::int64_t p = run->start + run->length - 1; p >= run->start; --p) {
      ids.push_back(p);
      values.push_back(f[static_cast<size_t>(p)]);
    }
  }
  SparseField field(d, grid::DataTypeOf<T>());
  field.Scatter(ids, grid::DataArray::FromVector("v", values));
  return field;
}

void ExpectSameBits(const SparseField& got, const SparseField& want) {
  ASSERT_EQ(got.ValidCount(), want.ValidCount());
  for (grid::PointId id = 0; id < got.dims().PointCount(); ++id) {
    ASSERT_EQ(got.IsValid(id), want.IsValid(id)) << "point " << id;
  }
}

// Scatter by runs against the per-point reference: the same validity
// bits, ValidCount and contour, and a second scatter of the same runs
// adds no point and changes no value.
template <typename T>
void ExpectRunsMatchPerPoint(const grid::Dims& d,
                             std::span<const PointRun> runs,
                             const std::vector<T>& f) {
  const grid::DataType type = grid::DataTypeOf<T>();
  const Bytes values = RunValues(runs, f);
  SparseField field(d, type);
  field.Scatter(runs, type, values);
  const SparseField want = PerPointField(d, runs, f);
  EXPECT_EQ(field.ValidCount(), PointsIn(runs));
  ExpectSameBits(field, want);
  const double isos[] = {0.3, 0.7};
  const PolyData reference = want.Contour(grid::UniformGeometry{}, isos);
  EXPECT_GT(reference.TriangleCount(), 0u);
  ExpectIdentical(field.Contour(grid::UniformGeometry{}, isos), reference);
  field.Scatter(runs, type, values);
  ExpectSameBits(field, want);
  ExpectIdentical(field.Contour(grid::UniformGeometry{}, isos), reference);
}

TEST(SparseRuns, ScatterMatchesThePerPointReference) {
  // Below the part minimum: one part, on the calling thread.
  const grid::Dims small{20, 18, 16};
  const std::vector<PointRun> few = RandomRuns(small, 1, 12, 40);
  ASSERT_LT(static_cast<size_t>(PointsIn(few)) * 4, detail::kMinPartBytes);
  ASSERT_EQ(detail::PartBounds(few, 4, 4).size(), 2u);
  ExpectRunsMatchPerPoint(small, few, RandomField<float>(small, 2));
  // Four parts at four threads, on every machine with more than one.
  const grid::Dims large{72, 72, 72};
  const std::vector<PointRun> many = RandomRuns(large, 3, 40, 60);
  ASSERT_EQ(detail::PartBounds(many, 4, 4).size(), 5u);
  ExpectRunsMatchPerPoint(large, many, RandomField<float>(large, 4));
  ExpectRunsMatchPerPoint(large, RandomRuns(large, 5, 3, 12),
                          RandomField<double>(large, 6));
}

TEST(SparseRuns, OverlappingChunksCountEachPointOnce) {
  // Ghost points: chunks that share whole runs, and a chunk of runs
  // trimmed by one point at each end, which meets set bits inside words.
  const grid::Dims d{72, 72, 72};
  const auto f = RandomField<float>(d, 7);
  const std::vector<PointRun> runs = RandomRuns(d, 8, 40, 60);
  const std::span<const PointRun> all(runs);
  std::vector<PointRun> trimmed;
  for (const PointRun& run : runs) {
    if (run.length > 2) trimmed.push_back({run.start + 1, run.length - 2});
  }
  SparseField field(d, grid::DataType::Float32);
  for (const std::span<const PointRun> chunk :
       {all.subspan(runs.size() / 3), all.first(runs.size() * 2 / 3),
        std::span<const PointRun>(trimmed)}) {
    field.Scatter(chunk, grid::DataType::Float32, RunValues(chunk, f));
  }
  const SparseField want = PerPointField(d, all, f);
  ExpectSameBits(field, want);
  const double isos[] = {0.5};
  ExpectIdentical(field.Contour(grid::UniformGeometry{}, isos),
                  want.Contour(grid::UniformGeometry{}, isos));
}

TEST(SparseRuns, RejectsABadRunListBeforeAnyWrite) {
  // The good runs are long enough to split into parts; each bad list
  // breaks the rule at its end or in its middle.
  const grid::Dims d{72, 72, 72};
  const auto f = RandomField<float>(d, 9);
  const std::vector<PointRun> good = RandomRuns(d, 10, 40, 60);
  ASSERT_GT(detail::PartBounds(good, 4, 4).size(), 2u);
  const PointRun last = good.back();
  const auto with = [&](PointRun extra) {
    std::vector<PointRun> runs = good;
    runs.push_back(extra);
    return runs;
  };
  std::vector<PointRun> swapped = good;
  std::swap(swapped[swapped.size() / 2], swapped[swapped.size() / 2 + 1]);
  std::vector<PointRun> doubled = good;
  const PointRun twice = doubled[100];
  doubled.insert(doubled.begin() + 100, twice);
  const std::vector<std::vector<PointRun>> bad = {
      with({last.start + last.length - 1, 1}),  // overlaps the last run
      with({good.front().start, 1}),            // descends
      with({last.start + last.length, 0}),      // empty
      with({d.PointCount() - 1, 2}),            // leaves the grid
      swapped, doubled};
  for (size_t b = 0; b < bad.size(); ++b) {
    SparseField field(d, grid::DataType::Float32);
    Bytes values(static_cast<size_t>(PointsIn(bad[b])) * 4);
    EXPECT_THROW(field.Scatter(bad[b], grid::DataType::Float32, values), Error)
        << "list " << b;
    EXPECT_EQ(field.ValidCount(), 0) << "list " << b;
    for (grid::PointId id = 0; id < d.PointCount(); ++id) {
      ASSERT_FALSE(field.IsValid(id)) << "list " << b << ", point " << id;
    }
  }
  // A value block one point short, and values of another type.
  SparseField field(d, grid::DataType::Float32);
  Bytes values = RunValues(std::span<const PointRun>(good), f);
  values.resize(values.size() - 4);
  EXPECT_THROW(field.Scatter(good, grid::DataType::Float32, values), Error);
  values.resize(values.size() + 4);
  EXPECT_THROW(field.Scatter(good, grid::DataType::Float64, values), Error);
  EXPECT_EQ(field.ValidCount(), 0);
}

// The 4 KiB pages of 4-byte values that each part of `runs` cut at
// `bounds` is the first to write.
std::vector<std::int64_t> PartPages(std::span<const PointRun> runs,
                                    const std::vector<size_t>& bounds) {
  std::vector<std::int64_t> pages;
  std::set<std::int64_t> written;
  for (size_t p = 0; p + 1 < bounds.size(); ++p) {
    std::int64_t n = 0;
    for (size_t r = bounds[p]; r < bounds[p + 1]; ++r) {
      const PointRun& run = runs[r];
      for (std::int64_t page = run.start * 4 / 4096;
           page <= ((run.start + run.length) * 4 - 1) / 4096; ++page) {
        n += written.insert(page).second ? 1 : 0;
      }
    }
    pages.push_back(n);
  }
  return pages;
}

// Checks the part rule's bounds for 4-byte values at `threads`: the part
// count, about equal pages per part (within `slack`), and every cut
// between two runs that share no validity word.
void ExpectPartRule(std::span<const PointRun> runs, size_t threads,
                    std::int64_t slack) {
  const std::vector<size_t> bounds = detail::PartBounds(runs, 4, threads);
  const size_t parts = std::clamp<size_t>(
      static_cast<size_t>(PointsIn(runs)) * 4 / detail::kMinPartBytes, 1,
      std::max<size_t>(threads, 1));
  ASSERT_EQ(bounds.size(), parts + 1) << "threads " << threads;
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), runs.size());
  const std::vector<std::int64_t> pages = PartPages(runs, bounds);
  std::int64_t total = 0;
  for (const std::int64_t n : pages) total += n;
  for (size_t p = 0; p < parts; ++p) {
    ASSERT_LT(bounds[p], bounds[p + 1]);
    EXPECT_LE(std::abs(pages[p] - total / static_cast<std::int64_t>(parts)),
              slack)
        << "threads " << threads << ", part " << p;
    if (p > 0) {
      const PointRun& before = runs[bounds[p] - 1];
      EXPECT_NE((before.start + before.length - 1) >> 6,
                runs[bounds[p]].start >> 6)
          << "threads " << threads << ", cut " << p;
    }
  }
}

TEST(SparseRuns, PartRuleCutsBetweenRunsThatShareNoWord) {
  using Bounds = std::vector<size_t>;
  EXPECT_EQ(detail::PartBounds({}, 4, 4), (Bounds{0, 0}));
  // Runs of 3 points with a gap of 0 or 2: most neighbours share a word,
  // and every page is written.
  for (const std::int64_t gap : {0, 2}) {
    const auto runs_for = [&](size_t bytes) {
      std::vector<PointRun> runs;
      const auto points = static_cast<std::int64_t>(bytes / 4);
      for (std::int64_t at = 0; at + 3 <= points; at += 3 + gap) {
        runs.push_back({at, 3});
      }
      return runs;
    };
    const std::vector<PointRun> below =
        runs_for(2 * detail::kMinPartBytes - 64);
    EXPECT_EQ(detail::PartBounds(below, 4, 4), (Bounds{0, below.size()}));
    const std::vector<PointRun> runs = runs_for(10 * detail::kMinPartBytes);
    EXPECT_EQ(detail::PartBounds(runs, 4, 1), (Bounds{0, runs.size()}));
    EXPECT_EQ(detail::PartBounds(runs, 4, 0), (Bounds{0, runs.size()}));
    // 10 parts' worth of bytes without gaps, 6 with. Each cut moves past
    // its target by at most a run and the runs chained to it by shared
    // words, under a page.
    for (const size_t threads : {2, 4, 16}) ExpectPartRule(runs, threads, 2);
  }
  // A cut never falls inside a run.
  const std::vector<PointRun> one = {
      {0, 4 * static_cast<std::int64_t>(detail::kMinPartBytes)}};
  EXPECT_EQ(detail::PartBounds(one, 4, 4), (Bounds{0, 1}));
}

TEST(SparseRuns, PartRuleBalancesPagesNotBytes) {
  // A dense stretch of 256 KiB of values in about 70 pages, then 300 runs
  // of 4 points a page apart: parts of equal bytes would leave the 300
  // sparse pages to the last part.
  std::vector<PointRun> runs;
  std::int64_t at = 0;
  for (; at < 65536 * 64 / 60; at += 64) runs.push_back({at, 60});
  for (int r = 0; r < 300; ++r, at += 1024) runs.push_back({at, 4});
  ASSERT_EQ(PointsIn(runs) * 4 / detail::kMinPartBytes, 4);
  for (const size_t threads : {2, 3, 4}) ExpectPartRule(runs, threads, 2);
}

TEST(Components, TwoSpheresGiveTwoComponents) {
  const grid::Dims d{30, 16, 16};
  std::vector<float> f(static_cast<size_t>(d.PointCount()), 10.0f);
  const auto dist = [](double x, double y, double z, double cx, double cy,
                       double cz) {
    return std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy) +
                     (z - cz) * (z - cz));
  };
  for (std::int64_t k = 0; k < 16; ++k)
    for (std::int64_t j = 0; j < 16; ++j)
      for (std::int64_t i = 0; i < 30; ++i) {
        f[static_cast<size_t>(d.Index(i, j, k))] = static_cast<float>(
            std::min(dist(i, j, k, 7.5, 7.5, 7.5), dist(i, j, k, 22.5, 7.5, 7.5)));
      }
  const double iso[] = {4.0};
  const PolyData poly = MarchingCubes(d, grid::UniformGeometry{},
                                      std::span<const float>(f), iso);
  const std::vector<Component> comps = ConnectedComponents(poly);
  ASSERT_EQ(comps.size(), 2u);
  // Two equal spheres: roughly equal areas, each near 4*pi*r^2.
  const double expected = 4.0 * 3.14159265358979 * 16.0;
  EXPECT_NEAR(comps[0].area, expected, 0.15 * expected);
  EXPECT_NEAR(comps[1].area, expected, 0.15 * expected);
  // Bounding boxes are disjoint along x.
  EXPECT_LT(comps[0].bbox_min.x > comps[1].bbox_min.x ? comps[1].bbox_max.x
                                                      : comps[0].bbox_max.x,
            comps[0].bbox_min.x > comps[1].bbox_min.x ? comps[0].bbox_min.x
                                                      : comps[1].bbox_min.x);
}

TEST(Components, Sorted2DLoops) {
  // One big island and one small island: two loops, larger first.
  const grid::Dims d{24, 24, 1};
  std::vector<float> f(static_cast<size_t>(d.PointCount()), 0.0f);
  for (std::int64_t j = 4; j <= 12; ++j)
    for (std::int64_t i = 4; i <= 12; ++i)
      f[static_cast<size_t>(d.Index(i, j))] = 1.0f;
  f[static_cast<size_t>(d.Index(20, 20))] = 1.0f;
  const double iso[] = {0.5};
  const PolyData poly = MarchingSquares(d, grid::UniformGeometry{},
                                        std::span<const float>(f), iso);
  const std::vector<Component> comps = ConnectedComponents(poly);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_GT(comps[0].length, comps[1].length);
  EXPECT_GT(comps[0].lines, comps[1].lines);
}

TEST(Components, EmptyAndSingle) {
  EXPECT_TRUE(ConnectedComponents(PolyData{}).empty());
  PolyData one;
  one.AddTriangle(one.AddPoint({0, 0, 0}), one.AddPoint({1, 0, 0}),
                  one.AddPoint({0, 1, 0}));
  const auto comps = ConnectedComponents(one);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].triangles, 1u);
  EXPECT_EQ(comps[0].points, 3u);
  EXPECT_DOUBLE_EQ(comps[0].area, 0.5);
}

TEST(Components, TotalsMatchWholePolyData) {
  const grid::Dims d{14, 14, 14};
  const auto f = RandomInteriorField(d, 99177);
  const double iso[] = {0.5};
  const PolyData poly = MarchingCubes(d, grid::UniformGeometry{},
                                      std::span<const float>(f), iso);
  const auto comps = ConnectedComponents(poly);
  size_t triangles = 0;
  double area = 0;
  for (const Component& c : comps) {
    triangles += c.triangles;
    area += c.area;
  }
  EXPECT_EQ(triangles, poly.TriangleCount());
  EXPECT_NEAR(area, poly.SurfaceArea(), 1e-9);
}

TEST(PolyData, BoundaryEdgesOfOpenStrip) {
  PolyData poly;
  const auto a = poly.AddPoint({0, 0, 0});
  const auto b = poly.AddPoint({1, 0, 0});
  const auto c = poly.AddPoint({0, 1, 0});
  const auto e = poly.AddPoint({1, 1, 0});
  poly.AddTriangle(a, b, c);
  poly.AddTriangle(b, e, c);
  // Quad from two triangles: 4 boundary edges, 1 shared.
  EXPECT_EQ(poly.BoundaryEdgeCount(), 4u);
  EXPECT_DOUBLE_EQ(poly.SurfaceArea(), 1.0);
}

TEST(PolyData, AppendRebasesIndices) {
  PolyData a;
  a.AddPoint({0, 0, 0});
  a.AddPoint({1, 0, 0});
  a.AddLine(0, 1);
  PolyData b;
  b.AddPoint({5, 0, 0});
  b.AddPoint({6, 0, 0});
  b.AddLine(0, 1);
  a.Append(b);
  ASSERT_EQ(a.LineCount(), 2u);
  EXPECT_EQ(a.lines()[1][0], 2u);
  EXPECT_DOUBLE_EQ(a.TotalLineLength(), 2.0);
}

}  // namespace
}  // namespace vizndp::contour
