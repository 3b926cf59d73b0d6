// Stretched-grid (rectilinear) contouring: the paper's "more complex grid
// types" future-work item.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "contour/marching_cubes.h"
#include "contour/marching_squares.h"
#include "contour/select.h"
#include "contour/sparse_field.h"
#include "grid/rectilinear.h"

namespace vizndp::contour {
namespace {

std::vector<double> Linspace(double lo, double hi, std::int64_t n) {
  std::vector<double> out(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return out;
}

// Geometrically stretched axis: spacing grows by `ratio` per step.
std::vector<double> Stretched(double start, double first_step, double ratio,
                              std::int64_t n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  double x = start;
  double step = first_step;
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(x);
    x += step;
    step *= ratio;
  }
  return out;
}

TEST(RectilinearGeometry, ValidatesMonotonicity) {
  EXPECT_NO_THROW(grid::RectilinearGeometry({0, 1, 3}, {0, 2}, {0}));
  EXPECT_THROW(grid::RectilinearGeometry({0, 1, 1}, {0, 2}, {0}), Error);
  EXPECT_THROW(grid::RectilinearGeometry({0, 2, 1}, {0, 2}, {0}), Error);
}

TEST(RectilinearGeometry, ValidatesDims) {
  const grid::RectilinearGeometry geo(Linspace(0, 1, 4), Linspace(0, 1, 4),
                                      Linspace(0, 1, 4));
  EXPECT_NO_THROW(geo.Validate(grid::Dims{4, 4, 4}));
  EXPECT_THROW(geo.Validate(grid::Dims{4, 4, 5}), Error);
}

TEST(RectilinearGeometry, PointPositions) {
  const grid::RectilinearGeometry geo({0.0, 1.0, 4.0}, {10.0, 20.0},
                                      {100.0});
  const auto p = geo.PointPosition(2, 1, 0);
  EXPECT_DOUBLE_EQ(p[0], 4.0);
  EXPECT_DOUBLE_EQ(p[1], 20.0);
  EXPECT_DOUBLE_EQ(p[2], 100.0);
}

TEST(RectilinearMc, UniformCoordsMatchUniformGeometry) {
  const grid::Dims d{10, 10, 10};
  std::mt19937 rng(71);
  std::vector<float> f(1000);
  for (auto& v : f) v = static_cast<float>(rng() % 100) / 99.0f;
  const double isos[] = {0.4, 0.8};

  const grid::UniformGeometry uniform{{0, 0, 0}, {1, 1, 1}};
  const grid::RectilinearGeometry rect(Linspace(0, 9, 10), Linspace(0, 9, 10),
                                       Linspace(0, 9, 10));
  const PolyData a = MarchingCubes(d, uniform, std::span<const float>(f), isos);
  const PolyData b = MarchingCubes(d, rect, std::span<const float>(f), isos);
  ASSERT_EQ(a.TriangleCount(), b.TriangleCount());
  EXPECT_TRUE(a.GeometricallyEquals(b, 1e-12));
}

TEST(RectilinearMc, FlatPlaneLandsAtInterpolatedCoordinate) {
  // Field = k (layer index); contour at 2.5 sits midway between the z
  // coordinates of layers 2 and 3 — whatever those coordinates are.
  const grid::Dims d{4, 4, 5};
  const std::vector<double> z = {0.0, 1.0, 3.0, 7.0, 15.0};
  const grid::RectilinearGeometry geo(Linspace(0, 3, 4), Linspace(0, 3, 4), z);
  std::vector<float> f(static_cast<size_t>(d.PointCount()));
  for (std::int64_t k = 0; k < 5; ++k)
    for (std::int64_t j = 0; j < 4; ++j)
      for (std::int64_t i = 0; i < 4; ++i)
        f[static_cast<size_t>(d.Index(i, j, k))] = static_cast<float>(k);
  const double iso[] = {2.5};
  const PolyData poly = MarchingCubes(d, geo, std::span<const float>(f), iso);
  ASSERT_GT(poly.TriangleCount(), 0u);
  for (const Vec3& p : poly.points()) {
    EXPECT_DOUBLE_EQ(p.z, 5.0);  // 3 + 0.5 * (7 - 3)
  }
}

TEST(RectilinearMc, SphereTopologySurvivesStretching) {
  const grid::Dims d{24, 24, 24};
  std::vector<float> f(static_cast<size_t>(d.PointCount()));
  for (std::int64_t k = 0; k < 24; ++k)
    for (std::int64_t j = 0; j < 24; ++j)
      for (std::int64_t i = 0; i < 24; ++i) {
        const double dx = i - 11.5, dy = j - 11.5, dz = k - 11.5;
        f[static_cast<size_t>(d.Index(i, j, k))] =
            static_cast<float>(std::sqrt(dx * dx + dy * dy + dz * dz));
      }
  const grid::RectilinearGeometry geo(Stretched(0, 0.5, 1.08, 24),
                                      Stretched(0, 1.0, 1.0, 24),
                                      Stretched(0, 0.2, 1.15, 24));
  const double iso[] = {8.0};
  const PolyData poly = MarchingCubes(d, geo, std::span<const float>(f), iso);
  // Stretching is a homeomorphism: still one closed genus-0 surface.
  EXPECT_EQ(poly.BoundaryEdgeCount(), 0u);
  const auto v = static_cast<std::int64_t>(poly.PointCount());
  const auto faces = static_cast<std::int64_t>(poly.TriangleCount());
  EXPECT_EQ(v - 3 * faces / 2 + faces, 2);
}

TEST(RectilinearMc, RejectsMismatchedCoordinates) {
  const grid::Dims d{4, 4, 4};
  std::vector<float> f(64, 0.0f);
  f[21] = 1.0f;
  const grid::RectilinearGeometry geo(Linspace(0, 1, 3), Linspace(0, 1, 4),
                                      Linspace(0, 1, 4));
  const double iso[] = {0.5};
  EXPECT_THROW(MarchingCubes(d, geo, std::span<const float>(f), iso), Error);
}

TEST(RectilinearMs, StretchedContourPositions) {
  const grid::Dims d{3, 2, 1};
  const grid::RectilinearGeometry geo({0.0, 1.0, 10.0}, {0.0, 2.0}, {0.0});
  // Crossing between x=1 and x=10 at t=0.5 -> x = 5.5.
  const std::vector<float> f = {1.0f, 1.0f, 0.0f, 1.0f, 1.0f, 0.0f};
  const double iso[] = {0.5};
  const PolyData poly = MarchingSquares(d, geo, std::span<const float>(f), iso);
  ASSERT_GT(poly.PointCount(), 0u);
  for (const Vec3& p : poly.points()) {
    EXPECT_DOUBLE_EQ(p.x, 5.5);
  }
}

class RectilinearNdpTest : public ::testing::TestWithParam<unsigned> {};

// NDP exactness extends to stretched grids: the selection is geometry-
// independent, and the client applies the coordinates locally.
TEST_P(RectilinearNdpTest, SparseContourMatchesDense) {
  const grid::Dims d{11, 9, 10};
  std::mt19937 rng(GetParam());
  std::vector<float> f(static_cast<size_t>(d.PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  const auto a = grid::DataArray::FromVector("f", f);
  const std::vector<double> isos = {0.3, 0.7};
  const grid::RectilinearGeometry geo(Stretched(0, 1, 1.1, 11),
                                      Stretched(-4, 0.5, 1.2, 9),
                                      Stretched(2, 2, 0.9, 10));

  const PolyData dense = MarchingCubes(d, geo, std::span<const float>(f), isos);
  const Selection sel = SelectInterestingPoints(d, a, isos);
  const SparseField sparse =
      SparseField::FromSelection(sel, grid::DataType::Float32);
  const PolyData ndp = sparse.Contour(geo, isos);
  ASSERT_EQ(ndp.TriangleCount(), dense.TriangleCount());
  EXPECT_TRUE(ndp.GeometricallyEquals(dense, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectilinearNdpTest,
                         ::testing::Range(4000u, 4008u));

}  // namespace
}  // namespace vizndp::contour
