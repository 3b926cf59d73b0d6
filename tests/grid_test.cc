#include <gtest/gtest.h>

#include <cmath>

#include "grid/dataset.h"

namespace vizndp::grid {
namespace {

TEST(Dims, PointAndCellCounts) {
  const Dims d{4, 5, 6};
  EXPECT_EQ(d.PointCount(), 120);
  EXPECT_EQ(d.CellCount(), 3 * 4 * 5);
  const Dims flat{8, 6, 1};
  EXPECT_TRUE(flat.Is2D());
  EXPECT_EQ(flat.CellCount(), 7 * 5);
}

TEST(Dims, IndexCoordsInverse) {
  const Dims d{7, 5, 3};
  for (std::int64_t k = 0; k < d.nz; ++k) {
    for (std::int64_t j = 0; j < d.ny; ++j) {
      for (std::int64_t i = 0; i < d.nx; ++i) {
        const PointId id = d.Index(i, j, k);
        const auto c = d.Coords(id);
        EXPECT_EQ(c[0], i);
        EXPECT_EQ(c[1], j);
        EXPECT_EQ(c[2], k);
      }
    }
  }
}

TEST(Dims, IndexIsDenseAndUnique) {
  const Dims d{3, 4, 5};
  std::vector<bool> seen(static_cast<size_t>(d.PointCount()), false);
  for (std::int64_t k = 0; k < d.nz; ++k) {
    for (std::int64_t j = 0; j < d.ny; ++j) {
      for (std::int64_t i = 0; i < d.nx; ++i) {
        const PointId id = d.Index(i, j, k);
        ASSERT_GE(id, 0);
        ASSERT_LT(id, d.PointCount());
        EXPECT_FALSE(seen[static_cast<size_t>(id)]);
        seen[static_cast<size_t>(id)] = true;
      }
    }
  }
}

TEST(Dims, Contains) {
  const Dims d{4, 4, 4};
  EXPECT_TRUE(d.Contains(0, 0, 0));
  EXPECT_TRUE(d.Contains(3, 3, 3));
  EXPECT_FALSE(d.Contains(-1, 0, 0));
  EXPECT_FALSE(d.Contains(0, 4, 0));
}

TEST(UniformGeometry, PointPositions) {
  UniformGeometry g;
  g.origin = {10.0, 20.0, 30.0};
  g.spacing = {0.5, 1.0, 2.0};
  const auto p = g.PointPosition(2, 1, 1);
  EXPECT_DOUBLE_EQ(p[0], 11.0);
  EXPECT_DOUBLE_EQ(p[1], 21.0);
  EXPECT_DOUBLE_EQ(p[2], 32.0);
}

TEST(DataType, SizesAndNames) {
  EXPECT_EQ(DataTypeSize(DataType::Float32), 4u);
  EXPECT_EQ(DataTypeSize(DataType::Float64), 8u);
  EXPECT_EQ(DataTypeSize(DataType::UInt8), 1u);
  for (const DataType t : {DataType::Float32, DataType::Float64,
                           DataType::Int32, DataType::Int64, DataType::UInt8}) {
    EXPECT_EQ(DataTypeFromName(DataTypeName(t)), t);
  }
  EXPECT_THROW(DataTypeFromName("quaternion"), Error);
}

TEST(DataArray, FromVectorAndViews) {
  auto a = DataArray::FromVector<float>("rho", {1.0f, 2.0f, 3.0f});
  EXPECT_EQ(a.name(), "rho");
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(a.byte_size(), 12);
  EXPECT_EQ(a.View<float>()[1], 2.0f);
  EXPECT_THROW(a.View<double>(), Error);
  a.MutableView<float>()[0] = 9.0f;
  EXPECT_DOUBLE_EQ(a.ValueAsDouble(0), 9.0);
}

TEST(DataArray, RangeIgnoresNan) {
  auto a = DataArray::FromVector<float>(
      "x", {3.0f, std::nanf(""), -1.0f, 7.0f});
  const auto [lo, hi] = a.Range();
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 7.0);
}

TEST(DataArray, RawConstructorValidatesSize) {
  EXPECT_THROW(DataArray("x", DataType::Float32, Bytes(7)), Error);
  EXPECT_NO_THROW(DataArray("x", DataType::Float32, Bytes(8)));
}

TEST(Dataset, AddAndLookup) {
  Dataset ds(Dims{2, 2, 2});
  ds.AddArray(DataArray::FromVector<float>("v02", std::vector<float>(8, 0.5f)));
  ds.AddArray(DataArray::FromVector<float>("v03", std::vector<float>(8, 0.1f)));
  EXPECT_EQ(ds.ArrayCount(), 2u);
  EXPECT_NE(ds.FindArray("v02"), nullptr);
  EXPECT_EQ(ds.FindArray("nope"), nullptr);
  EXPECT_THROW(ds.GetArray("nope"), Error);
  EXPECT_EQ(ds.ArrayNames(), (std::vector<std::string>{"v02", "v03"}));
}

TEST(Dataset, RejectsWrongSizeAndDuplicates) {
  Dataset ds(Dims{2, 2, 2});
  EXPECT_THROW(
      ds.AddArray(DataArray::FromVector<float>("x", std::vector<float>(7))),
      Error);
  ds.AddArray(DataArray::FromVector<float>("x", std::vector<float>(8)));
  EXPECT_THROW(
      ds.AddArray(DataArray::FromVector<float>("x", std::vector<float>(8))),
      Error);
}

TEST(Dataset, SelectImplementsArraySelection) {
  Dataset ds(Dims{2, 2, 1});
  for (const char* name : {"rho", "prs", "v02", "v03"}) {
    ds.AddArray(DataArray::FromVector<float>(name, std::vector<float>(4)));
  }
  const Dataset picked = ds.Select({"v02", "v03"});
  EXPECT_EQ(picked.ArrayCount(), 2u);
  EXPECT_EQ(picked.dims(), ds.dims());
  EXPECT_THROW(ds.Select({"missing"}), Error);
}

TEST(Dataset, RemoveArray) {
  Dataset ds(Dims{2, 2, 1});
  ds.AddArray(DataArray::FromVector<float>("a", std::vector<float>(4)));
  EXPECT_TRUE(ds.RemoveArray("a"));
  EXPECT_FALSE(ds.RemoveArray("a"));
  EXPECT_EQ(ds.ArrayCount(), 0u);
}

}  // namespace
}  // namespace vizndp::grid
