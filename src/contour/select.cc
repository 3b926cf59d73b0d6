#include "contour/select.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace vizndp::contour {

namespace {

// The classify works on bit planes: per x-row of points, 64 points a
// word, bit i of word w is point 64 * w + i. One plane holds "inside" for
// one isovalue, another the selected points. A cell is mixed when the OR
// of its corner bits is 1 and their AND is 0, which word shifts compute
// for 64 cells at a time; the planes of a 256^3 grid take 2 MiB each.
constexpr std::int64_t kWordBits = 64;

static_assert(std::endian::native == std::endian::little,
              "FillInside reads 8 flag bytes as one little-endian word");

// The smallest T whose double value is >= iso, so that `value >=
// threshold` compared in T is exactly marching cubes' Inside(value, iso):
// double(value) >= iso, false for a NaN value.
template <typename T>
T InsideThreshold(double iso);

template <>
double InsideThreshold<double>(double iso) {
  return iso;
}

// float(iso) may round below iso, and converting a double beyond float's
// range is undefined, so those isovalues are mapped first.
template <>
float InsideThreshold<float>(double iso) {
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (std::isnan(iso)) return std::numeric_limits<float>::quiet_NaN();
  if (iso > kMax) return kInf;
  if (iso < -kMax) return std::isinf(iso) ? -kInf : -kMax;
  float threshold = static_cast<float>(iso);
  if (static_cast<double>(threshold) < iso) {
    threshold = std::nextafter(threshold, kInf);
  }
  return threshold;
}

// Sets bit i of row r to values[r * nx + i] >= threshold for each of the
// `rows` x-rows; the bits past nx in a row's last word are 0.
template <typename T>
void FillInside(const T* values, std::int64_t nx, std::int64_t rows,
                std::int64_t words, T threshold, std::uint64_t* plane) {
  std::uint8_t flags[kWordBits];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t w = 0; w < words; ++w) {
      const T* const v = values + r * nx + w * kWordBits;
      const std::int64_t n = std::min(kWordBits, nx - w * kWordBits);
      // One flag byte per point, so the comparisons vectorize; then one
      // multiply gathers the low bits of 8 flag bytes into 8 adjacent
      // bits at the top of the product.
      for (std::int64_t i = 0; i < n; ++i) flags[i] = v[i] >= threshold;
      std::fill(flags + n, flags + kWordBits, std::uint8_t{0});
      std::uint64_t word = 0;
      for (int g = 0; g < 8; ++g) {
        std::uint64_t eight = 0;
        std::memcpy(&eight, flags + 8 * g, 8);
        word |= ((eight * 0x0102040810204080ull) >> 56) << (8 * g);
      }
      plane[r * words + w] = word;
    }
  }
}

// ORs into `marks` the corners of every cell that is mixed in `inside`:
// some corner inside and some outside, i.e. a marching-cubes case index
// other than 0 and 255.
void MarkMixedCells(const grid::Dims& slab, std::int64_t words,
                    const std::uint64_t* inside, std::uint64_t* marks) {
  const std::int64_t cells_per_row = slab.nx - 1;
  if (cells_per_row < 1 || slab.ny < 2) return;
  // A 3D cell row joins the point rows (j, k), (j+1, k), (j, k+1) and
  // (j+1, k+1). A 2D one joins (j) and (j+1) only; naming them twice
  // changes neither the OR nor the AND.
  const std::int64_t next_row = words;
  const std::int64_t next_layer = slab.Is2D() ? 0 : slab.ny * words;
  const std::int64_t cell_layers = slab.Is2D() ? 1 : slab.nz - 1;
  for (std::int64_t k = 0; k < cell_layers; ++k) {
    for (std::int64_t j = 0; j + 1 < slab.ny; ++j) {
      const std::int64_t base = (k * slab.ny + j) * words;
      const std::uint64_t* const r0 = inside + base;
      const std::uint64_t* const r1 = r0 + next_row;
      const std::uint64_t* const r2 = r0 + next_layer;
      const std::uint64_t* const r3 = r2 + next_row;
      std::uint64_t* const m0 = marks + base;
      std::uint64_t* const m1 = m0 + next_row;
      std::uint64_t* const m2 = m0 + next_layer;
      std::uint64_t* const m3 = m2 + next_row;
      std::uint64_t any = r0[0] | r1[0] | r2[0] | r3[0];
      std::uint64_t all = r0[0] & r1[0] & r2[0] & r3[0];
      std::uint64_t carry = 0;  // the previous word's last mixed cell
      for (std::int64_t w = 0; w < words; ++w) {
        const bool last = w + 1 == words;
        const std::uint64_t any_next =
            last ? 0 : r0[w + 1] | r1[w + 1] | r2[w + 1] | r3[w + 1];
        const std::uint64_t all_next =
            last ? 0 : r0[w + 1] & r1[w + 1] & r2[w + 1] & r3[w + 1];
        // Bit i stands for the cell between points i and i + 1; point
        // 64 * (w + 1) comes in from the next word.
        const std::uint64_t cell_any = any | (any >> 1) | (any_next << 63);
        const std::uint64_t cell_all = all & ((all >> 1) | (all_next << 63));
        std::uint64_t mixed = cell_any & ~cell_all;
        const std::int64_t valid = cells_per_row - w * kWordBits;
        if (valid < kWordBits) {
          mixed &= valid > 0 ? (std::uint64_t{1} << valid) - 1 : 0;
        }
        const std::uint64_t corners = mixed | (mixed << 1) | carry;
        carry = mixed >> 63;
        if (corners != 0) {
          m0[w] |= corners;
          m1[w] |= corners;
          m2[w] |= corners;
          m3[w] |= corners;
        }
        any = any_next;
        all = all_next;
      }
    }
  }
}

// Leaves the slab's selected points in planes.marks, one isovalue at a
// time: the union of their mixed cells marks the union of the corners.
// Returns the words per row.
template <typename T>
std::int64_t Classify(const grid::Dims& slab, std::span<const T> values,
                      std::span<const double> isovalues,
                      ClassifyPlanes& planes) {
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(values.size()) ==
                       slab.PointCount(),
                   "slab values do not match its dims");
  const std::int64_t words = (slab.nx + kWordBits - 1) / kWordBits;
  const std::int64_t rows = slab.ny * slab.nz;
  planes.inside.resize(static_cast<size_t>(rows * words));
  planes.marks.assign(static_cast<size_t>(rows * words), 0);
  for (const double iso : isovalues) {
    FillInside<T>(values.data(), slab.nx, rows, words,
                  InsideThreshold<T>(iso), planes.inside.data());
    MarkMixedCells(slab, words, planes.inside.data(), planes.marks.data());
  }
  return words;
}

std::int64_t CountMarks(const ClassifyPlanes& planes) {
  std::int64_t count = 0;
  for (const std::uint64_t word : planes.marks) count += std::popcount(word);
  return count;
}

template <typename T>
Selection DenseSelection(const grid::Dims& dims, const grid::DataArray& array,
                         std::span<const double> isovalues) {
  Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  ClassifyPlanes planes;
  std::vector<T> picked;
  SelectSlab<T>(dims, dims, {0, 0, 0}, array.View<T>(), isovalues, planes,
                out.ids, picked);
  out.values = grid::DataArray::FromVector(array.name(), std::move(picked));
  return out;
}

template <typename T>
std::int64_t CountSelected(const grid::Dims& dims,
                           const grid::DataArray& array,
                           std::span<const double> isovalues) {
  ClassifyPlanes planes;
  Classify<T>(dims, array.View<T>(), isovalues, planes);
  return CountMarks(planes);
}

}  // namespace

template <typename T>
void SelectSlab(const grid::Dims& grid, const grid::Dims& slab,
                const std::array<std::int64_t, 3>& origin,
                std::span<const T> values, std::span<const double> isovalues,
                ClassifyPlanes& planes, std::vector<grid::PointId>& ids,
                std::vector<T>& picked) {
  const std::int64_t words = Classify<T>(slab, values, isovalues, planes);
  const std::int64_t count = CountMarks(planes);
  size_t out = ids.size();
  ids.resize(out + static_cast<size_t>(count));
  picked.resize(out + static_cast<size_t>(count));
  // Rows in (k, j) order and bits in i order: the ids come out ascending,
  // each a row base plus the bit's x.
  for (std::int64_t k = 0; k < slab.nz; ++k) {
    for (std::int64_t j = 0; j < slab.ny; ++j) {
      const std::int64_t row = k * slab.ny + j;
      const grid::PointId row_base =
          grid.Index(origin[0], origin[1] + j, origin[2] + k);
      const T* const row_values = values.data() + row * slab.nx;
      const std::uint64_t* const row_marks =
          planes.marks.data() + row * words;
      for (std::int64_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row_marks[w]; bits != 0; bits &= bits - 1) {
          const std::int64_t i = w * kWordBits + std::countr_zero(bits);
          ids[out] = row_base + i;
          picked[out] = row_values[i];
          ++out;
        }
      }
    }
  }
}

template void SelectSlab<float>(const grid::Dims&, const grid::Dims&,
                                const std::array<std::int64_t, 3>&,
                                std::span<const float>,
                                std::span<const double>, ClassifyPlanes&,
                                std::vector<grid::PointId>&,
                                std::vector<float>&);
template void SelectSlab<double>(const grid::Dims&, const grid::Dims&,
                                 const std::array<std::int64_t, 3>&,
                                 std::span<const double>,
                                 std::span<const double>, ClassifyPlanes&,
                                 std::vector<grid::PointId>&,
                                 std::vector<double>&);

Selection SelectInterestingPoints(const grid::Dims& dims,
                                  const grid::DataArray& array,
                                  std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(array.size() == dims.PointCount(),
                   "array size does not match grid");
  switch (array.type()) {
    case grid::DataType::Float32:
      return DenseSelection<float>(dims, array, isovalues);
    case grid::DataType::Float64:
      return DenseSelection<double>(dims, array, isovalues);
    default:
      throw Error("selection requires a floating-point array");
  }
}

std::int64_t CountInterestingPoints(const grid::Dims& dims,
                                    const grid::DataArray& array,
                                    std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(array.size() == dims.PointCount(),
                   "array size does not match grid");
  switch (array.type()) {
    case grid::DataType::Float32:
      return CountSelected<float>(dims, array, isovalues);
    case grid::DataType::Float64:
      return CountSelected<double>(dims, array, isovalues);
    default:
      throw Error("selection requires a floating-point array");
  }
}

}  // namespace vizndp::contour
