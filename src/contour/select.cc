#include "contour/select.h"

#include <algorithm>

#include "common/error.h"

namespace vizndp::contour {

namespace {

// Marks every corner of every mixed cell in `selected` (one byte per
// point). A cell is mixed for isovalue v iff cell_min < v <= cell_max
// under the inside(x) = x >= v convention.
template <typename T>
void MarkInterestingPoints(const grid::Dims& dims, std::span<const T> values,
                           std::span<const double> isovalues,
                           std::vector<std::uint8_t>& selected) {
  // Single-isovalue loads are the common case on the NDP critical path;
  // hoist that comparison out of the per-cell dispatch.
  const bool single = isovalues.size() == 1;
  const double iso0 = isovalues.empty() ? 0.0 : isovalues.front();
  const auto mixed = [&](double lo, double hi) {
    if (single) return lo < iso0 && hi >= iso0;
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
          selected[static_cast<size_t>(r0 + i)] = 1;
          selected[static_cast<size_t>(r0 + i + 1)] = 1;
          selected[static_cast<size_t>(r1 + i)] = 1;
          selected[static_cast<size_t>(r1 + i + 1)] = 1;
        }
      }
    }
    return;
  }

  // The pre-filter scan is on the NDP critical path (the paper's load
  // time includes it), so the inner loops are written to auto-vectorize:
  // first a column-wise min/max over the cell row's four x-rows, then a
  // shifted combine; only the rare mixed cells take the marking branch.
  std::vector<T> colmin(static_cast<size_t>(nx));
  std::vector<T> colmax(static_cast<size_t>(nx));
  for (std::int64_t k = 0; k + 1 < nz; ++k) {
    for (std::int64_t j = 0; j + 1 < ny; ++j) {
      const T* const r00 = v + (k * ny + j) * nx;
      const T* const r10 = v + (k * ny + j + 1) * nx;
      const T* const r01 = v + ((k + 1) * ny + j) * nx;
      const T* const r11 = v + ((k + 1) * ny + j + 1) * nx;
      for (std::int64_t i = 0; i < nx; ++i) {
        const T a = std::min(r00[i], r10[i]);
        const T b = std::min(r01[i], r11[i]);
        colmin[static_cast<size_t>(i)] = std::min(a, b);
        const T c = std::max(r00[i], r10[i]);
        const T d = std::max(r01[i], r11[i]);
        colmax[static_cast<size_t>(i)] = std::max(c, d);
      }
      const std::int64_t base = (k * ny + j) * nx;
      for (std::int64_t i = 0; i + 1 < nx; ++i) {
        const double lo = std::min(colmin[static_cast<size_t>(i)],
                                   colmin[static_cast<size_t>(i + 1)]);
        const double hi = std::max(colmax[static_cast<size_t>(i)],
                                   colmax[static_cast<size_t>(i + 1)]);
        if (mixed(lo, hi)) {
          selected[static_cast<size_t>(base + i)] = 1;
          selected[static_cast<size_t>(base + i + 1)] = 1;
          selected[static_cast<size_t>(base + nx + i)] = 1;
          selected[static_cast<size_t>(base + nx + i + 1)] = 1;
          const std::int64_t up = base + ny * nx;
          selected[static_cast<size_t>(up + i)] = 1;
          selected[static_cast<size_t>(up + i + 1)] = 1;
          selected[static_cast<size_t>(up + nx + i)] = 1;
          selected[static_cast<size_t>(up + nx + i + 1)] = 1;
        }
      }
    }
  }
}

template <typename T>
Selection GatherSelection(const grid::Dims& dims, const grid::DataArray& array,
                          std::span<const T> values,
                          const std::vector<std::uint8_t>& selected) {
  Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  std::int64_t count = 0;
  for (const std::uint8_t s : selected) count += s;
  out.ids.reserve(static_cast<size_t>(count));
  std::vector<T> picked;
  picked.reserve(static_cast<size_t>(count));
  for (std::int64_t id = 0; id < dims.PointCount(); ++id) {
    if (selected[static_cast<size_t>(id)]) {
      out.ids.push_back(id);
      picked.push_back(values[static_cast<size_t>(id)]);
    }
  }
  out.values = grid::DataArray::FromVector(array.name(), std::move(picked));
  return out;
}

template <typename T>
Selection BuildSelection(const grid::Dims& dims, const grid::DataArray& array,
                         std::span<const double> isovalues) {
  const auto values = array.View<T>();
  std::vector<std::uint8_t> selected(static_cast<size_t>(dims.PointCount()), 0);
  MarkInterestingPoints<T>(dims, values, isovalues, selected);
  return GatherSelection<T>(dims, array, values, selected);
}

}  // namespace

Selection SelectInterestingPoints(const grid::Dims& dims,
                                  const grid::DataArray& array,
                                  std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(array.size() == dims.PointCount(),
                   "array size does not match grid");
  switch (array.type()) {
    case grid::DataType::Float32:
      return BuildSelection<float>(dims, array, isovalues);
    case grid::DataType::Float64:
      return BuildSelection<double>(dims, array, isovalues);
    default:
      throw Error("selection requires a floating-point array");
  }
}

std::int64_t CountInterestingPoints(const grid::Dims& dims,
                                    const grid::DataArray& array,
                                    std::span<const double> isovalues) {
  VIZNDP_CHECK_MSG(array.size() == dims.PointCount(),
                   "array size does not match grid");
  std::vector<std::uint8_t> selected(static_cast<size_t>(dims.PointCount()), 0);
  switch (array.type()) {
    case grid::DataType::Float32:
      MarkInterestingPoints<float>(dims, array.View<float>(), isovalues,
                                   selected);
      break;
    case grid::DataType::Float64:
      MarkInterestingPoints<double>(dims, array.View<double>(), isovalues,
                                    selected);
      break;
    default:
      throw Error("selection requires a floating-point array");
  }
  std::int64_t count = 0;
  for (const std::uint8_t s : selected) count += s;
  return count;
}

}  // namespace vizndp::contour
