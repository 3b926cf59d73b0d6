#include "contour/sparse_field.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "contour/mc_core.h"
#include "contour/ms_core.h"

namespace vizndp::contour {

SparseField::SparseField(grid::Dims dims, grid::DataType type)
    : dims_(dims),
      type_(type),
      values_(std::make_unique_for_overwrite<Byte[]>(
          static_cast<size_t>(dims.PointCount()) * grid::DataTypeSize(type))),
      valid_((static_cast<size_t>(dims.PointCount()) + 63) / 64, 0) {}

void SparseField::Scatter(std::span<const grid::PointId> ids,
                          const grid::DataArray& values) {
  VIZNDP_CHECK_MSG(values.type() == type_, "scatter value type mismatch");
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(ids.size()) == values.size(),
                   "ids/values length mismatch");
  const size_t elem = grid::DataTypeSize(type_);
  const ByteSpan raw = values.raw();
  for (size_t i = 0; i < ids.size(); ++i) {
    const grid::PointId id = ids[i];
    VIZNDP_CHECK_MSG(id >= 0 && id < dims_.PointCount(),
                     "scatter id out of range");
    // Scatter is on the NDP client's critical path; 4-byte elements (the
    // common case) take the direct-store fast path.
    if (elem == 4) {
      std::uint32_t word32;
      std::memcpy(&word32, raw.data() + i * 4, 4);
      std::memcpy(values_.get() + static_cast<size_t>(id) * 4, &word32, 4);
    } else {
      std::memcpy(values_.get() + static_cast<size_t>(id) * elem,
                  raw.data() + i * elem, elem);
    }
    auto& word = valid_[static_cast<size_t>(id >> 6)];
    const std::uint64_t bit = 1ull << (static_cast<size_t>(id) & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++valid_count_;
    }
  }
}

SparseField SparseField::FromSelection(const Selection& selection,
                                       grid::DataType type) {
  SparseField field(selection.dims, type);
  field.Scatter(selection.ids, selection.values);
  return field;
}

std::vector<std::int64_t> SparseField::CompleteCells() const {
  // A complete cell has all its corners valid, so its lowest corner
  // (i, j, k) is a valid point off the +x/+y/+z max faces. For such
  // points the cell index i + cx*(j + cy*k) rises with the point id
  // i + nx*(j + ny*k), so walking the bitmap's set bits in id order yields
  // the complete cells in cell-scan order with no sort. Cost is one pass
  // over the bitmap (grid/64 words) plus O(valid points).
  const bool flat = dims_.Is2D();
  const std::int64_t cx = dims_.nx - 1;
  const std::int64_t cy = dims_.ny - 1;
  const std::int64_t cz = flat ? 1 : dims_.nz - 1;
  VIZNDP_CHECK_MSG(cx > 0 && cy > 0 && cz > 0,
                   "sparse contour needs at least a 2x2 grid");

  // Id offsets from a cell's lowest corner to its other corners.
  std::vector<std::int64_t> others;
  const size_t corners = flat ? 4 : 8;
  for (size_t c = 1; c < corners; ++c) {
    const auto& off = kCornerOffsets[c];
    others.push_back(dims_.Index(off[0], off[1], off[2]));
  }

  std::vector<std::int64_t> complete;
  complete.reserve(static_cast<size_t>(valid_count_));
  for (size_t w = 0; w < valid_.size(); ++w) {
    for (std::uint64_t bits = valid_[w]; bits != 0; bits &= bits - 1) {
      const grid::PointId id =
          static_cast<grid::PointId>(w * 64) + std::countr_zero(bits);
      const auto [i, j, k] = dims_.Coords(id);
      if (i >= cx || j >= cy || k >= cz) continue;
      if (std::all_of(others.begin(), others.end(),
                      [&](std::int64_t d) { return IsValid(id + d); })) {
        complete.push_back(i + cx * (j + cy * k));
      }
    }
  }
  return complete;
}

template <typename T, typename Geo>
PolyData SparseField::ContourT(const Geo& geometry,
                               std::span<const double> isovalues) const {
  PolyData out;
  const T* values = reinterpret_cast<const T*>(values_.get());
  const std::vector<std::int64_t> cells = CompleteCells();
  const std::int64_t cx = dims_.nx - 1;
  const std::int64_t cy = dims_.ny - 1;
  if (dims_.Is2D()) {
    detail::SquareCellProcessor<T, Geo> processor(dims_, geometry, values, out);
    for (const double iso : isovalues) {
      processor.BeginIsovalue(iso);
      for (const std::int64_t cell : cells) {
        processor.ProcessCell(cell % cx, cell / cx);
      }
    }
    return out;
  }
  detail::CellProcessor<T, Geo> processor(dims_, geometry, values, out);
  for (const double iso : isovalues) {
    processor.BeginIsovalue(iso);
    for (const std::int64_t cell : cells) {
      processor.ProcessCell(cell % cx, (cell / cx) % cy, cell / (cx * cy));
    }
  }
  return out;
}

PolyData SparseField::Contour(const grid::UniformGeometry& geometry,
                              std::span<const double> isovalues) const {
  switch (type_) {
    case grid::DataType::Float32:
      return ContourT<float>(geometry, isovalues);
    case grid::DataType::Float64:
      return ContourT<double>(geometry, isovalues);
    default:
      throw Error("sparse contour requires a floating-point field");
  }
}

PolyData SparseField::Contour(const grid::RectilinearGeometry& geometry,
                              std::span<const double> isovalues) const {
  geometry.Validate(dims_);
  switch (type_) {
    case grid::DataType::Float32:
      return ContourT<float>(geometry, isovalues);
    case grid::DataType::Float64:
      return ContourT<double>(geometry, isovalues);
    default:
      throw Error("sparse contour requires a floating-point field");
  }
}

}  // namespace vizndp::contour
