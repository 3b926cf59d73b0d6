// Client-side reconstruction for the NDP post-filter: scattered point
// values plus a validity mask, and a contour pass that visits only cells
// whose eight corners all arrived. By the selection invariant (see
// select.h) that set is exactly the mixed cells, so the result is
// identical to contouring the full field.
//
// Memory follows the selection, not the grid: only the pages Scatter
// writes become resident, plus the validity bitmap of one bit per grid
// point (2 MiB at 256^3). Each Contour call adds its cell processor's
// edge-vertex window of two point slices, 24 * nx * ny bytes (1.5 MiB at
// 256^2; see mc_core.h), which is smaller than the bitmap only when
// nz > 192.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "contour/polydata.h"
#include "contour/select.h"
#include "grid/data_array.h"
#include "grid/dims.h"
#include "grid/rectilinear.h"

namespace vizndp::contour {

// Move-only: the value backing is grid-sized.
class SparseField {
 public:
  SparseField(grid::Dims dims, grid::DataType type);

  // Scatters `values[i]` to point `ids[i]`. May be called repeatedly
  // (e.g. one batch per RPC chunk); ids must be in range and the value
  // type must match the field's.
  void Scatter(std::span<const grid::PointId> ids,
               const grid::DataArray& values);

  static SparseField FromSelection(const Selection& selection,
                                   grid::DataType type);

  bool IsValid(grid::PointId id) const {
    return (valid_[static_cast<size_t>(id >> 6)] >>
            (static_cast<size_t>(id) & 63)) & 1;
  }

  std::int64_t ValidCount() const { return valid_count_; }
  const grid::Dims& dims() const { return dims_; }
  grid::DataType type() const { return type_; }

  // Contours the sparse field: marching cubes on 3D grids, marching
  // squares on 2D (nz == 1) grids. Output is bit-identical to the dense
  // filter over the full field the selection was taken from.
  PolyData Contour(const grid::UniformGeometry& geometry,
                   std::span<const double> isovalues) const;

  // Stretched-grid variant: the selection is geometry-independent, so the
  // client may apply rectilinear coordinates it knows locally.
  PolyData Contour(const grid::RectilinearGeometry& geometry,
                   std::span<const double> isovalues) const;

 private:
  template <typename T, typename Geo>
  PolyData ContourT(const Geo& geometry,
                    std::span<const double> isovalues) const;

  // Cells all of whose corners are valid, in cell-scan (k, j, i) order.
  std::vector<std::int64_t> CompleteCells() const;

  grid::Dims dims_;
  grid::DataType type_;
  // Dense backing, not zero-filled, so a page becomes resident only when
  // Scatter first writes to it. Holes are undefined and never read:
  // Contour reads only the corners of complete cells.
  std::unique_ptr<Byte[]> values_;
  std::vector<std::uint64_t> valid_;
  std::int64_t valid_count_ = 0;
};

}  // namespace vizndp::contour
