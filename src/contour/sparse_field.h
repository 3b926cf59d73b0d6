// Client-side reconstruction for the NDP post-filter: scattered point
// values plus a validity mask, and a contour pass that visits only cells
// whose eight corners all arrived. By the selection invariant (see
// select.h) that set is exactly the mixed cells, so the result is
// identical to contouring the full field.
//
// The 3D contour runs on all cores. The complete cells come from the
// validity bit planes in cell-scan order. A count pass gives each cell
// its case, the crossed edges whose vertex it owns (the first complete
// cell to touch an edge owns it, as the serial walk first meets it
// there) and its vertex and triangle counts; exclusive prefix sums give
// every cell its first vertex id and triangle slot, so the output is
// sized once; and an emit pass writes each cell's vertices and triangles
// in place. The count and emit passes run over equal ranges of the
// complete-cell list on DefaultPool(): one range per kMinRangeCells
// cells, at most one per pool thread. The 2D contour is the serial
// marching-squares walk.
//
// Memory follows the selection, not the grid: only the pages Scatter
// writes become resident, plus the validity bitmap of one bit per grid
// point (2 MiB at 256^3). A 3D Contour call adds 8 B per complete cell
// for the list and 11 B per complete cell for the passes (case, owned
// edges, first vertex, first triangle).
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

class SparseField;

namespace detail {

// The range rule's minimum: below 2 * kMinRangeCells complete cells the
// 3D contour is one range, on the calling thread.
inline constexpr size_t kMinRangeCells = 512;

// The range rule: boundaries of equal ranges over `cells` complete cells,
// one range per kMinRangeCells, at most `threads` and at least one.
std::vector<size_t> RangeBounds(size_t cells, size_t threads);

// SparseField::Contour with the complete-cell list split at `bounds`:
// ascending list positions from 0 to the number of complete cells, or
// none for the range rule over DefaultPool()'s threads. The output does
// not depend on the split. 2D fields ignore it.
PolyData ContourRanges(const SparseField& field,
                       const grid::UniformGeometry& geometry,
                       std::span<const double> isovalues,
                       std::span<const size_t> bounds);
PolyData ContourRanges(const SparseField& field,
                       const grid::RectilinearGeometry& geometry,
                       std::span<const double> isovalues,
                       std::span<const size_t> bounds);

}  // namespace detail

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
  friend PolyData detail::ContourRanges(const SparseField&,
                                        const grid::UniformGeometry&,
                                        std::span<const double>,
                                        std::span<const size_t>);
  friend PolyData detail::ContourRanges(const SparseField&,
                                        const grid::RectilinearGeometry&,
                                        std::span<const double>,
                                        std::span<const size_t>);

  template <typename Geo>
  PolyData ContourIn(const Geo& geometry, std::span<const double> isovalues,
                     std::span<const size_t> bounds) const;
  template <typename T, typename Geo>
  PolyData ContourT(const Geo& geometry, std::span<const double> isovalues,
                    std::span<const size_t> bounds) const;

  // Cells all of whose corners are valid, in cell-scan (k, j, i) order.
  std::vector<std::int64_t> CompleteCells() const;

  grid::Dims dims_;
  grid::DataType type_;
  // Dense backing, not zero-filled, so a page becomes resident only when
  // Scatter first writes to it. Holes are undefined and never read:
  // Contour reads only the corners of complete cells.
  std::unique_ptr<Byte[]> values_;
  // One bit per point, plus one zero word past the grid so that 64 bits
  // read from any point's offset stay in bounds.
  std::vector<std::uint64_t> valid_;
  std::int64_t valid_count_ = 0;
};

}  // namespace vizndp::contour
