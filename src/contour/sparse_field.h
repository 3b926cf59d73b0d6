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
// The field is built by runs of consecutive point ids, the wire's own
// form (ndp/protocol.h): a run's validity bits take one masked OR per
// 64-bit word and its values one memcpy. A value block of at least
// 2 * kMinPartBytes is set and copied in parts on DefaultPool() that
// first write about equal numbers of the backing's pages, cut between
// runs that share no validity word, so the first-touch page faults of
// the backing are taken on all cores.
//
// Memory follows the selection, not the grid: only the pages Scatter
// writes become resident, plus the validity bitmap of one bit per grid
// point (2 MiB at 256^3). Explore's selections (175k-192k values at
// 256^3) touch 673-1,067 distinct 4 KiB pages of the 64 MiB backing,
// and nearly every minor fault of a request is one of them. A 3D
// Contour call adds 8 B per complete cell for the list and 11 B per
// complete cell for the passes (case, owned edges, first vertex, first
// triangle).
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

// Points start, start + 1, ..., start + length - 1.
struct PointRun {
  grid::PointId start = 0;
  std::int64_t length = 0;
};

namespace detail {

// The part rule's minimum: a scatter whose value block is under twice
// this runs on the calling thread. Measured on prefixes of explore's
// five 256^3 payloads (25-394 KB of values, scattered into fresh fields,
// medians of 31): 32 KiB parts of a 66-108 KB block took 1.06-1.74x its
// serial time, 64 KiB parts of a 131-199 KB block 0.61-1.02x, and 4
// parts of a 262 KB block 0.37-0.74x, where 2 parts of 128 KiB took
// 0.62-0.90x.
inline constexpr size_t kMinPartBytes = 64 * 1024;

// The part rule: run-index boundaries of a scatter's parts, one part per
// kMinPartBytes of values (`elem` bytes per point), at most `threads`
// and at least one. The parts first write about equal numbers of the
// backing's 4 KiB pages, not equal bytes: into a fresh backing the page
// faults are most of a scatter's time, and a payload is dense in a few
// z-layers and sparse around them. A cut falls between two runs that
// share no validity word, so parts write disjoint words.
std::vector<size_t> PartBounds(std::span<const PointRun> runs, size_t elem,
                               size_t threads);

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

  // Scatters `values`, the raw values of `runs`' points in id order, of
  // the field's `type`. The runs must be ascending, disjoint, non-empty
  // and inside the grid, and the block exactly their points' size; a
  // call that breaks this throws before it writes anything. May be
  // called repeatedly (one batch per RPC chunk): a point scattered again
  // takes the new value and is counted once.
  void Scatter(std::span<const PointRun> runs, grid::DataType type,
               ByteSpan values);

  // Scatters `values[i]` to point `ids[i]`, through the run form: each
  // stretch of ascending ids is one call, so a repeated id's last value
  // wins. Ids must be in range and the value type must match the
  // field's.
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
