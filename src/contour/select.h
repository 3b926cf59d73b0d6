// Interesting-point selection — the data-reduction core of the paper's
// pre-filter. A grid edge is "interesting" for isovalue v when one
// endpoint is inside (value >= v) and the other outside; cells containing
// at least one interesting edge are "mixed".
//
// We select every corner of every mixed cell. This is a superset of
// "endpoints of interesting edges" (the paper's phrasing) by exactly the
// corners whose inside/outside bit the client-side marching-cubes case
// index still needs; selecting them makes the NDP contour *provably
// identical* to the full-data contour: a cell reconstructs iff all its
// corners arrived, and a cell with any missing corner is guaranteed
// non-mixed (mixed ⇒ all corners selected), so skipping it is exact.
// "Inside" is marching cubes' own predicate, double(value) >= v, so a NaN
// corner is outside every isovalue here exactly as it is there.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/data_array.h"
#include "grid/dims.h"

namespace vizndp::contour {

struct Selection {
  grid::Dims dims;
  std::vector<grid::PointId> ids;  // sorted ascending, unique
  grid::DataArray values;          // values[i] is the field value at ids[i]
  std::int64_t total_points = 0;

  // Fraction of points selected, in [0, 1].
  double Selectivity() const {
    return total_points == 0
               ? 0.0
               : static_cast<double>(ids.size()) /
                     static_cast<double>(total_points);
  }
};

// Works for 3D grids and 2D grids (nz == 1); multi-isovalue: a point is
// selected when it is interesting for *any* of the isovalues.
Selection SelectInterestingPoints(const grid::Dims& dims,
                                  const grid::DataArray& array,
                                  std::span<const double> isovalues);

// Count-only variant (no value materialization); used by selectivity
// sweeps such as the Fig. 6 reproduction.
std::int64_t CountInterestingPoints(const grid::Dims& dims,
                                    const grid::DataArray& array,
                                    std::span<const double> isovalues);

// Bit planes of the classify, one bit per point and 64-point words per
// x-row: "inside" for the isovalue at hand and "selected" for the slab.
// A caller that classifies many slabs keeps one and reuses its memory.
struct ClassifyPlanes {
  std::vector<std::uint64_t> inside;
  std::vector<std::uint64_t> marks;
};

// The classify behind both functions above and the bricked pre-filter.
// `values` is a slab of `slab` points per axis (x fastest) whose first
// point is `origin` of the `grid` grid. Appends each selected point of
// the slab to `ids` (its id in `grid`) and `picked` (its value), in
// ascending id order. T is float or double.
template <typename T>
void SelectSlab(const grid::Dims& grid, const grid::Dims& slab,
                const std::array<std::int64_t, 3>& origin,
                std::span<const T> values, std::span<const double> isovalues,
                ClassifyPlanes& planes, std::vector<grid::PointId>& ids,
                std::vector<T>& picked);

}  // namespace vizndp::contour
