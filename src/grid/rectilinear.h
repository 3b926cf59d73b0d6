// Rectilinear (stretched-grid) geometry: per-axis coordinate arrays, the
// vtkRectilinearGrid analogue. The paper's prototype supports uniform
// grids "with plans to extend support to more complex grid types in
// future work" — this is that extension for the contouring stack: the
// pre-filter selection is geometry-independent (it only reads values), so
// NDP works on stretched grids by applying the coordinates client-side.
#pragma once

#include <vector>

#include "common/error.h"
#include "grid/dims.h"

namespace vizndp::grid {

class RectilinearGeometry {
 public:
  RectilinearGeometry() = default;
  RectilinearGeometry(std::vector<double> x, std::vector<double> y,
                      std::vector<double> z)
      : x_(std::move(x)), y_(std::move(y)), z_(std::move(z)) {
    for (const auto* axis : {&x_, &y_, &z_}) {
      for (size_t i = 1; i < axis->size(); ++i) {
        VIZNDP_CHECK_MSG((*axis)[i] > (*axis)[i - 1],
                         "rectilinear coordinates must be strictly increasing");
      }
    }
  }

  // Requires coordinate counts matching the grid's point dimensions.
  void Validate(const Dims& dims) const {
    VIZNDP_CHECK_MSG(static_cast<std::int64_t>(x_.size()) == dims.nx &&
                         static_cast<std::int64_t>(y_.size()) == dims.ny &&
                         static_cast<std::int64_t>(z_.size()) == dims.nz,
                     "coordinate arrays do not match grid dims");
  }

  // Point (i, j, k) sits at (x[i], y[j], z[k]).
  std::array<double, 3> PointPosition(std::int64_t i, std::int64_t j,
                                      std::int64_t k) const {
    return {x_[static_cast<size_t>(i)], y_[static_cast<size_t>(j)],
            z_[static_cast<size_t>(k)]};
  }

  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }
  const std::vector<double>& z() const { return z_; }

  bool operator==(const RectilinearGeometry&) const = default;

 private:
  std::vector<double> x_, y_, z_;
};

}  // namespace vizndp::grid
