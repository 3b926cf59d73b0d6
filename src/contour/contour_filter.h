// The classic (client-side, full-data) contour filter: VTK's
// vtkContourFilter analogue. Dispatches to marching squares on 2D grids
// and marching cubes on 3D grids, with multi-isovalue support.
#pragma once

#include <string>
#include <vector>

#include "contour/polydata.h"
#include "grid/dataset.h"

namespace vizndp::contour {

class ContourFilter {
 public:
  ContourFilter() = default;
  explicit ContourFilter(std::vector<double> isovalues)
      : isovalues_(std::move(isovalues)) {}

  void SetIsovalues(std::vector<double> isovalues) {
    isovalues_ = std::move(isovalues);
  }
  const std::vector<double>& isovalues() const { return isovalues_; }

  // Contours `array_name` from the dataset.
  PolyData Execute(const grid::Dataset& dataset,
                   const std::string& array_name) const;

  // Contours a standalone array over the given grid.
  PolyData Execute(const grid::Dims& dims,
                   const grid::UniformGeometry& geometry,
                   const grid::DataArray& array) const;

 private:
  std::vector<double> isovalues_;
};

}  // namespace vizndp::contour
