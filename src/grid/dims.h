// Structured-grid topology: dimensions, linear indexing, and edge/cell
// enumeration for uniform rectilinear grids (the grid type the paper's
// prototype supports).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/error.h"

namespace vizndp::grid {

// Point index in a flattened array. 500^3 = 1.25e8 fits in 32 bits but the
// library supports larger grids, so indices are 64-bit.
using PointId = std::int64_t;

// Point dimensions of a structured grid. A 2D grid has nz == 1.
struct Dims {
  std::int64_t nx = 0;
  std::int64_t ny = 0;
  std::int64_t nz = 1;

  constexpr std::int64_t PointCount() const { return nx * ny * nz; }

  // Number of cells (quads in 2D, hexahedra in 3D).
  constexpr std::int64_t CellCount() const {
    const std::int64_t cx = nx > 1 ? nx - 1 : (nx == 1 ? 1 : 0);
    const std::int64_t cy = ny > 1 ? ny - 1 : (ny == 1 ? 1 : 0);
    const std::int64_t cz = nz > 1 ? nz - 1 : (nz == 1 ? 1 : 0);
    return cx * cy * cz;
  }

  constexpr bool Is2D() const { return nz == 1; }

  constexpr PointId Index(std::int64_t i, std::int64_t j,
                          std::int64_t k = 0) const {
    return i + nx * (j + ny * k);
  }

  constexpr std::array<std::int64_t, 3> Coords(PointId id) const {
    const std::int64_t i = id % nx;
    const std::int64_t j = (id / nx) % ny;
    const std::int64_t k = id / (nx * ny);
    return {i, j, k};
  }

  constexpr bool Contains(std::int64_t i, std::int64_t j,
                          std::int64_t k = 0) const {
    return i >= 0 && i < nx && j >= 0 && j < ny && k >= 0 && k < nz;
  }

  constexpr bool operator==(const Dims&) const = default;

  std::string ToString() const;
};

// Physical embedding of a uniform grid: point (i,j,k) sits at
// origin + (i,j,k) * spacing.
struct UniformGeometry {
  std::array<double, 3> origin = {0.0, 0.0, 0.0};
  std::array<double, 3> spacing = {1.0, 1.0, 1.0};

  std::array<double, 3> PointPosition(std::int64_t i, std::int64_t j,
                                      std::int64_t k) const {
    return {origin[0] + spacing[0] * static_cast<double>(i),
            origin[1] + spacing[1] * static_cast<double>(j),
            origin[2] + spacing[2] * static_cast<double>(k)};
  }

  constexpr bool operator==(const UniformGeometry&) const = default;
};

}  // namespace vizndp::grid
