// Output geometry of contour filters: points plus line segments (2D
// contours) or triangles (3D isosurfaces). The VTK analogue is
// vtkPolyData.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace vizndp::contour {

struct Vec3 {
  double x = 0, y = 0, z = 0;

  bool operator==(const Vec3&) const = default;

  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 Cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double Dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  double Norm() const;
};

// An allocator whose argument-free construct leaves the element as the
// allocation made it, so a resize does not zero elements that the caller
// overwrites next; copies and appends construct as usual. For
// implicit-lifetime types only, such as Vec3 and the index triples.
template <typename T>
struct OverwriteAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = OverwriteAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) > 0) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

class PolyData {
 public:
  using Index = std::uint32_t;
  template <typename T>
  using List = std::vector<T, OverwriteAllocator<T>>;

  Index AddPoint(const Vec3& p) {
    points_.push_back(p);
    return static_cast<Index>(points_.size() - 1);
  }

  void AddLine(Index a, Index b) { lines_.push_back({a, b}); }
  void AddTriangle(Index a, Index b, Index c) { triangles_.push_back({a, b, c}); }

  // Grows the point and triangle lists by `points` and `triangles`
  // unset entries and returns the new tails, for a filter that counts its
  // output first to fill every entry in place. The spans stay valid until
  // the next call that adds to this object.
  struct Tail {
    std::span<Vec3> points;
    std::span<std::array<Index, 3>> triangles;
  };
  Tail Extend(size_t points, size_t triangles);

  const List<Vec3>& points() const { return points_; }
  const std::vector<std::array<Index, 2>>& lines() const { return lines_; }
  const List<std::array<Index, 3>>& triangles() const { return triangles_; }

  size_t PointCount() const { return points_.size(); }
  size_t LineCount() const { return lines_.size(); }
  size_t TriangleCount() const { return triangles_.size(); }

  // Total isosurface area (3D) and total contour length (2D).
  double SurfaceArea() const;
  double TotalLineLength() const;

  // Number of triangle edges referenced by exactly one triangle. Zero for
  // a watertight (closed) surface — the key marching-cubes sanity check.
  size_t BoundaryEdgeCount() const;

  // Appends another PolyData (points re-based).
  void Append(const PolyData& other);

  // True when both objects describe the same geometry up to point-index
  // renumbering within each primitive list order.
  bool GeometricallyEquals(const PolyData& other, double tolerance) const;

  // Writes Wavefront OBJ (triangles + polylines as 'l' records).
  void WriteObj(const std::string& path) const;

 private:
  List<Vec3> points_;
  std::vector<std::array<Index, 2>> lines_;
  List<std::array<Index, 3>> triangles_;
};

}  // namespace vizndp::contour
