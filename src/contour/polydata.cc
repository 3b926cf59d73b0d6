#include "contour/polydata.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "common/error.h"

namespace vizndp::contour {

double Vec3::Norm() const { return std::sqrt(x * x + y * y + z * z); }

double PolyData::SurfaceArea() const {
  double area = 0.0;
  for (const auto& t : triangles_) {
    const Vec3& a = points_[t[0]];
    const Vec3& b = points_[t[1]];
    const Vec3& c = points_[t[2]];
    area += 0.5 * (b - a).Cross(c - a).Norm();
  }
  return area;
}

double PolyData::TotalLineLength() const {
  double length = 0.0;
  for (const auto& l : lines_) {
    length += (points_[l[1]] - points_[l[0]]).Norm();
  }
  return length;
}

size_t PolyData::BoundaryEdgeCount() const {
  // Count edge uses keyed by unordered point pair. Degenerate triangles
  // (repeated indices) contribute no edges.
  std::map<std::pair<Index, Index>, int> uses;
  for (const auto& t : triangles_) {
    for (int e = 0; e < 3; ++e) {
      Index a = t[static_cast<size_t>(e)];
      Index b = t[static_cast<size_t>((e + 1) % 3)];
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      ++uses[{a, b}];
    }
  }
  size_t boundary = 0;
  for (const auto& [edge, count] : uses) {
    if (count == 1) ++boundary;
  }
  return boundary;
}

PolyData::Tail PolyData::Extend(size_t points, size_t triangles) {
  const size_t p = points_.size();
  const size_t t = triangles_.size();
  points_.resize(p + points);
  triangles_.resize(t + triangles);
  return {std::span(points_).subspan(p), std::span(triangles_).subspan(t)};
}

void PolyData::Append(const PolyData& other) {
  const Index base = static_cast<Index>(points_.size());
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
  for (const auto& l : other.lines_) {
    lines_.push_back({l[0] + base, l[1] + base});
  }
  for (const auto& t : other.triangles_) {
    triangles_.push_back({t[0] + base, t[1] + base, t[2] + base});
  }
}

bool PolyData::GeometricallyEquals(const PolyData& other,
                                   double tolerance) const {
  if (triangles_.size() != other.triangles_.size() ||
      lines_.size() != other.lines_.size()) {
    return false;
  }
  const auto close = [&](const Vec3& a, const Vec3& b) {
    return std::abs(a.x - b.x) <= tolerance &&
           std::abs(a.y - b.y) <= tolerance && std::abs(a.z - b.z) <= tolerance;
  };
  for (size_t i = 0; i < triangles_.size(); ++i) {
    for (int v = 0; v < 3; ++v) {
      if (!close(points_[triangles_[i][static_cast<size_t>(v)]],
                 other.points_[other.triangles_[i][static_cast<size_t>(v)]])) {
        return false;
      }
    }
  }
  for (size_t i = 0; i < lines_.size(); ++i) {
    for (int v = 0; v < 2; ++v) {
      if (!close(points_[lines_[i][static_cast<size_t>(v)]],
                 other.points_[other.lines_[i][static_cast<size_t>(v)]])) {
        return false;
      }
    }
  }
  return true;
}

void PolyData::WriteObj(const std::string& path) const {
  std::ofstream os(path);
  VIZNDP_CHECK_MSG(os.good(), "cannot open " + path);
  os << "# vizndp contour output\n";
  for (const Vec3& p : points_) {
    os << "v " << p.x << " " << p.y << " " << p.z << "\n";
  }
  for (const auto& t : triangles_) {
    os << "f " << t[0] + 1 << " " << t[1] + 1 << " " << t[2] + 1 << "\n";
  }
  for (const auto& l : lines_) {
    os << "l " << l[0] + 1 << " " << l[1] + 1 << "\n";
  }
  VIZNDP_CHECK_MSG(os.good(), "short write to " + path);
}

}  // namespace vizndp::contour
