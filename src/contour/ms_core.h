// Internal marching-squares cell processor, shared by the dense filter
// (marching_squares.cc) and the NDP post-filter's 2D sparse path
// (sparse_field.cc) — mirroring mc_core.h so both paths emit identical
// geometry from identical inputs. Edge vertices are shared through
// mc_core.h's EdgeWindow, one dimension down: two point rows, j and j+1,
// with 2 slots per point (16 * nx bytes).
#pragma once

#include <array>

#include "contour/mc_core.h"  // detail::Inside, detail::EdgeWindow
#include "contour/polydata.h"
#include "grid/dims.h"

namespace vizndp::contour::detail {

// Cell corners: 0:(0,0) 1:(1,0) 2:(1,1) 3:(0,1).
// Cell edges:   0: 0-1 (bottom), 1: 1-2 (right), 2: 2-3 (top), 3: 3-0 (left).
inline constexpr std::array<std::array<std::int8_t, 2>, 4> kSqEdgeCorners = {{
    {0, 1}, {1, 2}, {2, 3}, {3, 0}}};

// Segments per case as edge pairs, -1 terminated; saddle cases (5, 10)
// are resolved at run time with the cell-average decider.
inline constexpr std::array<std::array<std::int8_t, 5>, 16> kSqSegments = {{
    {-1, -1, -1, -1, -1},   // 0000
    {3, 0, -1, -1, -1},     // 0001: corner 0 inside
    {0, 1, -1, -1, -1},     // 0010
    {3, 1, -1, -1, -1},     // 0011
    {1, 2, -1, -1, -1},     // 0100
    {-1, -1, -1, -1, -1},   // 0101: saddle
    {0, 2, -1, -1, -1},     // 0110
    {3, 2, -1, -1, -1},     // 0111
    {2, 3, -1, -1, -1},     // 1000
    {2, 0, -1, -1, -1},     // 1001
    {-1, -1, -1, -1, -1},   // 1010: saddle
    {2, 1, -1, -1, -1},     // 1011
    {1, 3, -1, -1, -1},     // 1100
    {1, 0, -1, -1, -1},     // 1101: only corner 1 outside -> edges 0 and 1
    {0, 3, -1, -1, -1},     // 1110: only corner 0 outside -> edges 0 and 3
    {-1, -1, -1, -1, -1},   // 1111
}};

template <typename T, typename Geo = grid::UniformGeometry>
class SquareCellProcessor {
 public:
  SquareCellProcessor(const grid::Dims& dims, const Geo& geo, const T* values,
                      PolyData& out)
      : dims_(dims),
        geo_(geo),
        values_(values),
        out_(out),
        window_(2 * dims.nx, out) {
    for (size_t e = 0; e < 4; ++e) {
      std::uint8_t lo = static_cast<std::uint8_t>(kSqEdgeCorners[e][0]);
      std::uint8_t hi = static_cast<std::uint8_t>(kSqEdgeCorners[e][1]);
      if (dims.Index(kCornerOffsets[lo][0], kCornerOffsets[lo][1]) >
          dims.Index(kCornerOffsets[hi][0], kCornerOffsets[hi][1])) {
        std::swap(lo, hi);
      }
      const auto& a = kCornerOffsets[lo];
      const int axis = a[0] != kCornerOffsets[hi][0] ? 0 : 1;
      edges_[e] = {lo, hi, a[1], a[0] * 2 + axis};
    }
  }

  void BeginIsovalue(double iso) {
    iso_ = iso;
    window_.Reset();
  }

  void ProcessCell(std::int64_t i, std::int64_t j) {
    window_.MoveTo(j);
    const grid::PointId corner_ids[4] = {
        dims_.Index(i, j), dims_.Index(i + 1, j), dims_.Index(i + 1, j + 1),
        dims_.Index(i, j + 1)};
    double corner_values[4];
    unsigned case_index = 0;
    for (int c = 0; c < 4; ++c) {
      corner_values[c] =
          static_cast<double>(values_[corner_ids[c]]);
      if (Inside(corner_values[c], iso_)) case_index |= 1u << c;
    }
    if (case_index == 0 || case_index == 15) return;

    const auto emit = [&](int ea, int eb) {
      out_.AddLine(VertexOnEdge(ea, i, j, corner_values),
                   VertexOnEdge(eb, i, j, corner_values));
    };
    if (case_index == 5 || case_index == 10) {
      const double center = 0.25 * (corner_values[0] + corner_values[1] +
                                    corner_values[2] + corner_values[3]);
      const bool center_inside = Inside(center, iso_);
      if (case_index == 5) {  // corners 0 and 2 inside
        if (center_inside) {
          emit(3, 2);
          emit(1, 0);
        } else {
          emit(3, 0);
          emit(1, 2);
        }
      } else {  // corners 1 and 3 inside
        if (center_inside) {
          emit(0, 3);
          emit(2, 1);
        } else {
          emit(0, 1);
          emit(2, 3);
        }
      }
      return;
    }
    const auto& segs = kSqSegments[case_index];
    for (int s = 0; segs[static_cast<size_t>(s)] != -1; s += 2) {
      emit(segs[static_cast<size_t>(s)], segs[static_cast<size_t>(s + 1)]);
    }
  }

 private:
  // A cell edge from its lower corner (smaller point id) to its upper one.
  struct Edge {
    std::uint8_t lo;
    std::uint8_t hi;
    std::uint8_t layer;  // window layer of `lo`: 0 is row j, 1 is j+1
    std::int64_t slot;   // slot offset from the cell's own within a layer
  };

  PolyData::Index VertexOnEdge(int e, std::int64_t i, std::int64_t j,
                               const double* corner_values) {
    const Edge& edge = edges_[static_cast<size_t>(e)];
    return window_.Vertex(edge.layer, i * 2 + edge.slot, [&] {
      const double va = corner_values[edge.lo];
      const double vb = corner_values[edge.hi];
      const double t = (iso_ - va) / (vb - va);
      const auto& a = kCornerOffsets[edge.lo];
      const auto& b = kCornerOffsets[edge.hi];
      const auto a_pos = geo_.PointPosition(i + a[0], j + a[1], 0);
      const auto b_pos = geo_.PointPosition(i + b[0], j + b[1], 0);
      return out_.AddPoint({a_pos[0] + t * (b_pos[0] - a_pos[0]),
                            a_pos[1] + t * (b_pos[1] - a_pos[1]), 0.0});
    });
  }

  grid::Dims dims_;
  const Geo& geo_;  // caller keeps the geometry alive
  const T* values_;
  PolyData& out_;
  double iso_ = 0.0;
  std::array<Edge, 4> edges_{};
  EdgeWindow window_;
};

}  // namespace vizndp::contour::detail
