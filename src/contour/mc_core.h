// Internal marching-cubes cell processor, shared by the full-data filter
// (marching_cubes.cc) and the NDP post-filter's sparse reconstruction
// (sparse_field.cc). Both paths must produce bit-identical geometry, so
// all per-cell logic lives here exactly once.
//
// Edge vertices are shared through an EdgeWindow of two point slices, k
// and k+1, with 3 slots per point (24 * nx * ny bytes). Vertices are
// created in first-encounter order, exactly as a map keyed by edge would
// create them, so point ids, point order and triangles do not depend on
// the window.
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "contour/mc_tables.h"
#include "contour/polydata.h"
#include "grid/dims.h"

namespace vizndp::contour::detail {

// Inside/outside convention used across the library (and by the
// pre-filter's edge classification): a point is inside iff value >= iso.
template <typename T>
bool Inside(T value, double iso) {
  return static_cast<double>(value) >= iso;
}

// Output vertex ids of crossed edges, in a rolling window of two point
// layers: slices k and k+1 in 3D, rows j and j+1 in 2D. The cell
// processors' callers visit cells in layer order, so a crossed edge can
// only be met again by a cell of the same layer or the next one. Each
// layer has one slot per (lower point, axis) of its edges.
class EdgeWindow {
 public:
  EdgeWindow(std::int64_t layer_slots, const PolyData& out)
      : layer_slots_(layer_slots),
        slots_(static_cast<size_t>(2 * layer_slots), 0),
        out_(out) {}

  // Forgets every vertex: edge-vertex identity is per isovalue.
  void Reset() {
    Forget(0);
    Forget(1);
  }

  // Moves the window to layers l and l+1. A step of one keeps the old
  // upper layer's vertices as the new lower layer; any other move (the
  // sparse walk skips layers with no complete cells) keeps none.
  void MoveTo(std::int64_t l) {
    if (l == layer_) return;
    if (l == layer_ + 1) {
      lower_ ^= 1;
      Forget(lower_ ^ 1);
    } else {
      Reset();
    }
    layer_ = l;
  }

  // The vertex of the edge at `slot` within window layer `layer` (0 is
  // l, 1 is l+1). On first encounter `make()` adds it to the output and
  // returns its id.
  template <typename Make>
  PolyData::Index Vertex(int layer, std::int64_t slot, Make make) {
    const int s = lower_ ^ layer;
    PolyData::Index& v = slots_[static_cast<size_t>(s * layer_slots_ + slot)];
    if (v > floor_[static_cast<size_t>(s)]) return v - 1;
    const PolyData::Index id = make();
    v = id + 1;
    return id;
  }

 private:
  // Invalidates a layer without clearing it. Slots hold vertex id + 1 and
  // ids only grow, so a slot is live only if it holds more than the point
  // count at its layer's last Forget; stale and never-written (zero)
  // slots hold no more than that.
  void Forget(int s) {
    floor_[static_cast<size_t>(s)] =
        static_cast<PolyData::Index>(out_.PointCount());
  }

  std::int64_t layer_slots_;
  std::vector<PolyData::Index> slots_;  // two layers of layer_slots_
  const PolyData& out_;
  std::array<PolyData::Index, 2> floor_{};
  int lower_ = 0;  // the half of slots_ that holds layer_
  std::int64_t layer_ = -2;
};

template <typename T, typename Geo = grid::UniformGeometry>
class CellProcessor {
 public:
  CellProcessor(const grid::Dims& dims, const Geo& geo, const T* values,
                PolyData& out)
      : dims_(dims),
        geo_(geo),
        values_(values),
        out_(out),
        window_(3 * dims.nx * dims.ny, out) {
    for (size_t c = 0; c < 8; ++c) {
      const auto& off = kCornerOffsets[c];
      corner_delta_[c] = dims.Index(off[0], off[1], off[2]);
    }
    for (size_t e = 0; e < 12; ++e) {
      std::uint8_t lo = kEdgeCorners[e][0];
      std::uint8_t hi = kEdgeCorners[e][1];
      if (corner_delta_[lo] > corner_delta_[hi]) std::swap(lo, hi);
      const auto& a = kCornerOffsets[lo];
      const auto& b = kCornerOffsets[hi];
      const int axis = a[0] != b[0] ? 0 : (a[1] != b[1] ? 1 : 2);
      edges_[e] = {lo, hi, a[2], (a[1] * dims.nx + a[0]) * 3 + axis};
    }
  }

  // Call before each isovalue pass: edge-vertex identity is per isovalue.
  void BeginIsovalue(double iso) {
    iso_ = iso;
    window_.Reset();
  }

  // Emits triangles for the cell whose lowest corner is (i, j, k).
  void ProcessCell(std::int64_t i, std::int64_t j, std::int64_t k) {
    window_.MoveTo(k);
    const grid::PointId base = dims_.Index(i, j, k);
    T corner_values[8];
    unsigned case_index = 0;
    for (size_t c = 0; c < 8; ++c) {
      corner_values[c] = values_[base + corner_delta_[c]];
      if (Inside(corner_values[c], iso_)) {
        case_index |= 1u << c;
      }
    }
    const std::uint16_t edge_mask = kMcEdgeTable[case_index];
    if (edge_mask == 0) return;

    // Ascending edge order: the order in which vertices are created.
    const std::int64_t cell_slot = (j * dims_.nx + i) * 3;
    PolyData::Index edge_point[12];
    for (unsigned m = edge_mask; m != 0; m &= m - 1) {
      const int e = std::countr_zero(m);
      edge_point[e] = VertexOnEdge(edges_[static_cast<size_t>(e)], i, j, k,
                                   cell_slot, corner_values);
    }
    const auto& tris = kMcTriTable[case_index];
    for (int t = 0; tris[static_cast<size_t>(t)] != -1; t += 3) {
      out_.AddTriangle(edge_point[tris[static_cast<size_t>(t)]],
                       edge_point[tris[static_cast<size_t>(t + 1)]],
                       edge_point[tris[static_cast<size_t>(t + 2)]]);
    }
  }

 private:
  // A cell edge from its lower corner (smaller point id) to its upper one.
  struct Edge {
    std::uint8_t lo;
    std::uint8_t hi;
    std::uint8_t layer;  // window layer of `lo`: 0 is slice k, 1 is k+1
    std::int64_t slot;   // slot offset from the cell's own within a layer
  };

  PolyData::Index VertexOnEdge(const Edge& edge, std::int64_t i,
                               std::int64_t j, std::int64_t k,
                               std::int64_t cell_slot,
                               const T* corner_values) {
    return window_.Vertex(edge.layer, cell_slot + edge.slot, [&] {
      const double va = static_cast<double>(corner_values[edge.lo]);
      const double vb = static_cast<double>(corner_values[edge.hi]);
      // va != vb on a crossed edge (see Inside()), so t is well defined.
      const double t = (iso_ - va) / (vb - va);
      const auto& a = kCornerOffsets[edge.lo];
      const auto& b = kCornerOffsets[edge.hi];
      const auto a_pos = geo_.PointPosition(i + a[0], j + a[1], k + a[2]);
      const auto b_pos = geo_.PointPosition(i + b[0], j + b[1], k + b[2]);
      return out_.AddPoint({a_pos[0] + t * (b_pos[0] - a_pos[0]),
                            a_pos[1] + t * (b_pos[1] - a_pos[1]),
                            a_pos[2] + t * (b_pos[2] - a_pos[2])});
    });
  }

  grid::Dims dims_;
  const Geo& geo_;  // caller keeps the geometry alive
  const T* values_;
  PolyData& out_;
  double iso_ = 0.0;
  std::array<grid::PointId, 8> corner_delta_{};  // id offset per corner
  std::array<Edge, 12> edges_{};
  EdgeWindow window_;
};

}  // namespace vizndp::contour::detail
