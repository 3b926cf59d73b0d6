// Internal marching-cubes pieces shared by the full-data filter
// (marching_cubes.cc) and the NDP post-filter's sparse reconstruction
// (sparse_field.cc). Both paths must produce bit-identical geometry, so
// every per-cell piece lives here exactly once: the inside test, each
// edge's lower/upper corner order, the corner loads and the
// interpolation through PointPosition.
//
// The dense filter walks every cell with a CellProcessor, which shares
// edge vertices through an EdgeWindow of two point slices, k and k+1,
// with 3 slots per point (24 * nx * ny bytes). Vertices are created in
// first-encounter order, exactly as a map keyed by edge would create
// them, so point ids, point order and triangles do not depend on the
// window. The sparse 3D path gives the same ids without a window: the
// first cell to meet an edge owns its vertex (see sparse_field.cc).
#pragma once

#include <array>
#include <bit>
#include <utility>
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

// A cell edge from its lower corner (smaller point id) to its upper one.
struct EdgeEnds {
  std::uint8_t lo;
  std::uint8_t hi;
  std::uint8_t axis;  // 0, 1, 2 for x, y, z
};

// kEdgeCorners in point-id order. A corner's id offset rises with each of
// its (dx, dy, dz), so on every grid the lower corner of an edge is the
// one nearer the cell's origin.
inline constexpr std::array<EdgeEnds, 12> kEdgeEnds = [] {
  std::array<EdgeEnds, 12> ends{};
  for (size_t e = 0; e < 12; ++e) {
    std::uint8_t lo = kEdgeCorners[e][0];
    std::uint8_t hi = kEdgeCorners[e][1];
    const auto& a = kCornerOffsets[lo];
    const auto& b = kCornerOffsets[hi];
    const std::uint8_t axis = a[0] != b[0] ? 0 : (a[1] != b[1] ? 1 : 2);
    if (a[axis] > b[axis]) std::swap(lo, hi);
    ends[e] = {lo, hi, axis};
  }
  return ends;
}();

// Id offset from a cell's lowest corner to each of its 8 corners.
inline std::array<grid::PointId, 8> CornerDeltas(const grid::Dims& dims) {
  std::array<grid::PointId, 8> delta{};
  for (size_t c = 0; c < 8; ++c) {
    const auto& off = kCornerOffsets[c];
    delta[c] = dims.Index(off[0], off[1], off[2]);
  }
  return delta;
}

// Loads the corner values of the cell whose lowest corner is point
// `base` into `corner` and returns the cell's case index: bit c is set
// iff corner c is inside.
template <typename T>
unsigned LoadCell(const T* values, grid::PointId base,
                  const std::array<grid::PointId, 8>& delta, double iso,
                  T* corner) {
  unsigned case_index = 0;
  for (size_t c = 0; c < 8; ++c) {
    corner[c] = values[base + delta[c]];
    if (Inside(corner[c], iso)) case_index |= 1u << c;
  }
  return case_index;
}

// The isosurface vertex on `edge` of the cell whose lowest corner is
// (i, j, k) and whose corner values are `corner`.
template <typename T, typename Geo>
Vec3 EdgeVertex(const Geo& geo, double iso, std::int64_t i, std::int64_t j,
                std::int64_t k, const T* corner, EdgeEnds edge) {
  const double va = static_cast<double>(corner[edge.lo]);
  const double vb = static_cast<double>(corner[edge.hi]);
  // va != vb on a crossed edge (see Inside()), so t is well defined.
  const double t = (iso - va) / (vb - va);
  const auto& a = kCornerOffsets[edge.lo];
  const auto& b = kCornerOffsets[edge.hi];
  const auto a_pos = geo.PointPosition(i + a[0], j + a[1], k + a[2]);
  const auto b_pos = geo.PointPosition(i + b[0], j + b[1], k + b[2]);
  return {a_pos[0] + t * (b_pos[0] - a_pos[0]),
          a_pos[1] + t * (b_pos[1] - a_pos[1]),
          a_pos[2] + t * (b_pos[2] - a_pos[2])};
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
        corner_delta_(CornerDeltas(dims)),
        window_(3 * dims.nx * dims.ny, out) {
    for (size_t e = 0; e < 12; ++e) {
      const auto& a = kCornerOffsets[kEdgeEnds[e].lo];
      edges_[e] = {a[2], (a[1] * dims.nx + a[0]) * 3 + kEdgeEnds[e].axis};
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
    T corner_values[8];
    const unsigned case_index = LoadCell(values_, dims_.Index(i, j, k),
                                         corner_delta_, iso_, corner_values);
    const std::uint16_t edge_mask = kMcEdgeTable[case_index];
    if (edge_mask == 0) return;

    // Ascending edge order: the order in which vertices are created.
    const std::int64_t cell_slot = (j * dims_.nx + i) * 3;
    PolyData::Index edge_point[12];
    for (unsigned m = edge_mask; m != 0; m &= m - 1) {
      const int e = std::countr_zero(m);
      const size_t edge = static_cast<size_t>(e);
      edge_point[e] = window_.Vertex(
          edges_[edge].layer, cell_slot + edges_[edge].slot, [&] {
            return out_.AddPoint(EdgeVertex(geo_, iso_, i, j, k,
                                            corner_values, kEdgeEnds[edge]));
          });
    }
    const auto& tris = kMcTriTable[case_index];
    for (int t = 0; tris[static_cast<size_t>(t)] != -1; t += 3) {
      out_.AddTriangle(edge_point[tris[static_cast<size_t>(t)]],
                       edge_point[tris[static_cast<size_t>(t + 1)]],
                       edge_point[tris[static_cast<size_t>(t + 2)]]);
    }
  }

 private:
  // Where an edge's vertex lives in the window.
  struct Edge {
    std::uint8_t layer;  // window layer of its lower corner: 0 is slice k
    std::int64_t slot;   // slot offset from the cell's own within a layer
  };

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
