#include "contour/sparse_field.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "common/worker_pool.h"
#include "contour/mc_core.h"
#include "contour/ms_core.h"

namespace vizndp::contour {

SparseField::SparseField(grid::Dims dims, grid::DataType type)
    : dims_(dims),
      type_(type),
      values_(std::make_unique_for_overwrite<Byte[]>(
          static_cast<size_t>(dims.PointCount()) * grid::DataTypeSize(type))),
      valid_((static_cast<size_t>(dims.PointCount()) + 63) / 64 + 1, 0) {}

namespace {

// Sets the validity bits of points [start, end), one masked OR per word,
// and returns how many were not set before. std::popcount is a library
// call without -mpopcnt, so it is paid only in a word where the run
// meets bits already set: a re-scatter, or another chunk's ghost points.
std::int64_t SetRunBits(std::uint64_t* valid, std::int64_t start,
                        std::int64_t end) {
  const size_t first = static_cast<size_t>(start >> 6);
  const size_t last = static_cast<size_t>((end - 1) >> 6);
  std::int64_t seen = 0;
  for (size_t w = first; w <= last; ++w) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == first) mask <<= static_cast<unsigned>(start & 63);
    if (w == last) mask &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    const std::uint64_t word = valid[w];
    if ((word & mask) != 0) seen += std::popcount(word & mask);
    valid[w] = word | mask;
  }
  return end - start - seen;
}

// The 4 KiB pages of the value backing that `run` writes and no earlier
// run of an ascending list did; `last` is the last page written so far.
std::uint64_t NewPages(const PointRun& run, size_t elem, std::int64_t& last) {
  const auto bytes = static_cast<std::int64_t>(elem);
  const std::int64_t first = std::max(run.start * bytes / 4096, last + 1);
  const std::int64_t end = ((run.start + run.length) * bytes - 1) / 4096;
  last = end;
  return end >= first ? static_cast<std::uint64_t>(end - first + 1) : 0;
}

}  // namespace

void SparseField::Scatter(std::span<const PointRun> runs, grid::DataType type,
                          ByteSpan values) {
  VIZNDP_CHECK_MSG(type == type_, "scatter value type mismatch");
  // Every check before the first write, so a rejected call leaves the
  // field as it was.
  const std::int64_t npoints = dims_.PointCount();
  std::int64_t end = 0;
  std::uint64_t points = 0;
  for (const PointRun& run : runs) {
    VIZNDP_CHECK_MSG(run.length > 0 && run.start >= end &&
                         run.length <= npoints - run.start,
                     "scatter runs must be ascending, disjoint and in range");
    end = run.start + run.length;
    points += static_cast<std::uint64_t>(run.length);
  }
  const size_t elem = grid::DataTypeSize(type_);
  VIZNDP_CHECK_MSG(values.size() == points * elem,
                   "scatter value block does not match its runs");

  const std::vector<size_t> bounds =
      detail::PartBounds(runs, elem, DefaultPool().threads());
  const size_t parts = bounds.size() - 1;
  // Each part's first value, and the points it newly validates.
  std::vector<size_t> offset(parts);
  std::vector<std::int64_t> added(parts);
  for (size_t p = 1, r = 0, at = 0; p < parts; ++p) {
    for (; r < bounds[p]; ++r) at += static_cast<size_t>(runs[r].length);
    offset[p] = at;
  }
  const auto part = [&](size_t p) {
    const Byte* from = values.data() + offset[p] * elem;
    std::int64_t n = 0;
    for (size_t r = bounds[p]; r < bounds[p + 1]; ++r) {
      const PointRun& run = runs[r];
      n += SetRunBits(valid_.data(), run.start, run.start + run.length);
      const size_t bytes = static_cast<size_t>(run.length) * elem;
      std::memcpy(values_.get() + static_cast<size_t>(run.start) * elem, from,
                  bytes);
      from += bytes;
    }
    added[p] = n;
  };
  if (parts == 1) {
    part(0);
  } else {
    DefaultPool().Run(parts, part);
  }
  for (const std::int64_t n : added) valid_count_ += n;
}

void SparseField::Scatter(std::span<const grid::PointId> ids,
                          const grid::DataArray& values) {
  VIZNDP_CHECK_MSG(values.type() == type_, "scatter value type mismatch");
  VIZNDP_CHECK_MSG(static_cast<std::int64_t>(ids.size()) == values.size(),
                   "ids/values length mismatch");
  const size_t elem = grid::DataTypeSize(type_);
  std::vector<PointRun> runs;
  size_t first = 0;  // the batch's first id
  const auto flush = [&](size_t next) {
    Scatter(runs, type_,
            values.raw().subspan(first * elem, (next - first) * elem));
    runs.clear();
    first = next;
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!runs.empty()) {
      const grid::PointId end = runs.back().start + runs.back().length;
      if (ids[i] == end) {
        ++runs.back().length;
        continue;
      }
      if (ids[i] < end) flush(i);
    }
    runs.push_back({ids[i], 1});
  }
  flush(ids.size());
}

SparseField SparseField::FromSelection(const Selection& selection,
                                       grid::DataType type) {
  SparseField field(selection.dims, type);
  field.Scatter(selection.ids, selection.values);
  return field;
}

std::vector<std::int64_t> SparseField::CompleteCells() const {
  // Cell (i, j, k) is complete when the bits of points i and i+1 are set
  // in each of its corner rows (j, k), (j+1, k), (j, k+1) and (j+1, k+1).
  // So 64 cells of a row come from a few word ANDs of the four rows' bit
  // planes at offsets i and i+1, and the set bits, read in order, are the
  // complete cells in cell-scan order.
  const bool flat = dims_.Is2D();
  const std::int64_t nx = dims_.nx;
  const std::int64_t cx = nx - 1;
  const std::int64_t cy = dims_.ny - 1;
  const std::int64_t cz = flat ? 1 : dims_.nz - 1;
  VIZNDP_CHECK_MSG(cx > 0 && cy > 0 && cz > 0,
                   "sparse contour needs at least a 2x2 grid");
  const std::int64_t slab = flat ? 0 : nx * dims_.ny;
  // The 64 validity bits from point id `b` on.
  const auto bits = [&](std::int64_t b) {
    const size_t w = static_cast<size_t>(b >> 6);
    const unsigned s = static_cast<unsigned>(b & 63);
    const std::uint64_t low = valid_[w] >> s;
    return s == 0 ? low : low | (valid_[w + 1] << (64 - s));
  };

  std::vector<std::int64_t> complete;
  complete.reserve(static_cast<size_t>(valid_count_));
  for (std::int64_t k = 0; k < cz; ++k) {
    for (std::int64_t j = 0; j < cy; ++j) {
      const std::int64_t row = nx * (j + dims_.ny * k);
      // Most rows of a selection are empty: test the words under the
      // first plane before any shifts.
      std::uint64_t any = 0;
      for (size_t w = static_cast<size_t>(row >> 6);
           w <= static_cast<size_t>((row + cx - 1) >> 6); ++w) {
        any |= valid_[w];
      }
      if (any == 0) continue;
      const std::int64_t cell_row = cx * (j + cy * k);
      for (std::int64_t i = 0; i < cx; i += 64) {
        std::uint64_t m = bits(row + i);
        if (m == 0) continue;
        m &= bits(row + i + 1) & bits(row + nx + i) & bits(row + nx + i + 1);
        if (!flat) {
          m &= bits(row + slab + i) & bits(row + slab + i + 1) &
               bits(row + slab + nx + i) & bits(row + slab + nx + i + 1);
        }
        if (cx - i < 64) m &= (std::uint64_t{1} << (cx - i)) - 1;
        for (; m != 0; m &= m - 1) {
          complete.push_back(cell_row + i + std::countr_zero(m));
        }
      }
    }
  }
  return complete;
}

namespace {

// The 3D contour's passes over the complete-cell list. A crossed edge's
// vertex is made by the lowest-index complete cell that touches it, the
// cell where the serial scan-order walk first meets it; completeness,
// not geometry, decides, since on an arbitrary scatter a mixed cell can
// be incomplete. The cells before (i, j, k) that can share one of its
// edges are these 9 lower neighbours, in ascending cell index.
constexpr std::array<std::array<int, 3>, 9> kLowerNeighbours = {{
    {0, -1, -1}, {-1, 0, -1}, {0, 0, -1}, {1, 0, -1}, {0, 1, -1},  // k-1
    {-1, -1, 0}, {0, -1, 0}, {1, -1, 0},                          // j-1
    {-1, 0, 0},
}};

struct OwnerTables {
  // Bit n: lower neighbour n shares the edge. The first complete one in
  // ascending n owns it.
  std::array<std::uint16_t, 12> sharers{};
  // Lower neighbour n's own number for the cell's edge e.
  std::array<std::array<std::uint8_t, 12>, 9> their_edge{};
  // The cell's edges some neighbour of the complete set m (bit n per
  // neighbour) shares, and so owns before the cell does.
  std::array<std::uint16_t, 512> taken{};
  // Edges shared with neighbours 0-4 (slab k-1), 5-7 (row j-1 of slab
  // k) and 8 (i-1), so a pass looks up only the rows it needs.
  std::uint16_t slab_below = 0;
  std::uint16_t row_below = 0;
  std::uint16_t left = 0;
  // Set bits of a 12-bit edge mask: std::popcount is a library call
  // without -mpopcnt.
  std::array<std::uint8_t, 4096> bit_count{};
  std::array<std::uint8_t, 256> triangles{};  // per case
};

OwnerTables BuildOwnerTables() {
  OwnerTables t;
  const auto corner_at = [](int x, int y, int z) {
    for (size_t c = 0; c < 8; ++c) {
      const auto& off = kCornerOffsets[c];
      if (off[0] == x && off[1] == y && off[2] == z) {
        return static_cast<int>(c);
      }
    }
    return -1;
  };
  for (size_t n = 0; n < 9; ++n) {
    const auto& d = kLowerNeighbours[n];
    for (size_t e = 0; e < 12; ++e) {
      const auto& a = kCornerOffsets[detail::kEdgeEnds[e].lo];
      const auto& b = kCornerOffsets[detail::kEdgeEnds[e].hi];
      const int lo = corner_at(a[0] - d[0], a[1] - d[1], a[2] - d[2]);
      const int hi = corner_at(b[0] - d[0], b[1] - d[1], b[2] - d[2]);
      for (size_t f = 0; f < 12; ++f) {
        if (detail::kEdgeEnds[f].lo == lo && detail::kEdgeEnds[f].hi == hi) {
          t.sharers[e] |= static_cast<std::uint16_t>(1u << n);
          t.their_edge[n][e] = static_cast<std::uint8_t>(f);
        }
      }
    }
  }
  for (size_t e = 0; e < 12; ++e) {
    const std::uint16_t bit = static_cast<std::uint16_t>(1u << e);
    if (t.sharers[e] & 0x1f) t.slab_below |= bit;
    if (t.sharers[e] & 0xe0) t.row_below |= bit;
    if (t.sharers[e] & 0x100) t.left |= bit;
    for (unsigned m = 0; m < 512; ++m) {
      if (m & t.sharers[e]) t.taken[m] |= bit;
    }
  }
  for (unsigned m = 0; m < 4096; ++m) {
    t.bit_count[m] = static_cast<std::uint8_t>(std::popcount(m));
  }
  for (size_t c = 0; c < 256; ++c) {
    int n = 0;
    while (kMcTriTable[c][static_cast<size_t>(n)] != -1) n += 3;
    t.triangles[c] = static_cast<std::uint8_t>(n / 3);
  }
  return t;
}

const OwnerTables& Owners() {
  static const OwnerTables tables = BuildOwnerTables();
  return tables;
}

// One range's walk over the complete-cell list, cell by cell in list
// order: each cell's (i, j, k) from a row tracker, and its complete lower
// neighbours from one cursor per neighbour row plus the previous list
// entry. A cursor's target is the cell index minus a constant, so it
// only moves forward, and a range pays for it once.
class CellWalk {
 public:
  CellWalk(const grid::Dims& dims, std::span<const std::int64_t> cells,
           size_t begin)
      : cells_(cells),
        nx_(dims.nx),
        ny_(dims.ny),
        cx_(dims.nx - 1),
        cy_(dims.ny - 1),
        slab_(cx_ * cy_) {
    if (begin == cells.size()) return;
    const std::int64_t c = cells[begin];
    const auto at = [&](std::int64_t target) {
      return static_cast<size_t>(
          std::lower_bound(cells.begin(), cells.begin() + begin, target) -
          cells.begin());
    };
    slab_row_below_ = at(c - slab_ - cx_);
    slab_row_ = at(c - slab_ - 1);
    slab_row_above_ = at(c + cx_ - slab_);
    row_below_ = at(c - cx_ - 1);
  }

  // Moves to the cell at list position `p`, after the previous one.
  void MoveTo(size_t p) {
    p_ = p;
    c_ = cells_[p];
    if (c_ >= row_end_) {  // a new row: the walk's only divisions
      const std::int64_t row = c_ / cx_;
      j_ = row % cy_;
      k_ = row / cy_;
      row_start_ = row * cx_;
      row_end_ = row_start_ + cx_;
      point_row_ = nx_ * (j_ + ny_ * k_);
    }
    i_ = c_ - row_start_;
  }

  std::int64_t i() const { return i_; }
  std::int64_t j() const { return j_; }
  std::int64_t k() const { return k_; }
  grid::PointId point() const { return point_row_ + i_; }

  // The complete lower neighbours among those that share an edge in
  // `edges`: bit n of the result per neighbour, at list position pos[n].
  unsigned Lower(std::uint16_t edges, const OwnerTables& t,
                 std::array<size_t, 9>& pos) {
    unsigned found = 0;
    if (k_ > 0 && (edges & t.slab_below)) {
      const std::int64_t below = c_ - slab_;
      if (j_ > 0) Probe(slab_row_below_, below - cx_, 0, found, pos);
      ProbeRow(slab_row_, below, 1, found, pos);
      if (j_ + 1 < cy_) Probe(slab_row_above_, below + cx_, 4, found, pos);
    }
    if (j_ > 0 && (edges & t.row_below)) {
      ProbeRow(row_below_, c_ - cx_, 5, found, pos);
    }
    if (i_ > 0 && (edges & t.left) && p_ > 0 && cells_[p_ - 1] == c_ - 1) {
      found |= 1u << 8;
      pos[8] = p_ - 1;
    }
    return found;
  }

 private:
  // Every target is below the current cell, which is in the list, so a
  // cursor never passes it.
  size_t Seek(size_t& cursor, std::int64_t target) const {
    while (cells_[cursor] < target) ++cursor;
    return cursor;
  }

  void Probe(size_t& cursor, std::int64_t target, unsigned n,
             unsigned& found, std::array<size_t, 9>& pos) const {
    const size_t x = Seek(cursor, target);
    if (cells_[x] == target) {
      found |= 1u << n;
      pos[n] = x;
    }
  }

  // Neighbours n .. n+2 at i-1, i and i+1 of the row holding `centre`.
  void ProbeRow(size_t& cursor, std::int64_t centre, unsigned n,
                unsigned& found, std::array<size_t, 9>& pos) const {
    const std::int64_t first = i_ > 0 ? centre - 1 : centre;
    const std::int64_t last = i_ + 1 < cx_ ? centre + 1 : centre;
    size_t x = Seek(cursor, first);
    for (std::int64_t target = first; target <= last; ++target) {
      if (cells_[x] == target) {
        const unsigned m = n + static_cast<unsigned>(target - centre + 1);
        found |= 1u << m;
        pos[m] = x++;
      }
    }
  }

  std::span<const std::int64_t> cells_;
  std::int64_t nx_, ny_, cx_, cy_, slab_;
  size_t p_ = 0;
  std::int64_t c_ = 0;
  std::int64_t i_ = 0, j_ = 0, k_ = 0;
  std::int64_t row_start_ = 0, row_end_ = 0;
  grid::PointId point_row_ = 0;
  // Cursors into rows (j-1, k-1), (j, k-1), (j+1, k-1) and (j-1, k).
  size_t slab_row_below_ = 0, slab_row_ = 0, slab_row_above_ = 0;
  size_t row_below_ = 0;
};

// The count and emit passes of one Contour call, over the ranges of the
// complete-cell list that `bounds` sets. Every buffer is sized on the
// calling thread; the passes share only read-only arrays, and each range
// writes its own cells' state and its own output slots.
template <typename T, typename Geo>
class CellPasses {
 public:
  CellPasses(const grid::Dims& dims, const Geo& geo, const T* values,
             std::span<const std::int64_t> cells,
             std::span<const size_t> bounds)
      : dims_(dims),
        geo_(geo),
        values_(values),
        cells_(cells),
        bounds_(bounds),
        delta_(detail::CornerDeltas(dims)),
        tables_(Owners()),
        case_(std::make_unique_for_overwrite<std::uint8_t[]>(cells.size())),
        owned_(std::make_unique_for_overwrite<std::uint16_t[]>(cells.size())),
        first_vertex_(
            std::make_unique_for_overwrite<std::uint32_t[]>(cells.size())),
        first_triangle_(
            std::make_unique_for_overwrite<std::uint32_t[]>(cells.size())),
        range_vertex_(Ranges()),
        range_triangle_(Ranges()) {}

  // Appends the contour at `iso` to `out`. Vertex ids continue from the
  // points `out` already holds.
  void Contour(double iso, PolyData& out) {
    iso_ = iso;
    DefaultPool().Run(Ranges(), [&](size_t r) { Count(r); });
    // Exclusive prefix sums over the ranges; within a range, Count left
    // each cell's sums from the range's start.
    const size_t point0 = out.PointCount();
    size_t vertices = point0;
    size_t triangles = 0;
    for (size_t r = 0; r < Ranges(); ++r) {
      const std::uint32_t range_vertices = range_vertex_[r];
      const std::uint32_t range_triangles = range_triangle_[r];
      range_vertex_[r] = static_cast<std::uint32_t>(vertices);
      range_triangle_[r] = static_cast<std::uint32_t>(triangles);
      vertices += range_vertices;
      triangles += range_triangles;
    }
    tail_ = out.Extend(vertices - point0, triangles);
    point0_ = static_cast<PolyData::Index>(point0);
    DefaultPool().Run(Ranges(), [&](size_t r) { Emit(r); });
  }

 private:
  size_t Ranges() const { return bounds_.size() - 1; }

  // Each cell's case, owned edges and counts. Leaves the range's totals
  // in range_vertex_ and range_triangle_.
  void Count(size_t r) {
    const OwnerTables& t = tables_;
    CellWalk walk(dims_, cells_, bounds_[r]);
    std::array<size_t, 9> pos{};
    std::uint32_t vertices = 0;
    std::uint32_t triangles = 0;
    for (size_t p = bounds_[r]; p < bounds_[r + 1]; ++p) {
      walk.MoveTo(p);
      T corner[8];
      const unsigned cs =
          detail::LoadCell(values_, walk.point(), delta_, iso_, corner);
      const std::uint16_t crossed = kMcEdgeTable[cs];
      std::uint16_t owned = crossed;
      if (crossed & (t.slab_below | t.row_below | t.left)) {
        owned &= static_cast<std::uint16_t>(
            ~t.taken[walk.Lower(crossed, t, pos)]);
      }
      case_[p] = static_cast<std::uint8_t>(cs);
      owned_[p] = owned;
      first_vertex_[p] = vertices;
      first_triangle_[p] = triangles;
      vertices += t.bit_count[owned];
      triangles += t.triangles[cs];
    }
    range_vertex_[r] = vertices;
    range_triangle_[r] = triangles;
  }

  // The id of the vertex the cell at list position q makes first.
  PolyData::Index FirstVertex(size_t r, size_t q) const {
    if (q < bounds_[r]) {  // the owner is in an earlier range
      r = static_cast<size_t>(
              std::upper_bound(bounds_.begin(), bounds_.end(), q) -
              bounds_.begin()) - 1;
    }
    return range_vertex_[r] + first_vertex_[q];
  }

  // Writes each cell's owned vertices and its triangles in place.
  void Emit(size_t r) {
    const OwnerTables& t = tables_;
    CellWalk walk(dims_, cells_, bounds_[r]);
    std::array<size_t, 9> pos{};
    for (size_t p = bounds_[r]; p < bounds_[r + 1]; ++p) {
      const unsigned cs = case_[p];
      const std::uint16_t crossed = kMcEdgeTable[cs];
      if (crossed == 0) continue;
      walk.MoveTo(p);
      const std::uint16_t owned = owned_[p];
      // Set for every crossed edge, which are all that the case's
      // triangles name.
      PolyData::Index edge_point[12];
      // Owned vertices in ascending edge order, as the serial walk
      // creates them.
      if (owned != 0) {
        T corner[8];
        for (size_t c = 0; c < 8; ++c) {
          corner[c] = values_[walk.point() + delta_[c]];
        }
        PolyData::Index id = range_vertex_[r] + first_vertex_[p];
        for (unsigned m = owned; m != 0; m &= m - 1) {
          const int e = std::countr_zero(m);
          tail_.points[id - point0_] = detail::EdgeVertex(
              geo_, iso_, walk.i(), walk.j(), walk.k(), corner,
              detail::kEdgeEnds[static_cast<size_t>(e)]);
          edge_point[e] = id++;
        }
      }
      // Every other crossed edge takes its owner's vertex: the owner's
      // first id plus the edge's rank among the owner's owned edges.
      const std::uint16_t foreign =
          crossed & static_cast<std::uint16_t>(~owned);
      if (foreign != 0) {
        const unsigned found = walk.Lower(foreign, t, pos);
        for (unsigned m = foreign; m != 0; m &= m - 1) {
          const size_t e = static_cast<size_t>(std::countr_zero(m));
          const size_t n =
              static_cast<size_t>(std::countr_zero(found & t.sharers[e]));
          const size_t q = pos[n];
          const unsigned below = (1u << t.their_edge[n][e]) - 1;
          edge_point[e] = FirstVertex(r, q) + t.bit_count[owned_[q] & below];
        }
      }
      std::uint32_t slot = range_triangle_[r] + first_triangle_[p];
      const auto& tris = kMcTriTable[cs];
      for (size_t v = 0; tris[v] != -1; v += 3) {
        tail_.triangles[slot++] = {edge_point[tris[v]],
                                   edge_point[tris[v + 1]],
                                   edge_point[tris[v + 2]]};
      }
    }
  }

  const grid::Dims& dims_;
  const Geo& geo_;
  const T* values_;
  std::span<const std::int64_t> cells_;
  std::span<const size_t> bounds_;
  std::array<grid::PointId, 8> delta_;
  const OwnerTables& tables_;
  double iso_ = 0.0;
  // Per complete cell, 11 B, each entry written by Count before it is
  // read. The first vertex and triangle count from the range's first.
  std::unique_ptr<std::uint8_t[]> case_;
  std::unique_ptr<std::uint16_t[]> owned_;
  std::unique_ptr<std::uint32_t[]> first_vertex_;
  std::unique_ptr<std::uint32_t[]> first_triangle_;
  // Per range: after Count its totals, then its first vertex id and its
  // first triangle slot in the tail.
  std::vector<std::uint32_t> range_vertex_;
  std::vector<std::uint32_t> range_triangle_;
  PolyData::Tail tail_;
  PolyData::Index point0_ = 0;  // the id of the tail's first point
};

}  // namespace

template <typename T, typename Geo>
PolyData SparseField::ContourT(const Geo& geometry,
                               std::span<const double> isovalues,
                               std::span<const size_t> bounds) const {
  PolyData out;
  const T* values = reinterpret_cast<const T*>(values_.get());
  const std::vector<std::int64_t> cells = CompleteCells();

  if (dims_.Is2D()) {
    const std::int64_t cx = dims_.nx - 1;
    detail::SquareCellProcessor<T, Geo> processor(dims_, geometry, values, out);
    for (const double iso : isovalues) {
      processor.BeginIsovalue(iso);
      for (const std::int64_t cell : cells) {
        processor.ProcessCell(cell % cx, cell / cx);
      }
    }
    return out;
  }
  std::vector<size_t> rule;
  if (bounds.empty()) {
    rule = detail::RangeBounds(cells.size(), DefaultPool().threads());
    bounds = rule;
  }
  VIZNDP_CHECK_MSG(bounds.size() >= 2 && bounds.front() == 0 &&
                       bounds.back() == cells.size() &&
                       std::is_sorted(bounds.begin(), bounds.end()),
                   "contour ranges must split the complete cells");
  CellPasses<T, Geo> passes(dims_, geometry, values, cells, bounds);
  for (const double iso : isovalues) passes.Contour(iso, out);
  return out;
}

template <typename Geo>
PolyData SparseField::ContourIn(const Geo& geometry,
                                std::span<const double> isovalues,
                                std::span<const size_t> bounds) const {
  switch (type_) {
    case grid::DataType::Float32:
      return ContourT<float>(geometry, isovalues, bounds);
    case grid::DataType::Float64:
      return ContourT<double>(geometry, isovalues, bounds);
    default:
      throw Error("sparse contour requires a floating-point field");
  }
}

PolyData SparseField::Contour(const grid::UniformGeometry& geometry,
                              std::span<const double> isovalues) const {
  return ContourIn(geometry, isovalues, {});
}

PolyData SparseField::Contour(const grid::RectilinearGeometry& geometry,
                              std::span<const double> isovalues) const {
  geometry.Validate(dims_);
  return ContourIn(geometry, isovalues, {});
}

namespace detail {

std::vector<size_t> PartBounds(std::span<const PointRun> runs, size_t elem,
                               size_t threads) {
  std::uint64_t points = 0;
  std::uint64_t pages = 0;
  std::int64_t last = -1;
  for (const PointRun& run : runs) {
    points += static_cast<std::uint64_t>(run.length);
    pages += NewPages(run, elem, last);
  }
  const size_t parts = std::clamp<size_t>(points * elem / kMinPartBytes, 1,
                                          std::max<size_t>(threads, 1));
  std::vector<size_t> bounds{0};
  size_t r = 0;
  std::uint64_t before = 0;  // pages first written by runs [0, r)
  last = -1;
  const auto take = [&] { before += NewPages(runs[r++], elem, last); };
  for (size_t p = 1; p < parts; ++p) {
    const std::uint64_t target = pages * p / parts;
    while (r < runs.size() && before < target) take();
    // Two runs that share a word stay in one part.
    while (r > 0 && r < runs.size() &&
           (runs[r - 1].start + runs[r - 1].length - 1) >> 6 ==
               runs[r].start >> 6) {
      take();
    }
    if (r > bounds.back() && r < runs.size()) bounds.push_back(r);
  }
  bounds.push_back(runs.size());
  return bounds;
}

std::vector<size_t> RangeBounds(size_t cells, size_t threads) {
  const size_t ranges = std::clamp<size_t>(cells / kMinRangeCells, 1,
                                           std::max<size_t>(threads, 1));
  std::vector<size_t> bounds(ranges + 1);
  for (size_t r = 0; r <= ranges; ++r) bounds[r] = cells * r / ranges;
  return bounds;
}

PolyData ContourRanges(const SparseField& field,
                       const grid::UniformGeometry& geometry,
                       std::span<const double> isovalues,
                       std::span<const size_t> bounds) {
  return field.ContourIn(geometry, isovalues, bounds);
}

PolyData ContourRanges(const SparseField& field,
                       const grid::RectilinearGeometry& geometry,
                       std::span<const double> isovalues,
                       std::span<const size_t> bounds) {
  geometry.Validate(field.dims());
  return field.ContourIn(geometry, isovalues, bounds);
}

}  // namespace detail

}  // namespace vizndp::contour
