#include "ndp/bricked_select.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <utility>

#include "common/error.h"
#include "compress/checksum.h"
#include "obs/audit.h"
#include "obs/trace.h"

namespace vizndp::ndp {

namespace {

const obs::Audit kCorruptBrick("corrupt_brick_total", "ndp.corrupt_brick");
const obs::Audit kBrickReread("brick_reread_total", "ndp.brick_reread");

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool Straddles(const io::BrickEntry& brick,
               std::span<const double> isovalues) {
  return std::any_of(isovalues.begin(), isovalues.end(), [&](double iso) {
    return brick.min < iso && brick.max >= iso;
  });
}

// Sorts the batch's (id, value) pairs by id and drops the ghost points
// that two bricks both selected; their values are the same stored value.
// An LSD radix sort, 8 bits a pass over the bits an id of the grid can
// use, on 32-bit keys, which make a float pair 8 bytes. They always fit:
// ValidateHeader caps an array at kDefaultDecompressBudget (1 GiB), so
// a grid holds at most 2^28 four-byte points.
template <typename T>
void DropGhostDuplicates(std::int64_t point_count,
                         std::vector<grid::PointId>& ids,
                         std::vector<T>& values) {
  if (ids.empty()) return;
  VIZNDP_CHECK(point_count <= (std::int64_t{1} << 32));
  struct Pair {
    std::uint32_t id;
    T value;
  };
  const size_t n = ids.size();
  std::vector<Pair> pairs(n);
  std::vector<Pair> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {static_cast<std::uint32_t>(ids[i]), values[i]};
  }
  const int key_bits =
      std::bit_width(static_cast<std::uint32_t>(point_count - 1));
  for (int shift = 0; shift < key_bits; shift += 8) {
    std::array<size_t, 256> start{};
    for (const Pair& p : pairs) ++start[(p.id >> shift) & 0xFF];
    if (start[(pairs[0].id >> shift) & 0xFF] == n) continue;  // one digit
    size_t sum = 0;
    for (size_t& s : start) sum += std::exchange(s, sum);
    for (const Pair& p : pairs) sorted[start[(p.id >> shift) & 0xFF]++] = p;
    pairs.swap(sorted);
  }
  ids.clear();
  values.clear();
  for (const Pair& p : pairs) {
    const grid::PointId id = p.id;
    if (!ids.empty() && ids.back() == id) continue;
    ids.push_back(id);
    values.push_back(p.value);
  }
}

template <typename T>
contour::Selection SelectBricksT(const io::VndReader& reader,
                                 const std::string& array,
                                 const io::ArrayMeta& meta,
                                 std::span<const double> isovalues,
                                 const io::BrickGrid& bgrid,
                                 std::span<const std::int64_t> batch,
                                 BrickedSelectStats& local) {
  const grid::Dims dims = reader.header().dims;

  // The selected (id, value) pairs of every brick of the batch. Each
  // brick decodes into the one slab buffer, which the classify reads
  // while it is still in cache; the buffers live for this call only.
  std::vector<grid::PointId> ids;
  std::vector<T> values;
  std::vector<T> slab;
  contour::ClassifyPlanes planes;
  local.bricks_read = static_cast<std::int64_t>(batch.size());

  const compress::CodecPtr codec = compress::MakeCodec(meta.codec);

  // Decompress + scan one brick whose stored bytes already verified.
  auto scan_brick = [&](std::int64_t b, ByteSpan brick_bytes) {
    const io::BrickGrid::Extent e = bgrid.BrickExtent(b);
    const auto t_decompress = std::chrono::steady_clock::now();
    slab.resize(static_cast<size_t>(e.PointCount()));
    try {
      codec->DecompressInto(
          brick_bytes, MutableByteSpan(reinterpret_cast<Byte*>(slab.data()),
                                       slab.size() * sizeof(T)));
    } catch (const DecodeError& err) {
      // Bytes that pass their CRC yet fail to decode are corrupt data
      // too, and the caller's recovery is the same.
      throw CorruptDataError(std::string("brick decode failed: ") +
                             err.what());
    }
    local.read_seconds += SecondsSince(t_decompress);

    const auto t_scan = std::chrono::steady_clock::now();
    const grid::Dims slab_dims{e.x1 - e.x0 + 1, e.y1 - e.y0 + 1,
                               e.z1 - e.z0 + 1};
    contour::SelectSlab<T>(dims, slab_dims, {e.x0, e.y0, e.z0}, slab,
                           isovalues, planes, ids, values);
    local.scan_seconds += SecondsSince(t_scan);
  };

  size_t cursor = 0;
  while (cursor < batch.size()) {
    // Coalesce runs of consecutive bricks (their blobs are contiguous by
    // construction) into one ranged read: object-store access latency,
    // not bandwidth, dominates small-brick reads otherwise.
    size_t run_end = cursor + 1;
    while (run_end < batch.size() &&
           batch[run_end] == batch[run_end - 1] + 1) {
      ++run_end;
    }
    const io::BrickEntry& first =
        meta.bricks->entries[static_cast<size_t>(batch[cursor])];
    const io::BrickEntry& last =
        meta.bricks->entries[static_cast<size_t>(batch[run_end - 1])];
    const std::uint64_t run_bytes =
        last.offset + last.stored_size - first.offset;

    const auto t_read = std::chrono::steady_clock::now();
    const Bytes run = reader.ReadArrayRange(array, first.offset, run_bytes);
    local.read_seconds += SecondsSince(t_read);
    local.bytes_read += run_bytes;

    for (size_t r = cursor; r < run_end; ++r) {
      const std::int64_t b = batch[r];
      const io::BrickEntry& entry =
          meta.bricks->entries[static_cast<size_t>(b)];

      // Verify-then-decompress, with one recovery re-read. The brick CRC
      // is checked *before* the decoder touches the bytes; on mismatch
      // the brick alone is fetched again — a transient flip heals,
      // persistent corruption throws CorruptDataError.
      const auto t_decompress = std::chrono::steady_clock::now();
      ByteSpan brick_bytes = ByteSpan(run).subspan(
          entry.offset - first.offset, entry.stored_size);
      Bytes reread;
      if (compress::Crc32(brick_bytes) != entry.crc32) {
        const std::string detail =
            "array=" + array + " brick=" + std::to_string(b);
        ++local.corrupt_bricks;
        kCorruptBrick.Record(detail);
        ++local.brick_rereads;
        kBrickReread.Record(detail);
        reread = reader.ReadArrayRange(array, entry.offset, entry.stored_size);
        local.bytes_read += reread.size();
        if (compress::Crc32(reread) != entry.crc32) {
          throw CorruptDataError("brick CRC mismatch after re-read: " + array +
                                 " brick " + std::to_string(b));
        }
        brick_bytes = ByteSpan(reread);
      }
      local.read_seconds += SecondsSince(t_decompress);
      scan_brick(b, brick_bytes);
    }
    cursor = run_end;
  }

  // One brick's ids are already ascending and unique.
  if (batch.size() > 1) DropGhostDuplicates(dims.PointCount(), ids, values);

  contour::Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  out.ids = std::move(ids);
  out.values = grid::DataArray::FromVector(array, std::move(values));
  return out;
}

}  // namespace

std::uint64_t BrickPlan::SlabBytes(size_t begin, size_t end,
                                   grid::DataType type) const {
  std::uint64_t points = 0;
  for (size_t i = begin; i < end; ++i) {
    points += static_cast<std::uint64_t>(grid.BrickExtent(bricks[i]).PointCount());
  }
  return points * grid::DataTypeSize(type);
}

BrickPlan PlanBricks(const grid::Dims& dims, const io::ArrayMeta& meta,
                     std::span<const double> isovalues,
                     const std::vector<std::int64_t>* only_bricks,
                     std::int64_t resume_after) {
  // An unbricked array's one brick spans the longest axis, so its slab
  // is the whole grid.
  const auto edge =
      meta.bricks.has_value()
          ? meta.bricks->edge
          : static_cast<std::int32_t>(std::max({dims.nx, dims.ny, dims.nz}));
  BrickPlan plan{io::BrickGrid(dims, edge), {}};
  size_t restrict_cursor = 0;  // walks the sorted restriction
  for (std::int64_t b = std::max<std::int64_t>(0, resume_after + 1);
       b < plan.grid.BrickCount(); ++b) {
    if (only_bricks != nullptr) {
      while (restrict_cursor < only_bricks->size() &&
             (*only_bricks)[restrict_cursor] < b) {
        ++restrict_cursor;
      }
      if (restrict_cursor >= only_bricks->size()) break;
      if ((*only_bricks)[restrict_cursor] != b) continue;
    }
    if (!meta.bricks.has_value() ||
        Straddles(meta.bricks->entries[static_cast<size_t>(b)], isovalues)) {
      plan.bricks.push_back(b);
    }
  }
  return plan;
}

contour::Selection SelectBricks(const io::VndReader& reader,
                                const std::string& array,
                                std::span<const double> isovalues,
                                const BrickPlan& plan,
                                std::span<const std::int64_t> batch,
                                BrickedSelectStats* stats) {
  const io::ArrayMeta* meta = reader.header().Find(array);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + array + "' in VND file");
  BrickedSelectStats local;
  local.bricks_total = plan.bricks_total();
  contour::Selection out;
  if (!meta->bricks.has_value()) {
    VIZNDP_CHECK_MSG(batch.size() == 1 && batch.front() == 0,
                     "an unbricked array has exactly one brick");
    const auto t_read = std::chrono::steady_clock::now();
    const grid::DataArray data = reader.ReadArray(array);
    local.read_seconds = SecondsSince(t_read);
    local.bytes_read = meta->stored_size;
    local.bricks_read = 1;
    obs::Span scan_span("ndp.select.scan");
    out = contour::SelectInterestingPoints(reader.header().dims, data,
                                           isovalues);
    scan_span.End();
    local.scan_seconds = scan_span.ElapsedSeconds();
  } else {
    switch (meta->type) {
      case grid::DataType::Float32:
        out = SelectBricksT<float>(reader, array, *meta, isovalues, plan.grid,
                                   batch, local);
        break;
      case grid::DataType::Float64:
        out = SelectBricksT<double>(reader, array, *meta, isovalues, plan.grid,
                                    batch, local);
        break;
      default:
        throw Error("selection requires a floating-point array");
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace vizndp::ndp
