#include "ndp/bricked_select.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "compress/checksum.h"
#include "obs/audit.h"
#include "obs/trace.h"

namespace vizndp::ndp {

namespace {

const obs::Audit kQuarantineSkip("ndp_quarantine_skip_total",
                                 "ndp.quarantine_skip");
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

template <typename T>
contour::Selection SelectBricksT(const io::VndReader& reader,
                                 const std::string& array,
                                 const io::ArrayMeta& meta,
                                 std::span<const double> isovalues,
                                 const io::BrickGrid& bgrid,
                                 std::span<const std::int64_t> batch,
                                 BrickedSelectStats& local,
                                 const storage::QuarantineSet* quarantine,
                                 const std::string& quarantine_key) {
  const grid::Dims dims = reader.header().dims;

  // (id, value) pairs from every brick of the batch; ghost points
  // selected by two bricks dedup after the sort (their values are
  // identical).
  std::vector<std::pair<grid::PointId, T>> picked;
  std::vector<std::int64_t> needed(batch.begin(), batch.end());
  local.bricks_read = static_cast<std::int64_t>(needed.size());

  const compress::CodecPtr codec = compress::MakeCodec(meta.codec);
  const bool has_crc = meta.bricks->has_crc;

  // Decompress + scan one brick whose stored bytes already verified.
  auto scan_brick = [&](std::int64_t b, ByteSpan brick_bytes) {
    const io::BrickGrid::Extent e = bgrid.BrickExtent(b);
    const size_t slab_bytes = static_cast<size_t>(e.PointCount()) * sizeof(T);
    const auto t_decompress = std::chrono::steady_clock::now();
    Bytes raw;
    try {
      raw = codec->Decompress(brick_bytes, slab_bytes, slab_bytes);
    } catch (const DecodeError& err) {
      // v1 files carry no brick CRC, so corruption surfaces here
      // instead; route it into the same recovery ladder.
      throw CorruptDataError(std::string("brick decode failed: ") +
                             err.what());
    }
    if (raw.size() != slab_bytes) {
      throw CorruptDataError("brick decompressed to wrong size: " + array);
    }
    const grid::DataArray slab(array, meta.type, std::move(raw));
    local.read_seconds += SecondsSince(t_decompress);

    const auto t_scan = std::chrono::steady_clock::now();
    const grid::Dims slab_dims{e.x1 - e.x0 + 1, e.y1 - e.y0 + 1,
                               e.z1 - e.z0 + 1};
    const contour::Selection slab_selection =
        contour::SelectInterestingPoints(slab_dims, slab, isovalues);
    const auto values = slab_selection.values.template View<T>();
    for (size_t i = 0; i < slab_selection.ids.size(); ++i) {
      const auto c = slab_dims.Coords(slab_selection.ids[i]);
      picked.emplace_back(dims.Index(e.x0 + c[0], e.y0 + c[1], e.z0 + c[2]),
                          values[i]);
    }
    local.scan_seconds += SecondsSince(t_scan);
  };

  // Bricks the scrubber quarantined leave the coalesced runs: their
  // stored bytes are known bad, so reading them with their neighbors
  // would poison the run and prepay a doomed read+decompress. Each goes
  // straight to the recovery rung — one individual verified read. A
  // brick healed by a clean re-Put (which the scrubber has not yet
  // re-admitted) verifies here and serves normally.
  if (quarantine != nullptr && !quarantine_key.empty()) {
    std::vector<std::int64_t> kept;
    kept.reserve(needed.size());
    for (const std::int64_t b : needed) {
      if (!quarantine->Contains(quarantine_key, array, b)) {
        kept.push_back(b);
        continue;
      }
      ++local.quarantine_skips;
      kQuarantineSkip.Record("array=" + array + " brick=" +
                             std::to_string(b));
      const io::BrickEntry& entry =
          meta.bricks->entries[static_cast<size_t>(b)];
      const auto t_read = std::chrono::steady_clock::now();
      const Bytes stored =
          reader.ReadArrayRange(array, entry.offset, entry.stored_size);
      local.bytes_read += stored.size();
      local.read_seconds += SecondsSince(t_read);
      if (has_crc && compress::Crc32(stored) != entry.crc32) {
        throw CorruptDataError("quarantined brick still corrupt: " + array +
                               " brick " + std::to_string(b));
      }
      scan_brick(b, ByteSpan(stored));
    }
    needed.swap(kept);
  }

  size_t cursor = 0;
  while (cursor < needed.size()) {
    // Coalesce runs of consecutive bricks (their blobs are contiguous by
    // construction) into one ranged read: object-store access latency,
    // not bandwidth, dominates small-brick reads otherwise.
    size_t run_end = cursor + 1;
    while (run_end < needed.size() &&
           needed[run_end] == needed[run_end - 1] + 1) {
      ++run_end;
    }
    const io::BrickEntry& first =
        meta.bricks->entries[static_cast<size_t>(needed[cursor])];
    const io::BrickEntry& last =
        meta.bricks->entries[static_cast<size_t>(needed[run_end - 1])];
    const std::uint64_t run_bytes =
        last.offset + last.stored_size - first.offset;

    const auto t_read = std::chrono::steady_clock::now();
    const Bytes run = reader.ReadArrayRange(array, first.offset, run_bytes);
    local.read_seconds += SecondsSince(t_read);
    local.bytes_read += run_bytes;

    for (size_t r = cursor; r < run_end; ++r) {
      const std::int64_t b = needed[r];
      const io::BrickEntry& entry =
          meta.bricks->entries[static_cast<size_t>(b)];

      // Verify-then-decompress, with one recovery re-read. The brick CRC
      // (format v2) is checked *before* the decoder touches the bytes;
      // on mismatch the brick alone is fetched again — a transient flip
      // heals, persistent corruption throws CorruptDataError.
      const auto t_decompress = std::chrono::steady_clock::now();
      ByteSpan brick_bytes = ByteSpan(run).subspan(
          entry.offset - first.offset, entry.stored_size);
      Bytes reread;
      if (has_crc && compress::Crc32(brick_bytes) != entry.crc32) {
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

  std::sort(picked.begin(), picked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  picked.erase(std::unique(picked.begin(), picked.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               picked.end());

  contour::Selection out;
  out.dims = dims;
  out.total_points = dims.PointCount();
  out.ids.reserve(picked.size());
  std::vector<T> values;
  values.reserve(picked.size());
  for (const auto& [id, value] : picked) {
    out.ids.push_back(id);
    values.push_back(value);
  }
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
                                BrickedSelectStats* stats,
                                const storage::QuarantineSet* quarantine,
                                const std::string& quarantine_key) {
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
                                   batch, local, quarantine, quarantine_key);
        break;
      case grid::DataType::Float64:
        out = SelectBricksT<double>(reader, array, *meta, isovalues, plan.grid,
                                    batch, local, quarantine, quarantine_key);
        break;
      default:
        throw Error("selection requires a floating-point array");
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

contour::Selection SelectInterestingPointsBricked(
    const io::VndReader& reader, const std::string& array,
    std::span<const double> isovalues, BrickedSelectStats* stats,
    const std::vector<std::int64_t>* only_bricks,
    const storage::QuarantineSet* quarantine,
    const std::string& quarantine_key) {
  const io::ArrayMeta* meta = reader.header().Find(array);
  VIZNDP_CHECK_MSG(meta != nullptr, "no array '" + array + "' in VND file");
  const BrickPlan plan =
      PlanBricks(reader.header().dims, *meta, isovalues, only_bricks);
  return SelectBricks(reader, array, isovalues, plan, plan.bricks, stats,
                      quarantine, quarantine_key);
}

}  // namespace vizndp::ndp
