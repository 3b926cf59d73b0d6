#include "ndp/bricked_select.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <exception>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/worker_pool.h"
#include "compress/checksum.h"
#include "obs/audit.h"
#include "obs/trace.h"

namespace vizndp::ndp {

namespace {

const obs::Audit kCorruptBrick("corrupt_brick_total", "ndp.corrupt_brick");
const obs::Audit kBrickReread("brick_reread_total", "ndp.brick_reread");

// Decoded bytes a part holds at least: about 0.7 ms of decode plus
// classify at 1.4 GB/s, well above what waking a worker and the merge
// cost. A smaller batch stays on the calling thread.
constexpr std::uint64_t kMinPartBytes = std::uint64_t{1} << 20;

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

// A selected point with a 32-bit id, which makes a float pair 8 bytes;
// the sort and the merge are bound by the bytes they move. Ids always
// fit: ValidateHeader caps an array at kDefaultDecompressBudget (1 GiB),
// so a grid holds at most 2^28 four-byte points.
template <typename T>
struct Pair {
  std::uint32_t id;
  T value;
};

// One part's selection as (id, value) pairs in id order, ghost points
// still twice. An LSD radix sort, 8 bits a pass over the bits an id of
// the grid can use; `ascending` input (one brick's) skips it.
template <typename T>
std::vector<Pair<T>> SortById(std::int64_t point_count,
                              const std::vector<grid::PointId>& ids,
                              const std::vector<T>& values, bool ascending) {
  VIZNDP_CHECK(point_count <= (std::int64_t{1} << 32));
  const size_t n = ids.size();
  std::vector<Pair<T>> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {static_cast<std::uint32_t>(ids[i]), values[i]};
  }
  if (ascending || n == 0) return pairs;
  std::vector<Pair<T>> sorted(n);
  const int key_bits =
      std::bit_width(static_cast<std::uint32_t>(point_count - 1));
  for (int shift = 0; shift < key_bits; shift += 8) {
    std::array<size_t, 256> start{};
    for (const Pair<T>& p : pairs) ++start[(p.id >> shift) & 0xFF];
    if (start[(pairs[0].id >> shift) & 0xFF] == n) continue;  // one digit
    size_t sum = 0;
    for (size_t& s : start) sum += std::exchange(s, sum);
    for (const Pair<T>& p : pairs) sorted[start[(p.id >> shift) & 0xFF]++] = p;
    pairs.swap(sorted);
  }
  return pairs;
}

// Merges the parts' sorted pairs into one ascending selection and drops
// the ghost points that two bricks both selected; their values are the
// same stored value. Parts are few (one per core) and a part's ids come
// in long runs (its bricks' rows), so each step copies the lowest part's
// run up to the next-lowest head.
template <typename T>
void MergeParts(const std::vector<std::vector<Pair<T>>>& parts,
                std::vector<grid::PointId>& ids, std::vector<T>& values) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  ids.reserve(total);
  values.reserve(total);
  std::vector<size_t> at(parts.size(), 0);
  const auto head = [&](size_t p) { return parts[p][at[p]].id; };
  while (true) {
    size_t low = parts.size();
    for (size_t p = 0; p < parts.size(); ++p) {
      if (at[p] < parts[p].size() &&
          (low == parts.size() || head(p) < head(low))) {
        low = p;
      }
    }
    if (low == parts.size()) return;
    std::uint32_t next_head = std::numeric_limits<std::uint32_t>::max();
    for (size_t p = 0; p < parts.size(); ++p) {
      if (p != low && at[p] < parts[p].size()) {
        next_head = std::min(next_head, head(p));
      }
    }
    const std::vector<Pair<T>>& run = parts[low];
    size_t i = at[low];
    do {
      const Pair<T>& p = run[i];
      if (ids.empty() || ids.back() != p.id) {
        ids.push_back(p.id);
        values.push_back(p.value);
      }
    } while (++i < run.size() && run[i].id <= next_head);
    at[low] = i;
  }
}

// Splits the batch into parts of about equal decoded bytes, at most one
// per thread and each holding at least kMinPartBytes. Returns the part
// boundaries as batch indices: part p is [bounds[p], bounds[p + 1]).
std::vector<size_t> SplitBatch(const io::BrickGrid& bgrid,
                               std::span<const std::int64_t> batch,
                               size_t point_bytes, size_t threads) {
  std::vector<std::uint64_t> before(batch.size() + 1, 0);
  for (size_t r = 0; r < batch.size(); ++r) {
    before[r + 1] = before[r] + static_cast<std::uint64_t>(
                                    bgrid.BrickExtent(batch[r]).PointCount()) *
                                    point_bytes;
  }
  const std::uint64_t total = before.back();
  const std::uint64_t parts = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>({total / kMinPartBytes, threads,
                                  batch.size()}));
  std::vector<size_t> bounds = {0};
  for (std::uint64_t p = 1; p < parts; ++p) {
    const auto cut = std::lower_bound(before.begin(), before.end(),
                                      total * p / parts);
    const auto r = static_cast<size_t>(cut - before.begin());
    if (r > bounds.back() && r < batch.size()) bounds.push_back(r);
  }
  bounds.push_back(batch.size());
  return bounds;
}

// Decodes bricks whose stored bytes verified and classifies each slab
// while it is still in cache, into its own reused buffers: one per part,
// and one for the bricks the calling thread re-reads.
template <typename T>
struct BrickScanner {
  BrickScanner(const compress::Codec& codec, const grid::Dims& dims,
               const io::BrickGrid& bgrid, std::span<const double> isovalues)
      : codec(codec), dims(dims), bgrid(bgrid), isovalues(isovalues) {}

  const compress::Codec& codec;
  const grid::Dims& dims;
  const io::BrickGrid& bgrid;
  std::span<const double> isovalues;
  std::vector<T> slab;
  contour::ClassifyPlanes planes;
  std::vector<grid::PointId> ids;
  std::vector<T> values;
  std::int64_t bricks = 0;
  double read_seconds = 0;  // CRC checks and decodes
  double scan_seconds = 0;

  void Scan(std::int64_t b, ByteSpan stored) {
    const io::BrickGrid::Extent e = bgrid.BrickExtent(b);
    const auto t_decompress = std::chrono::steady_clock::now();
    slab.resize(static_cast<size_t>(e.PointCount()));
    try {
      codec.DecompressInto(
          stored, MutableByteSpan(reinterpret_cast<Byte*>(slab.data()),
                                  slab.size() * sizeof(T)));
    } catch (const DecodeError& err) {
      // Bytes that pass their CRC yet fail to decode are corrupt data
      // too, and the caller's recovery is the same.
      throw CorruptDataError(std::string("brick decode failed: ") +
                             err.what());
    }
    read_seconds += SecondsSince(t_decompress);

    const auto t_scan = std::chrono::steady_clock::now();
    const grid::Dims slab_dims{e.x1 - e.x0 + 1, e.y1 - e.y0 + 1,
                               e.z1 - e.z0 + 1};
    contour::SelectSlab<T>(dims, slab_dims, {e.x0, e.y0, e.z0}, slab,
                           isovalues, planes, ids, values);
    scan_seconds += SecondsSince(t_scan);
    ++bricks;
  }

  std::vector<Pair<T>> Sorted() const {
    return SortById(dims.PointCount(), ids, values, bricks <= 1);
  }
};

// What a part found in one brick that the calling thread settles.
struct BrickFault {
  bool crc_mismatch = false;
  std::exception_ptr error;  // the brick's decode failed
};

template <typename T>
contour::Selection SelectBricksT(const io::VndReader& reader,
                                 const std::string& array,
                                 const io::ArrayMeta& meta,
                                 std::span<const double> isovalues,
                                 const io::BrickGrid& bgrid,
                                 std::span<const std::int64_t> batch,
                                 BrickedSelectStats& local) {
  const grid::Dims dims = reader.header().dims;
  const size_t n = batch.size();
  local.bricks_read = static_cast<std::int64_t>(n);
  const auto entry = [&](size_t r) -> const io::BrickEntry& {
    return meta.bricks->entries[static_cast<size_t>(batch[r])];
  };

  // Every coalesced run is read here first, in brick order, so the store
  // sees the same op sequence however the parts are scheduled. Runs of
  // consecutive bricks (their blobs are contiguous by construction) are
  // one ranged read each: object-store access latency, not bandwidth,
  // dominates small-brick reads otherwise.
  std::vector<Bytes> runs;
  std::vector<ByteSpan> stored(n);
  const auto t_read = std::chrono::steady_clock::now();
  for (size_t cursor = 0; cursor < n;) {
    size_t run_end = cursor + 1;
    while (run_end < n && batch[run_end] == batch[run_end - 1] + 1) ++run_end;
    const std::uint64_t first = entry(cursor).offset;
    const io::BrickEntry& last = entry(run_end - 1);
    const std::uint64_t run_bytes = last.offset + last.stored_size - first;
    const Bytes& run =
        runs.emplace_back(reader.ReadArrayRange(array, first, run_bytes));
    local.bytes_read += run_bytes;
    for (size_t r = cursor; r < run_end; ++r) {
      stored[r] = ByteSpan(run).subspan(entry(r).offset - first,
                                        entry(r).stored_size);
    }
    cursor = run_end;
  }
  local.read_seconds += SecondsSince(t_read);

  // Each part CRC-checks, decodes, classifies and sorts its own bricks.
  // The CRC is checked *before* the decoder touches the bytes; a brick
  // that fails it, or fails to decode, is left to the calling thread.
  // Parts run under the caller's trace context, so the codec's spans
  // nest in this batch's span.
  const compress::CodecPtr codec = compress::MakeCodec(meta.codec);
  WorkerPool& pool = DefaultPool();
  const std::vector<size_t> bounds =
      SplitBatch(bgrid, batch, sizeof(T), pool.threads());
  const size_t parts = bounds.size() - 1;
  std::vector<BrickFault> faults(n);
  std::vector<std::vector<Pair<T>>> sorted(parts);
  std::vector<double> part_read(parts);
  std::vector<double> part_scan(parts);
  const obs::TraceContext trace = obs::CurrentTraceContext();
  pool.Run(parts, [&](size_t p) {
    const obs::ScopedTraceContext scope(trace);
    BrickScanner<T> scanner(*codec, dims, bgrid, isovalues);
    for (size_t r = bounds[p]; r < bounds[p + 1]; ++r) {
      const auto t_crc = std::chrono::steady_clock::now();
      const bool intact = compress::Crc32(stored[r]) == entry(r).crc32;
      scanner.read_seconds += SecondsSince(t_crc);
      if (!intact) {
        faults[r].crc_mismatch = true;
        continue;
      }
      try {
        scanner.Scan(batch[r], stored[r]);
      } catch (const CorruptDataError&) {
        faults[r].error = std::current_exception();
        break;  // the batch fails here or at an earlier brick
      }
    }
    sorted[p] = scanner.Sorted();
    part_read[p] = scanner.read_seconds;
    part_scan[p] = scanner.scan_seconds;
  });
  for (size_t p = 0; p < parts; ++p) {
    local.read_seconds += part_read[p];
    local.scan_seconds += part_scan[p];
  }
  local.parts = static_cast<std::int64_t>(parts);

  // Faults are settled here in brick order, as a serial loop meets them:
  // the first failure in brick order is the one thrown, and each CRC
  // mismatch is counted and re-read once — a transient flip heals,
  // persistent corruption throws CorruptDataError.
  BrickScanner<T> healed(*codec, dims, bgrid, isovalues);
  for (size_t r = 0; r < n; ++r) {
    if (faults[r].error) std::rethrow_exception(faults[r].error);
    if (!faults[r].crc_mismatch) continue;
    const std::int64_t b = batch[r];
    const std::string detail = "array=" + array + " brick=" + std::to_string(b);
    ++local.corrupt_bricks;
    kCorruptBrick.Record(detail);
    ++local.brick_rereads;
    kBrickReread.Record(detail);
    const auto t_reread = std::chrono::steady_clock::now();
    const Bytes reread =
        reader.ReadArrayRange(array, entry(r).offset, entry(r).stored_size);
    local.bytes_read += reread.size();
    if (compress::Crc32(reread) != entry(r).crc32) {
      throw CorruptDataError("brick CRC mismatch after re-read: " + array +
                             " brick " + std::to_string(b));
    }
    local.read_seconds += SecondsSince(t_reread);
    healed.Scan(b, reread);
  }
  if (healed.bricks > 0) sorted.push_back(healed.Sorted());
  local.read_seconds += healed.read_seconds;
  local.scan_seconds += healed.scan_seconds;

  std::vector<grid::PointId> ids;
  std::vector<T> values;
  MergeParts(sorted, ids, values);

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
    local.parts = 1;
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
