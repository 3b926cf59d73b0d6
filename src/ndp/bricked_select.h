// Brick-aware pre-filter: uses the VND brick index (per-brick min/max)
// to fetch and decompress only the bricks that can contain isovalue
// crossings. This attacks the bound the paper's conclusion calls out —
// "this speedup is upperbounded by local data read times" — because the
// storage node no longer reads or decompresses the whole array.
//
// Exactness: a grid cell belongs to exactly one brick (bricks own
// disjoint cell ranges and store a one-point ghost layer), and a skipped
// brick's [min, max] bounds every cell inside it (the index records a
// NaN, which is outside every isovalue, as -inf), so skipped bricks
// contain no mixed cells. The resulting selection is identical to the
// dense SelectInterestingPoints.
//
// The brick batch is the unit of the select path: PlanBricks lists the
// bricks a request needs, and SelectBricks reads, verifies and scans one
// batch of them. A one-shot reply is the whole plan as one batch; a
// stream ships one batch per chunk.
#pragma once

#include <span>

#include "contour/select.h"
#include "io/vnd_format.h"

namespace vizndp::ndp {

struct BrickedSelectStats {
  std::int64_t bricks_total = 0;
  std::int64_t bricks_read = 0;
  std::uint64_t bytes_read = 0;  // compressed brick bytes fetched
  std::int64_t corrupt_bricks = 0;  // bricks that failed their CRC
  std::int64_t brick_rereads = 0;   // recovery re-reads issued
  std::int64_t parts = 0;  // parts the batch ran in; 1 = the calling thread
  // Busy time, summed over the batch's parts, so with several parts it
  // can exceed the batch's wall time.
  double read_seconds = 0;  // store reads, CRC checks and decodes
  double scan_seconds = 0;  // per-brick selection scans
};

// The bricks one select needs, ascending (== ascending blob offsets).
// Brick b is planned when its [min, max] straddles an isovalue
// (min < iso <= max), b is in `only_bricks` (sorted ids; nullptr = all)
// and b > `resume_after`. This is the only place the straddle predicate
// lives, so a resumed stream covers exactly the bricks the original
// would have. An unbricked array is a one-brick index: brick 0 is the
// whole grid and, with no recorded range, is always planned.
//
// Sharding: a restricted plan's selection equals the unrestricted one
// filtered to points owned by (or on the ghost boundary of) the listed
// bricks, so the union of selections over a partition of the brick
// space, with boundary duplicates dropped by id, is exactly the full
// selection. That is the sub-request shape of the scatter-gather
// cluster client.
struct BrickPlan {
  io::BrickGrid grid;  // brick extents; one brick for an unbricked array
  std::vector<std::int64_t> bricks;

  std::int64_t bricks_total() const { return grid.BrickCount(); }

  // The decompressed point slabs of bricks[begin, end): what the server
  // reserves for a batch. It bounds what the batch pins at once, its
  // stored runs plus one brick slab per part, unless the codec saves
  // less than those few slabs.
  std::uint64_t SlabBytes(size_t begin, size_t end,
                          grid::DataType type) const;
};

BrickPlan PlanBricks(const grid::Dims& dims, const io::ArrayMeta& meta,
                     std::span<const double> isovalues,
                     const std::vector<std::int64_t>* only_bricks = nullptr,
                     std::int64_t resume_after = -1);

// Reads, verifies and scans one batch of `plan`'s bricks (ascending ids)
// and returns their selection, sorted with ghost points deduplicated.
//
// Layout: a bricked array's batch is fetched in coalesced runs of
// consecutive bricks, all read on the calling thread in brick order.
// Brick 0 of an unbricked array is the whole blob, read with ReadArray
// (blob CRC) and scanned densely; that is the one branch on the array's
// layout.
//
// Parts: a batch of at least 2 MiB of decoded slabs splits into parts of
// consecutive bricks, at most one per thread of DefaultPool() and each
// holding at least 1 MiB. Each part CRC-checks, decodes, classifies and
// sorts its own bricks; one merge drops the ghost duplicates. Ids, values
// and order do not depend on the part count.
//
// Integrity: each brick is CRC-verified before decompression. A failing
// brick is re-read from the store once, on the calling thread and in
// brick order — transient corruption (a flipped bit on the wire or in a
// cache) heals here — and a brick that fails twice throws
// CorruptDataError, which crosses the wire typed; the recovery for it is
// a different data copy (a replica, or the client's baseline read). The
// first failure in brick order is the one thrown. Both events are
// counted in the stats and in obs::DefaultRegistry()
// (corrupt_brick_total / brick_reread_total).
contour::Selection SelectBricks(
    const io::VndReader& reader, const std::string& array,
    std::span<const double> isovalues, const BrickPlan& plan,
    std::span<const std::int64_t> batch, BrickedSelectStats* stats = nullptr);

}  // namespace vizndp::ndp
