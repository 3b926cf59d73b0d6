// Wire encodings for pre-filter selections (the paper ships these through
// rpclib/MessagePack). Three interchangeable layouts, compared by the
// encoding ablation bench:
//   kIdValue     — [count][ids as i64 LE][values raw]; simple, 12 B/point
//                  for float32 fields.
//   kDeltaVarint — [count][varint deltas of sorted ids][values raw];
//                  ids cluster around interfaces, so deltas are small and
//                  this typically runs ~5 B/point.
//   kBitmap      — [one bit per grid point][values raw in id order]; wins
//                  when selectivity is high (dense selections).
//   kRunLength   — [(varint gap, varint run length) pairs][values raw];
//                  the selection marks whole cell corners, so ids come in
//                  x-contiguous runs and this usually beats delta-varint
//                  (~0.5-1 B/point of id overhead). NdpClient's default.
// Every payload starts with a 1-byte encoding tag + 1-byte data type, so
// decoders self-describe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "contour/select.h"
#include "grid/data_array.h"
#include "grid/dims.h"
#include "msgpack/value.h"

namespace vizndp::ndp {

enum class SelectionEncoding : std::uint8_t {
  kIdValue = 0,
  kDeltaVarint = 1,
  kBitmap = 2,
  kRunLength = 3,
};

const char* SelectionEncodingName(SelectionEncoding e);

struct DecodedSelection {
  std::vector<grid::PointId> ids;  // sorted ascending
  grid::DataArray values;
};

Bytes EncodeSelection(const contour::Selection& selection,
                      SelectionEncoding encoding);

// `dims` must match the grid the selection was taken from (needed by the
// bitmap layout). Throws DecodeError on malformed payloads.
DecodedSelection DecodeSelection(ByteSpan payload, const grid::Dims& dims);

// Unsigned LEB128 helpers (shared with tests).
void AppendVarint(std::uint64_t value, Bytes& out);
std::uint64_t ReadVarint(ByteSpan data, size_t& pos);

// Sub-request brick restriction (scatter-gather sharding). ndp.select
// takes an optional 6th positional parameter: a sorted array of brick
// ids restricting the bricked pre-filter to exactly those bricks. A
// sharded client partitions the brick space across servers, sends each
// its own restriction, and merges the partial selections; any replica
// can serve any restriction because the restriction names data, not
// placement. Old servers never see it (old clients send 5 params) and
// old clients keep working against new servers (an absent/empty
// restriction means "all bricks", the pre-sharding behaviour).
msgpack::Value BrickRestrictionToValue(std::span<const std::int64_t> bricks);
// Hard cap on restriction length: far above any real brick count (a
// 1M-brick dataset at 32³ bricks is a 3.2-terapoint grid), far below
// what a hostile length would make the server allocate.
inline constexpr size_t kMaxBrickRestriction = size_t{1} << 20;
// Decodes the restriction; validates ids are sorted, unique,
// non-negative, and at most kMaxBrickRestriction long (the upper bound
// is checked against the actual brick count by NdpServer::Select).
// Throws DecodeError on violations.
std::vector<std::int64_t> BrickRestrictionFromValue(
    const msgpack::Value& value);

// ---- Streaming replies (ROADMAP item 3) ------------------------------
//
// ndp.select takes an optional 7th positional parameter, a stream map
// {"chunk_bricks": N, "resume_after": C}: the server then answers with
// rpc chunk frames instead of one reply. Both shapes come from the same
// brick batches: a one-shot reply is the stream's single batch, its
// payload carried in the terminal map itself.
//
// Stream shape (all frames carry the request's msgid):
//   1. header chunk  {"kind": "header", dims/origin/spacing/dtype,
//                     "bricks_total", "stream_bricks", "total_points"}
//   2. data chunk*   {"kind": "data", "cursor": last brick id (strictly
//                     ascending, > resume_after), "bricks": batch size,
//                     "payload": encoded selection, "crc32": CRC-32 of
//                     payload}
//   3. terminal      the ordinary ndp.select reply map minus "payload"
//                    (totals + per-phase times; the chunks carried the
//                    data).
//
// The cursor is the resume token: a client that loses the stream after
// cursor C re-issues the call with resume_after=C (same node first,
// then any replica — the cursor names data, not placement) and scatters
// the new chunks into the same SparseField, whose Scatter is order- and
// duplicate-invariant. Ghost-layer points shared by brick batches may
// arrive twice across chunks or resumes; that is by design.
struct StreamParams {
  std::int64_t chunk_bricks = 0;   // straddling bricks per data chunk
  std::int64_t resume_after = -1;  // last brick id already received
};

msgpack::Value StreamParamsToValue(const StreamParams& params);
// Nil/absent → nullopt (monolithic request). Throws DecodeError when
// present but malformed (chunk_bricks < 1 or > kMaxBrickRestriction,
// resume_after < -1).
std::optional<StreamParams> StreamParamsFromValue(const msgpack::Value& value);

struct StreamHeader {
  grid::Dims dims;
  grid::UniformGeometry geometry;
  grid::DataType dtype = grid::DataType::Float32;
  std::int64_t bricks_total = 0;   // bricks in the array
  std::int64_t stream_bricks = 0;  // bricks this stream will cover
  std::int64_t total_points = 0;   // points in the full grid
};

struct StreamChunk {
  std::int64_t cursor = -1;   // last brick id covered, strictly ascending
  std::int64_t bricks = 0;    // bricks in this batch
  std::int64_t selected = 0;  // points in payload
  Bytes payload;              // EncodeSelection bytes, CRC-stamped
};

msgpack::Value StreamHeaderToValue(const StreamHeader& header);
msgpack::Value StreamChunkToValue(const StreamChunk& chunk);
// Move overload for the serving hot path: the payload lands in the wire
// Value without an intermediate copy.
msgpack::Value StreamChunkToValue(StreamChunk&& chunk);

// Stateful, validating decoder for one stream's chunk maps — the only
// path from wire bytes to chunk data, shared by NdpClient and the
// ndp-stream fuzz target so hostile frames hit the same checks the real
// client runs. Enforces: header first and exactly once, strictly
// ascending cursors starting above resume_after, payload CRC match,
// sane counts, and exactly one terminal.
class StreamDecoder {
 public:
  explicit StreamDecoder(std::int64_t resume_after = -1)
      : cursor_(resume_after) {}

  bool got_header() const { return got_header_; }
  bool finished() const { return finished_; }
  const StreamHeader& header() const { return header_; }
  std::int64_t cursor() const { return cursor_; }

  // Decodes + validates one chunk map. Returns the data chunk, or
  // nullopt when the map was the header. Throws DecodeError (or
  // CorruptDataError for a CRC mismatch) on any violation.
  std::optional<StreamChunk> Feed(const msgpack::Value& chunk_map);

  // Closes the stream on the terminal result. Throws DecodeError on a
  // terminal before the header or after a previous terminal.
  void Finish();

 private:
  bool got_header_ = false;
  bool finished_ = false;
  StreamHeader header_;
  std::int64_t cursor_;
};

// RPC method names served by NdpServer.
inline constexpr const char* kRpcNdpSelect = "ndp.select";
inline constexpr const char* kRpcNdpInfo = "ndp.info";
inline constexpr const char* kRpcNdpStats = "ndp.stats";
// Observability scrapes: ndp.metrics returns the storage node's metric
// registries (NDP + RPC + process substrate) — structured by default, or
// rendered server-side when params[0] names a format ("text", "json",
// "prom"). ndp.trace drains the span buffer so a client can merge the
// server half of a trace into its own; a nonzero u64 in params[0]
// restricts (and removes) just that trace's spans, leaving the rest
// buffered. ndp.health summarizes liveness: draining flag, in-flight
// handler table (method + trace_id + age), and memory-budget usage.
inline constexpr const char* kRpcNdpMetrics = "ndp.metrics";
inline constexpr const char* kRpcNdpTrace = "ndp.trace";
inline constexpr const char* kRpcNdpHealth = "ndp.health";

}  // namespace vizndp::ndp
