// Wire encoding for pre-filter selections (the paper ships these through
// rpclib/MessagePack). One layout, run-length:
//   [tag u8 = kRunLengthTag][dtype u8][count u64 LE]
//   [(varint gap from the previous run's end, varint run length) pairs]
//   [values raw, in id order]
// The selection marks whole cell corners, so ids come in x-contiguous
// runs and cost ~0.1 B/point on top of the values (4.0-4.2 B/point for
// float32 fields, against 5 for delta-varint ids, 12 for i64 ids and
// 7.5-12 for a grid bitmap; EXPERIMENTS.md, ablation B). The tag stays
// on the wire, in the payload and in the request, so a decoder still
// rejects a layout it does not speak.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "contour/select.h"
#include "grid/data_array.h"
#include "grid/dims.h"
#include "msgpack/value.h"

namespace vizndp::ndp {

inline constexpr std::uint8_t kRunLengthTag = 3;

struct DecodedSelection {
  std::vector<grid::PointId> ids;  // sorted ascending
  grid::DataArray values;
};

Bytes EncodeSelection(const contour::Selection& selection);

// `dims` must match the grid the selection was taken from: every id must
// fall inside it. Throws DecodeError on malformed payloads, before any
// allocation the payload's own size does not bound.
DecodedSelection DecodeSelection(ByteSpan payload, const grid::Dims& dims);

// Unsigned LEB128 helpers (shared with tests).
void AppendVarint(std::uint64_t value, Bytes& out);
std::uint64_t ReadVarint(ByteSpan data, size_t& pos);

// ---- The ndp.select request -----------------------------------------
//
// Positional params, trailing optional slots omitted (a Nil holds slot 5
// when slot 6 follows):
//   [bucket, key, array, [isovalue...], kRunLengthTag,
//    brick restriction, {"chunk_bricks": N, "resume_after": C}]
// The restriction (scatter-gather sharding) limits the bricked
// pre-filter to those brick ids; it names data, not placement, so any
// replica can serve it. Absent, Nil or empty means all bricks. The
// stream map asks for a streamed reply; absent or Nil, for one-shot.
struct StreamParams {
  std::int64_t chunk_bricks = 0;   // straddling bricks per data chunk
  std::int64_t resume_after = -1;  // last brick id already received
};

struct SelectRequest {
  std::string bucket;  // fixed by the server's gateway; kept on the wire
  std::string key;
  std::string array;
  std::vector<double> isovalues;
  std::optional<std::vector<std::int64_t>> bricks;  // nullopt: all bricks
  std::optional<StreamParams> stream;               // nullopt: one-shot
};

// The one request codec: NdpClient builds with SelectRequestToParams;
// NdpServer::Bind and the ndp-select fuzz target parse with
// SelectRequestFromParams, which throws DecodeError on fewer than 5
// params, a non-string name, a non-numeric isovalue, a tag other than
// kRunLengthTag, a restriction that is not Nil or an array of sorted,
// unique, non-negative ids (at most kMaxBrickRestriction; NdpServer
// checks the upper bound against the brick count), or a stream map with
// chunk_bricks outside [1, kMaxBrickRestriction] or resume_after < -1.
msgpack::Array SelectRequestToParams(const SelectRequest& request);
SelectRequest SelectRequestFromParams(const msgpack::Array& params);

// Hard cap on restriction length: far above any real brick count (a
// 1M-brick dataset at 32³ bricks is a 3.2-terapoint grid), far below
// what a hostile length would make the server allocate.
inline constexpr size_t kMaxBrickRestriction = size_t{1} << 20;

// ---- Replies ---------------------------------------------------------
//
// Both shapes are built from the same parts:
//   header    {"kind": "header", dims/origin/spacing/dtype,
//              "bricks_total", "stream_bricks", "total_points", "crc32"}
//   data      {"kind": "data", "cursor": last brick id of the batch,
//              "bricks", "selected", "crc32", "payload"}
//   terminal  the server's accounting: "stored_bytes", "raw_bytes",
//             "bricks_read", "selected", "read_s", "select_s" (busy
//             time summed over each batch's parts, so with several
//             parts more than wall time), and "chunks" for a stream.
// One-shot: one response frame, the terminal with the header map under
// "header" and the whole plan's data map under "chunk" (absent when no
// brick straddles). Streamed: chunk frames on the request's msgid, the
// header and then one data map per batch, cursors strictly ascending
// above resume_after; the terminal is the response frame.
//
// The cursor is the resume token: a client that loses the stream after
// cursor C re-issues the call with resume_after=C (same node first, then
// any replica) and scatters into the same SparseField, whose Scatter is
// order- and duplicate-invariant, so ghost points that arrive twice are
// harmless.
//
// "crc32" covers every field the client acts on, in a fixed
// little-endian layout: a header's dims (3 × i64), origin and spacing
// (3 × f64 each), dtype name, bricks_total, stream_bricks and
// total_points (i64 each); a data map's cursor, bricks and selected
// (i64 each), then its payload.
inline constexpr const char* kOneShotHeaderKey = "header";
inline constexpr const char* kOneShotChunkKey = "chunk";

struct StreamHeader {
  grid::Dims dims;
  grid::UniformGeometry geometry;
  grid::DataType dtype = grid::DataType::Float32;
  std::int64_t bricks_total = 0;   // bricks in the array
  std::int64_t stream_bricks = 0;  // bricks this reply will cover
  std::int64_t total_points = 0;   // points in the full grid
};

// Same dims and dtype: what resuming a stream and merging shards
// require. A replica describing another grid is corruption, not
// recovery.
inline bool SameGrid(const StreamHeader& a, const StreamHeader& b) {
  return a.dims == b.dims && a.dtype == b.dtype;
}

struct StreamChunk {
  std::int64_t cursor = -1;   // last brick id covered, strictly ascending
  std::int64_t bricks = 0;    // bricks in this batch
  std::int64_t selected = 0;  // points in payload
  Bytes payload;              // EncodeSelection bytes
};

msgpack::Value StreamHeaderToValue(const StreamHeader& header);
// Taken by value: the serving hot path moves its chunk in, and the
// payload lands in the wire Value without a copy.
msgpack::Value StreamChunkToValue(StreamChunk chunk);

// Stateful, validating decoder for one select's header and data maps —
// the only path from wire bytes to chunk data, for both reply shapes,
// shared by NdpClient and the ndp-stream fuzz target. Enforces: header
// first and exactly once, a grid whose array fits the decompress budget,
// CRC matches, strictly ascending cursors above resume_after, sane
// counts, and exactly one terminal.
class StreamDecoder {
 public:
  explicit StreamDecoder(std::int64_t resume_after = -1)
      : cursor_(resume_after) {}

  bool got_header() const { return got_header_; }
  bool finished() const { return finished_; }
  const StreamHeader& header() const { return header_; }
  std::int64_t cursor() const { return cursor_; }

  // Decodes + validates one header or data map. Returns the data chunk,
  // or nullopt for the header. By value: a caller that owns the map moves
  // it in, and the payload moves out without a copy. Throws DecodeError
  // (CorruptDataError for a CRC mismatch) on any violation.
  std::optional<StreamChunk> Feed(msgpack::Value chunk_map);

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
// "prom"). ndp.health summarizes liveness: draining flag, in-flight
// handler table (method + trace_id + age), and memory-budget usage. No
// RPC drains spans: a sampled request's server spans ride back on its
// own reply (rpc/trace_wire.h).
inline constexpr const char* kRpcNdpMetrics = "ndp.metrics";
inline constexpr const char* kRpcNdpHealth = "ndp.health";

}  // namespace vizndp::ndp
