#include "ndp/protocol.h"

#include <array>
#include <bit>
#include <string>
#include <string_view>

#include "common/error.h"
#include "compress/checksum.h"
#include "compress/codec.h"

namespace vizndp::ndp {

namespace {

// Required-key lookup with a typed failure (a hostile map must never
// surface as std::bad_variant_access or a CHECK).
const msgpack::Value& StreamAt(const msgpack::Value& map, const char* key) {
  if (!map.Is<msgpack::Map>()) throw DecodeError("stream chunk: not a map");
  const msgpack::Value* v = map.Find(key);
  if (v == nullptr) {
    throw DecodeError(std::string("stream chunk: missing key '") + key + "'");
  }
  return *v;
}

std::int64_t StreamInt(const msgpack::Value& map, const char* key) {
  const msgpack::Value& v = StreamAt(map, key);
  if (!v.IsInteger()) {
    throw DecodeError(std::string("stream chunk: key '") + key +
                      "' is not an integer");
  }
  return v.AsInt();
}

void StreamTriple(const msgpack::Value& map, const char* key, double out[3]) {
  const msgpack::Value& v = StreamAt(map, key);
  const auto& arr = v.As<msgpack::Array>();
  if (arr.size() != 3) {
    throw DecodeError(std::string("stream chunk: key '") + key +
                      "' is not a 3-vector");
  }
  for (size_t i = 0; i < 3; ++i) out[i] = arr[i].AsDouble();
}

msgpack::Value TripleToValue(const auto& v) {
  return msgpack::Value(msgpack::Array{msgpack::Value(v[0]),
                                       msgpack::Value(v[1]),
                                       msgpack::Value(v[2])});
}

// The CRC stamps (protocol.h): every field the client acts on, in a
// fixed little-endian layout.
std::uint32_t HeaderCrc(const StreamHeader& h) {
  Bytes fields;
  const auto put = [&](auto v) {
    AppendLE(std::bit_cast<std::uint64_t>(v), fields);
  };
  for (const std::int64_t n : {h.dims.nx, h.dims.ny, h.dims.nz}) put(n);
  for (const double v : h.geometry.origin) put(v);
  for (const double v : h.geometry.spacing) put(v);
  const std::string_view dtype = grid::DataTypeName(h.dtype);
  fields.insert(fields.end(), dtype.begin(), dtype.end());
  for (const std::int64_t n :
       {h.bricks_total, h.stream_bricks, h.total_points}) {
    put(n);
  }
  return compress::Crc32(fields);
}

std::uint32_t ChunkCrc(const StreamChunk& c) {
  Bytes fields;
  for (const std::int64_t n : {c.cursor, c.bricks, c.selected}) {
    AppendLE(n, fields);
  }
  return compress::Crc32(c.payload, compress::Crc32(fields));
}

// The map is the decoder's own, so its payload moves out without a copy.
Bytes TakePayload(msgpack::Value& map) {
  for (auto& [k, v] : map.AsMutable<msgpack::Map>()) {
    if (k.Is<std::string>() && k.As<std::string>() == "payload") {
      if (!v.Is<Bytes>()) {
        throw DecodeError("stream chunk: payload is not binary");
      }
      return std::move(v.AsMutable<Bytes>());
    }
  }
  throw DecodeError("stream chunk: missing key 'payload'");
}

// Sorted, unique, non-negative ids, at most kMaxBrickRestriction.
std::vector<std::int64_t> BrickRestrictionFromValue(
    const msgpack::Value& value) {
  if (!value.Is<msgpack::Array>()) {
    throw DecodeError("brick restriction: not an array");
  }
  std::vector<std::int64_t> out;
  const auto& arr = value.As<msgpack::Array>();
  if (arr.size() > kMaxBrickRestriction) {
    throw DecodeError("brick restriction: absurd length " +
                      std::to_string(arr.size()));
  }
  out.reserve(arr.size());
  for (const msgpack::Value& v : arr) {
    if (!v.IsInteger()) throw DecodeError("brick restriction: non-integer id");
    const std::int64_t b = v.AsInt();
    if (b < 0) throw DecodeError("brick restriction: negative brick id");
    if (!out.empty() && b <= out.back()) {
      throw DecodeError("brick restriction: ids must be sorted and unique");
    }
    out.push_back(b);
  }
  return out;
}

// Nil: a one-shot request.
std::optional<StreamParams> StreamParamsFromValue(
    const msgpack::Value& value) {
  if (value.Is<msgpack::Nil>()) return std::nullopt;
  StreamParams params;
  params.chunk_bricks = StreamInt(value, "chunk_bricks");
  params.resume_after = StreamInt(value, "resume_after");
  if (params.chunk_bricks < 1 ||
      params.chunk_bricks > static_cast<std::int64_t>(kMaxBrickRestriction)) {
    throw DecodeError("stream params: chunk_bricks out of range");
  }
  if (params.resume_after < -1) {
    throw DecodeError("stream params: resume_after below -1");
  }
  return params;
}

}  // namespace

msgpack::Array SelectRequestToParams(const SelectRequest& request) {
  using msgpack::Value;
  msgpack::Array params{
      Value(request.bucket), Value(request.key), Value(request.array),
      Value(msgpack::Array(request.isovalues.begin(), request.isovalues.end())),
      Value(std::uint64_t{kRunLengthTag})};
  if (request.bricks.has_value()) {
    params.emplace_back(
        msgpack::Array(request.bricks->begin(), request.bricks->end()));
  } else if (request.stream.has_value()) {
    params.emplace_back();  // Nil holds slot 5 when slot 6 follows
  }
  if (request.stream.has_value()) {
    params.emplace_back(msgpack::Map{
        {Value("chunk_bricks"), Value(request.stream->chunk_bricks)},
        {Value("resume_after"), Value(request.stream->resume_after)}});
  }
  return params;
}

SelectRequest SelectRequestFromParams(const msgpack::Array& params) {
  if (params.size() < 5) {
    throw DecodeError("select request: expected at least 5 params, got " +
                      std::to_string(params.size()));
  }
  for (size_t i = 0; i < 3; ++i) {
    if (!params[i].Is<std::string>()) {
      throw DecodeError("select request: a name is not a string");
    }
  }
  SelectRequest request;
  request.bucket = params[0].As<std::string>();
  request.key = params[1].As<std::string>();
  request.array = params[2].As<std::string>();
  if (!params[3].Is<msgpack::Array>()) {
    throw DecodeError("select request: isovalues is not an array");
  }
  for (const msgpack::Value& v : params[3].As<msgpack::Array>()) {
    if (!v.IsInteger() && !v.Is<double>()) {
      throw DecodeError("select request: non-numeric isovalue");
    }
    request.isovalues.push_back(v.AsDouble());
  }
  if (!params[4].IsInteger() || params[4].AsDouble() != kRunLengthTag) {
    throw DecodeError("select request: unknown encoding tag");
  }
  if (params.size() > 5 && !params[5].IsNil()) {
    std::vector<std::int64_t> bricks = BrickRestrictionFromValue(params[5]);
    if (!bricks.empty()) request.bricks = std::move(bricks);
  }
  if (params.size() > 6) request.stream = StreamParamsFromValue(params[6]);
  return request;
}

msgpack::Value StreamHeaderToValue(const StreamHeader& header) {
  using msgpack::Value;
  msgpack::Map out;
  out.emplace_back(Value("kind"), Value(std::string("header")));
  out.emplace_back(Value("dims"), TripleToValue(std::array{
                                      header.dims.nx, header.dims.ny,
                                      header.dims.nz}));
  out.emplace_back(Value("origin"), TripleToValue(header.geometry.origin));
  out.emplace_back(Value("spacing"), TripleToValue(header.geometry.spacing));
  out.emplace_back(Value("dtype"),
                   Value(std::string(grid::DataTypeName(header.dtype))));
  out.emplace_back(Value("bricks_total"), Value(header.bricks_total));
  out.emplace_back(Value("stream_bricks"), Value(header.stream_bricks));
  out.emplace_back(Value("total_points"), Value(header.total_points));
  out.emplace_back(Value("crc32"), Value(std::uint64_t{HeaderCrc(header)}));
  return Value(std::move(out));
}

msgpack::Value StreamChunkToValue(StreamChunk chunk) {
  using msgpack::Value;
  msgpack::Map out;
  out.emplace_back(Value("kind"), Value(std::string("data")));
  out.emplace_back(Value("cursor"), Value(chunk.cursor));
  out.emplace_back(Value("bricks"), Value(chunk.bricks));
  out.emplace_back(Value("selected"), Value(chunk.selected));
  out.emplace_back(Value("crc32"), Value(std::uint64_t{ChunkCrc(chunk)}));
  out.emplace_back(Value("payload"), Value(std::move(chunk.payload)));
  return Value(std::move(out));
}

std::optional<StreamChunk> StreamDecoder::Feed(msgpack::Value chunk_map) {
  if (finished_) {
    throw DecodeError("stream chunk after the terminal frame");
  }
  const std::string& kind = StreamAt(chunk_map, "kind").As<std::string>();
  if (kind == "header") {
    if (got_header_) throw DecodeError("duplicate stream header");
    StreamHeader h;
    const auto& darr = StreamAt(chunk_map, "dims").As<msgpack::Array>();
    if (darr.size() != 3) throw DecodeError("stream header: bad dims");
    h.dims = grid::Dims{darr[0].AsInt(), darr[1].AsInt(), darr[2].AsInt()};
    StreamTriple(chunk_map, "origin", h.geometry.origin.data());
    StreamTriple(chunk_map, "spacing", h.geometry.spacing.data());
    h.dtype = grid::DataTypeFromName(
        StreamAt(chunk_map, "dtype").As<std::string>());
    h.bricks_total = StreamInt(chunk_map, "bricks_total");
    h.stream_bricks = StreamInt(chunk_map, "stream_bricks");
    h.total_points = StreamInt(chunk_map, "total_points");
    if (StreamInt(chunk_map, "crc32") != HeaderCrc(h)) {
      throw CorruptDataError("stream header failed its CRC-32 check");
    }
    // The client sizes its field from these dims, and no servable array
    // exceeds the decompress budget (the VND header check); the divisions
    // keep the bound overflow-free.
    const auto max_points = static_cast<std::int64_t>(
        compress::kDefaultDecompressBudget / grid::DataTypeSize(h.dtype));
    if (h.dims.nx <= 0 || h.dims.ny <= 0 || h.dims.nz <= 0 ||
        h.dims.nx > max_points || h.dims.ny > max_points / h.dims.nx ||
        h.dims.nz > max_points / (h.dims.nx * h.dims.ny)) {
      throw DecodeError("stream header: dims outside the servable range");
    }
    if (h.bricks_total < 0 || h.stream_bricks < 0 ||
        h.stream_bricks > h.bricks_total) {
      throw DecodeError("stream header: inconsistent brick counts");
    }
    if (h.total_points != h.dims.PointCount()) {
      throw DecodeError("stream header: total_points does not match dims");
    }
    got_header_ = true;
    header_ = h;
    return std::nullopt;
  }
  if (kind != "data") {
    throw DecodeError("stream chunk: unknown kind '" + kind + "'");
  }
  if (!got_header_) {
    throw DecodeError("stream data chunk before the header");
  }
  StreamChunk chunk;
  chunk.cursor = StreamInt(chunk_map, "cursor");
  chunk.bricks = StreamInt(chunk_map, "bricks");
  chunk.selected = StreamInt(chunk_map, "selected");
  chunk.payload = TakePayload(chunk_map);
  if (StreamInt(chunk_map, "crc32") != ChunkCrc(chunk)) {
    throw CorruptDataError("stream chunk failed its CRC-32 check (cursor " +
                           std::to_string(chunk.cursor) + ")");
  }
  if (chunk.cursor <= cursor_) {
    throw DecodeError("stream cursor not strictly ascending (" +
                      std::to_string(chunk.cursor) + " after " +
                      std::to_string(cursor_) + ")");
  }
  if (chunk.cursor >= header_.bricks_total) {
    throw DecodeError("stream cursor beyond the brick count");
  }
  if (chunk.bricks < 1 || chunk.selected < 0) {
    throw DecodeError("stream chunk: bad batch counts");
  }
  cursor_ = chunk.cursor;
  return chunk;
}

void StreamDecoder::Finish() {
  if (finished_) throw DecodeError("duplicate stream terminal frame");
  if (!got_header_) throw DecodeError("stream terminal before the header");
  finished_ = true;
}

void AppendVarint(std::uint64_t value, Bytes& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<Byte>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<Byte>(value));
}

std::uint64_t ReadVarint(ByteSpan data, size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (pos >= data.size()) throw DecodeError("varint truncated");
    const Byte b = data[pos++];
    if (shift >= 63 && (b & 0x7F) > 1) {
      throw DecodeError("varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return value;
    shift += 7;
  }
}

Bytes EncodeSelection(const contour::Selection& selection) {
  const size_t count = selection.ids.size();
  VIZNDP_CHECK(selection.values.size() == static_cast<std::int64_t>(count));
  Bytes out;
  out.push_back(kRunLengthTag);
  out.push_back(static_cast<Byte>(selection.values.type()));
  AppendLE<std::uint64_t>(count, out);
  // (gap from previous run's end, run length) varint pairs.
  grid::PointId prev_end = 0;
  size_t i = 0;
  while (i < count) {
    const grid::PointId start = selection.ids[i];
    VIZNDP_CHECK_MSG(start >= prev_end,
                     "run-length encoding requires sorted unique ids");
    size_t run = 1;
    while (i + run < count &&
           selection.ids[i + run] == start + static_cast<std::int64_t>(run)) {
      ++run;
    }
    AppendVarint(static_cast<std::uint64_t>(start - prev_end), out);
    AppendVarint(run, out);
    prev_end = start + static_cast<std::int64_t>(run);
    i += run;
  }
  const ByteSpan raw = selection.values.raw();
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

DecodedSelection DecodeSelection(ByteSpan payload, const grid::Dims& dims) {
  if (payload.size() < 10) throw DecodeError("selection payload too short");
  if (payload[0] != kRunLengthTag) {
    throw DecodeError("unknown selection encoding tag");
  }
  // UInt8 is the last DataType.
  if (payload[1] > static_cast<Byte>(grid::DataType::UInt8)) {
    throw DecodeError("unknown selection data type");
  }
  const auto type = static_cast<grid::DataType>(payload[1]);
  const std::uint64_t count = LoadLE<std::uint64_t>(payload.data() + 2);
  size_t pos = 10;

  // Bound before the reserve: a hostile count must get a typed rejection,
  // not a bad_alloc. Every id carries a value in the bytes left.
  const size_t value_size = grid::DataTypeSize(type);
  if (count > (payload.size() - pos) / value_size) {
    throw DecodeError("selection count exceeds the payload");
  }
  DecodedSelection out;
  out.ids.reserve(count);
  // Each run is checked against the grid before it is added, so a
  // hostile gap or run can neither overflow nor leave the grid.
  const auto npoints = static_cast<std::uint64_t>(dims.PointCount());
  std::uint64_t prev_end = 0;
  while (out.ids.size() < count) {
    const std::uint64_t gap = ReadVarint(payload, pos);
    const std::uint64_t run = ReadVarint(payload, pos);
    if (run == 0 || run > count - out.ids.size()) {
      throw DecodeError("run-length selection run overruns count");
    }
    if (gap > npoints - prev_end || run > npoints - prev_end - gap) {
      throw DecodeError("selection id out of grid range");
    }
    const std::uint64_t start = prev_end + gap;
    for (std::uint64_t id = start; id < start + run; ++id) {
      out.ids.push_back(static_cast<grid::PointId>(id));
    }
    prev_end = start + run;
  }

  if (pos + count * value_size != payload.size()) {
    throw DecodeError("selection value block has wrong size");
  }
  out.values = grid::DataArray(
      "selection", type,
      Bytes(payload.begin() + static_cast<std::ptrdiff_t>(pos), payload.end()));
  return out;
}

}  // namespace vizndp::ndp
