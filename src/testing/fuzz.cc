#include "testing/fuzz.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "compress/deflate.h"
#include "compress/gzip.h"
#include "compress/lz4.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "ndp/protocol.h"

namespace vizndp::testing {

namespace {

// Compressible-but-not-trivial payload: runs, ramps, and a little noise,
// so every codec's seed exercises literals *and* matches.
Bytes PatternPayload(size_t n) {
  Bytes out(n);
  FuzzRng rng(0x5eedu);
  for (size_t i = 0; i < n; ++i) {
    switch ((i / 64) % 3) {
      case 0: out[i] = static_cast<Byte>(i & 0xff); break;
      case 1: out[i] = static_cast<Byte>(0xaa); break;
      default: out[i] = static_cast<Byte>(rng.Below(8)); break;
    }
  }
  return out;
}

// A real bricked VND file image (two arrays, lz4 + none) so header
// mutations hit the msgpack map walk, the brick index parse, and every
// ValidateHeader cross-check.
Bytes VndSeedImage() {
  grid::Dataset ds(grid::Dims{9, 9, 9});
  std::vector<float> a(9 * 9 * 9), b(9 * 9 * 9);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 11) * 0.25f;
    b[i] = static_cast<float>(i) * 0.01f;
  }
  ds.AddArray(grid::DataArray::FromVector("fuzz_a", a));
  ds.AddArray(grid::DataArray::FromVector("fuzz_b", b));
  io::VndWriter writer(ds);
  writer.SetCodec(std::make_shared<compress::Lz4Codec>());
  writer.SetArrayCodec("fuzz_b", std::make_shared<compress::NullCodec>());
  writer.SetBrickSize(4);
  return writer.Serialize();
}

// A nested msgpack value shaped like real protocol traffic (arrays,
// maps, strings, bins, ints of several widths, doubles).
Bytes MsgpackSeed() {
  msgpack::Array params;
  params.emplace_back(std::string("data"));
  params.emplace_back(std::string("ts24006.vnd"));
  params.emplace_back(std::uint64_t{1} << 40);
  params.emplace_back(std::int64_t{-77});
  params.emplace_back(0.33);
  msgpack::Map meta;
  meta.emplace_back(msgpack::Value(std::string("payload")),
                    msgpack::Value(PatternPayload(96)));
  meta.emplace_back(msgpack::Value(std::string("deep")),
                    msgpack::Value(msgpack::Array{
                        msgpack::Value(msgpack::Array{msgpack::Value(true)}),
                        msgpack::Value(msgpack::Nil{})}));
  params.push_back(msgpack::Value(std::move(meta)));
  msgpack::Array request;
  request.emplace_back(std::int64_t{0});
  request.emplace_back(std::uint64_t{42});
  request.emplace_back(std::string("ndp.select"));
  request.push_back(msgpack::Value(std::move(params)));
  return msgpack::Encode(msgpack::Value(std::move(request)));
}

// A valid 7-element ndp.select params frame, every optional slot
// filled, so mutations reach the restriction and stream-map parses.
Bytes SelectParamsSeed() {
  ndp::SelectRequest request;
  request.bucket = "data";
  request.key = "ts24006.vnd";
  request.array = "v02";
  request.isovalues = {0.2, 0.5};
  request.bricks = std::vector<std::int64_t>{0, 2, 5, 9};
  request.stream = ndp::StreamParams{16, 4};
  return msgpack::Encode(
      msgpack::Value(ndp::SelectRequestToParams(request)));
}

// A complete, valid chunked ndp.select reply stream — header, two
// CRC-stamped data chunks with real encoded-selection payloads, and a
// Nil terminal marker — packed as one msgpack array so mutations can hit
// the frame walk, the StreamDecoder state machine, and the payload
// decoder in one pass.
Bytes StreamFramesSeed() {
  ndp::StreamHeader header;
  header.dims = grid::Dims{6, 6, 6};
  header.dtype = grid::DataType::Float32;
  header.bricks_total = 8;
  header.stream_bricks = 4;
  header.total_points = header.dims.PointCount();

  msgpack::Array frames;
  frames.push_back(ndp::StreamHeaderToValue(header));
  std::int64_t cursor = 1;
  for (int batch = 0; batch < 2; ++batch) {
    contour::Selection sel;
    sel.dims = header.dims;
    sel.total_points = header.total_points;
    std::vector<float> values;
    for (std::int64_t i = 0; i < 24; ++i) {
      sel.ids.push_back(static_cast<grid::PointId>(batch * 60 + i * 2));
      values.push_back(0.1f * static_cast<float>(i + 1));
    }
    sel.values = grid::DataArray::FromVector("v", values);
    ndp::StreamChunk chunk;
    chunk.cursor = cursor;
    cursor += 3;
    chunk.bricks = 2;
    chunk.selected = static_cast<std::int64_t>(sel.ids.size());
    chunk.payload = ndp::EncodeSelection(sel);
    frames.push_back(ndp::StreamChunkToValue(chunk));
  }
  frames.emplace_back(msgpack::Nil{});  // terminal marker
  return msgpack::Encode(msgpack::Value(std::move(frames)));
}

// Replays a frame array through the same StreamDecoder the client runs:
// header first and once, strictly ascending cursors, CRC-checked
// payloads that must decode against the header's dims, exactly one
// terminal (the Nil element), nothing after it.
void ValidateStreamFrames(ByteSpan input) {
  const msgpack::Value v = msgpack::Decode(input);
  if (!v.Is<msgpack::Array>()) {
    throw DecodeError("stream frames: not an array");
  }
  ndp::StreamDecoder decoder(/*resume_after=*/-1);
  for (const msgpack::Value& frame : v.As<msgpack::Array>()) {
    if (frame.Is<msgpack::Nil>()) {
      decoder.Finish();
      continue;
    }
    std::optional<ndp::StreamChunk> chunk = decoder.Feed(frame);
    if (chunk.has_value()) {
      (void)ndp::DecodeSelection(std::move(chunk->payload),
                                 decoder.header().dims);
    }
  }
  if (!decoder.finished()) {
    throw DecodeError("stream frames: missing terminal");
  }
}

}  // namespace

Bytes MutateBytes(ByteSpan input, FuzzRng& rng) {
  Bytes out(input.begin(), input.end());
  // 1-8 stacked mutations: single flips find shallow checks, stacks find
  // state machines that only misbehave after several fields disagree.
  const std::uint64_t rounds = 1 + rng.Below(8);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (out.empty()) {
      out.push_back(static_cast<Byte>(rng.Below(256)));
      continue;
    }
    switch (rng.Below(6)) {
      case 0:  // truncate to a random prefix
        out.resize(rng.Below(out.size() + 1));
        break;
      case 1: {  // flip one bit
        const size_t pos = static_cast<size_t>(rng.Below(out.size()));
        out[pos] = static_cast<Byte>(out[pos] ^ (1u << rng.Below(8)));
        break;
      }
      case 2: {  // smash one byte
        out[static_cast<size_t>(rng.Below(out.size()))] =
            static_cast<Byte>(rng.Below(256));
        break;
      }
      case 3: {  // insert a short random splice
        const size_t pos = static_cast<size_t>(rng.Below(out.size() + 1));
        const size_t n = 1 + static_cast<size_t>(rng.Below(16));
        Bytes splice(n);
        for (Byte& byte : splice) byte = static_cast<Byte>(rng.Below(256));
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   splice.begin(), splice.end());
        break;
      }
      case 4: {  // erase a short run
        const size_t pos = static_cast<size_t>(rng.Below(out.size()));
        const size_t n = std::min<size_t>(
            1 + static_cast<size_t>(rng.Below(16)), out.size() - pos);
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos),
                  out.begin() + static_cast<std::ptrdiff_t>(pos + n));
        break;
      }
      default: {  // length lie: a huge LE integer over a random offset
        std::uint64_t lie = rng.Next();
        // Bias toward the values that break naive size arithmetic.
        switch (rng.Below(4)) {
          case 0: lie = 0xffffffffffffffffull; break;
          case 1: lie = 0x7fffffffull; break;
          case 2: lie = std::uint64_t{1} << (32 + rng.Below(31)); break;
          default: break;
        }
        const size_t width = rng.Below(2) == 0 ? 4 : 8;
        if (out.size() >= width) {
          const size_t pos =
              static_cast<size_t>(rng.Below(out.size() - width + 1));
          for (size_t i = 0; i < width; ++i) {
            out[pos + i] = static_cast<Byte>((lie >> (8 * i)) & 0xff);
          }
        }
        break;
      }
    }
  }
  return out;
}

std::vector<FuzzTarget> BuiltinFuzzTargets() {
  std::vector<FuzzTarget> targets;

  targets.push_back(
      {"inflate",
       [] { return compress::DeflateCompress(PatternPayload(4096)); },
       [](ByteSpan input, size_t max_output) {
         compress::InflateRaw(input, 0, nullptr, max_output);
       }});

  targets.push_back({"gzip",
                     [] { return compress::GzipCodec().Compress(
                         PatternPayload(4096)); },
                     [](ByteSpan input, size_t max_output) {
                       compress::GzipCodec().Decompress(input, 0, max_output);
                     }});

  targets.push_back({"lz4",
                     [] { return compress::Lz4Codec().Compress(
                         PatternPayload(4096)); },
                     [](ByteSpan input, size_t max_output) {
                       compress::Lz4Codec().Decompress(input, 0, max_output);
                     }});

  targets.push_back({"msgpack", [] { return MsgpackSeed(); },
                     [](ByteSpan input, size_t) {
                       (void)msgpack::Decode(input);
                     }});

  // Corpus files are named <target>_<what>.bin (stem up to the first
  // underscore), hence the dash in the name.
  targets.push_back({"ndp-select", [] { return SelectParamsSeed(); },
                     [](ByteSpan input, size_t) {
                       // The server's own parse (NdpServer::Bind).
                       (void)ndp::SelectRequestFromParams(
                           msgpack::Decode(input).As<msgpack::Array>());
                     }});

  targets.push_back({"ndp-stream", [] { return StreamFramesSeed(); },
                     [](ByteSpan input, size_t) {
                       ValidateStreamFrames(input);
                     }});

  targets.push_back({"vnd-header", [] { return VndSeedImage(); },
                     [](ByteSpan input, size_t) {
                       (void)io::ParseVndHeader(input);
                     }});

  return targets;
}

FuzzReport RunFuzzTarget(const FuzzTarget& target, std::uint64_t seed,
                         std::uint64_t iterations) {
  const Bytes base = target.seed_input();
  // Iteration 0 is the unmutated seed: a target whose valid input is
  // rejected is fuzzing the wrong decoder (or the decoder broke).
  target.run(base, kFuzzOutputBudget);

  FuzzReport report;
  FuzzRng rng(seed);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const Bytes mutated = MutateBytes(base, rng);
    ++report.iterations;
    try {
      target.run(mutated, kFuzzOutputBudget);
      ++report.accepted;
    } catch (const vizndp::Error&) {
      ++report.rejected;  // the contract: garbage gets a typed error
    }
  }
  return report;
}

bool RunFuzzInput(const FuzzTarget& target, ByteSpan input) {
  try {
    target.run(input, kFuzzOutputBudget);
    return true;
  } catch (const vizndp::Error&) {
    return false;
  }
}

}  // namespace vizndp::testing
