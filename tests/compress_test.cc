#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "compress/checksum.h"
#include "compress/codec.h"
#include "compress/deflate.h"
#include "compress/gzip.h"
#include "compress/lz4.h"
#include "testing/fuzz.h"

#ifdef VIZNDP_HAVE_ZLIB
#include <zlib.h>
#endif

#ifndef VIZNDP_FUZZ_CORPUS_DIR
#error "build must define VIZNDP_FUZZ_CORPUS_DIR"
#endif

namespace vizndp::compress {
namespace {

// Input families with distinct statistics; each codec must round-trip all
// of them at every size.
enum class InputKind { kRandom, kRuns, kLowEntropy, kText, kFloatLike };

Bytes MakeInput(InputKind kind, size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  Bytes out(n);
  switch (kind) {
    case InputKind::kRandom:
      for (auto& b : out) b = static_cast<Byte>(rng());
      break;
    case InputKind::kRuns:
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<Byte>((i / 97) % 7);
      break;
    case InputKind::kLowEntropy:
      for (auto& b : out) b = static_cast<Byte>((rng() % 4) * 63);
      break;
    case InputKind::kText: {
      const std::string words = "the quick brown fox jumps over the lazy dog ";
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<Byte>(words[i % words.size()]);
      break;
    }
    case InputKind::kFloatLike: {
      // Smooth field bytes: small mantissa deltas like quantized science
      // data.
      float v = 1.0f;
      for (size_t i = 0; i + 4 <= n; i += 4) {
        v += static_cast<float>(static_cast<int>(rng() % 5) - 2) / 256.0f;
        std::memcpy(out.data() + i, &v, 4);
      }
      break;
    }
  }
  return out;
}

struct RoundTripCase {
  std::string codec;
  InputKind kind;
  size_t size;
};

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, size_t>> {};

TEST_P(CodecRoundTripTest, DecodeRecoversInput) {
  const auto& [codec_name, kind, size] = GetParam();
  const CodecPtr codec = MakeCodec(codec_name);
  const Bytes input =
      MakeInput(static_cast<InputKind>(kind), size,
                static_cast<unsigned>(size * 7919 + kind));
  const Bytes compressed = codec->Compress(input);
  const Bytes output = codec->Decompress(compressed, input.size());
  EXPECT_EQ(output, input);
  Bytes into(input.size());
  codec->DecompressInto(compressed, into);
  EXPECT_EQ(into, input);
  // The buffer is the expected size: one byte more or less is a decode
  // error.
  Bytes larger(input.size() + 1);
  EXPECT_THROW(codec->DecompressInto(compressed, larger), DecodeError);
  if (!input.empty()) {
    Bytes smaller(input.size() - 1);
    EXPECT_THROW(codec->DecompressInto(compressed, smaller), DecodeError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTripTest,
    ::testing::Combine(::testing::Values("none", "gzip", "lz4"),
                       ::testing::Range(0, 5),
                       ::testing::Values<size_t>(0, 1, 2, 13, 255, 4096,
                                                 65535, 65536, 300000)));

TEST(Checksum, Crc32KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(AsBytes(std::string_view("123456789"))), 0xCBF43926u);
  EXPECT_EQ(Crc32(ByteSpan{}), 0u);
}

TEST(Checksum, Crc32Incremental) {
  const Bytes data = ToBytes("hello world, this is a checksum");
  const std::uint32_t whole = Crc32(data);
  const std::uint32_t part1 = Crc32(ByteSpan(data).first(10));
  const std::uint32_t part2 = Crc32(ByteSpan(data).subspan(10), part1);
  EXPECT_EQ(whole, part2);
}

TEST(Gzip, ProducesValidMemberHeader) {
  const GzipCodec codec;
  const Bytes out = codec.Compress(ToBytes("payload"));
  ASSERT_GE(out.size(), 20u);
  EXPECT_EQ(out[0], 0x1F);
  EXPECT_EQ(out[1], 0x8B);
  EXPECT_EQ(out[2], 8);  // deflate
}

TEST(Gzip, DetectsCorruptBody) {
  const GzipCodec codec;
  const Bytes input = MakeInput(InputKind::kText, 5000, 1);
  Bytes compressed = codec.Compress(input);
  // Flip a byte in the middle of the deflate body.
  compressed[compressed.size() / 2] ^= 0xFF;
  EXPECT_THROW(codec.Decompress(compressed, input.size()), DecodeError);
}

TEST(Gzip, DetectsBadMagicAndTruncation) {
  const GzipCodec codec;
  Bytes compressed = codec.Compress(ToBytes("data data data"));
  Bytes bad_magic = compressed;
  bad_magic[0] = 0x00;
  EXPECT_THROW(codec.Decompress(bad_magic), DecodeError);
  const Bytes truncated(compressed.begin(), compressed.begin() + 12);
  EXPECT_THROW(codec.Decompress(truncated), DecodeError);
}

TEST(Gzip, SkipsOptionalHeaderFields) {
  // Hand-build a member with FNAME set.
  const GzipCodec codec;
  const Bytes input = ToBytes("named content");
  const Bytes plain = codec.Compress(input);
  Bytes named;
  named.insert(named.end(), plain.begin(), plain.begin() + 3);
  named.push_back(0x08);  // FLG: FNAME
  named.insert(named.end(), plain.begin() + 4, plain.begin() + 10);
  const std::string fname = "file.vnd";
  named.insert(named.end(), fname.begin(), fname.end());
  named.push_back(0);
  named.insert(named.end(), plain.begin() + 10, plain.end());
  EXPECT_EQ(codec.Decompress(named, input.size()), input);
}

TEST(Deflate, StoredBlocksForIncompressibleData) {
  // Random data must not blow up: stored blocks cap expansion at ~5 B per
  // 64 KiB block plus the block headers.
  const Bytes input = MakeInput(InputKind::kRandom, 200000, 2);
  const Bytes compressed = DeflateCompress(input);
  EXPECT_LT(compressed.size(), input.size() + input.size() / 100 + 64);
  EXPECT_EQ(InflateRaw(compressed, input.size()), input);
}

TEST(Deflate, CompressesStructuredDataWell) {
  const Bytes input = MakeInput(InputKind::kRuns, 100000, 3);
  const Bytes compressed = DeflateCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 20);
}

TEST(Deflate, RejectsReservedBlockType) {
  Bytes bad = {0x07};  // BFINAL=1, BTYPE=3 (reserved)
  EXPECT_THROW(InflateRaw(bad), DecodeError);
}

TEST(Deflate, RejectsTruncatedStream) {
  const Bytes input = MakeInput(InputKind::kText, 10000, 5);
  Bytes compressed = DeflateCompress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(InflateRaw(compressed, input.size()), DecodeError);
}

TEST(Deflate, ConsumedReportsStreamEnd) {
  const Bytes input = MakeInput(InputKind::kText, 5000, 6);
  Bytes compressed = DeflateCompress(input);
  const size_t stream_size = compressed.size();
  // Append trailer-like garbage; inflate must stop at the stream end.
  compressed.insert(compressed.end(), {1, 2, 3, 4, 5, 6, 7, 8});
  size_t consumed = 0;
  EXPECT_EQ(InflateRaw(compressed, input.size(), &consumed), input);
  EXPECT_EQ(consumed, stream_size);
}

#ifdef VIZNDP_HAVE_ZLIB
TEST(Deflate, ZlibCanInflateOurOutput) {
  for (const InputKind kind :
       {InputKind::kRandom, InputKind::kRuns, InputKind::kText,
        InputKind::kFloatLike}) {
    const Bytes input = MakeInput(kind, 150000, 7);
    const Bytes compressed = DeflateCompress(input);
    Bytes out(input.size() + 64);
    z_stream zs{};
    ASSERT_EQ(inflateInit2(&zs, -15), Z_OK);
    zs.next_in = const_cast<Bytef*>(compressed.data());
    zs.avail_in = static_cast<uInt>(compressed.size());
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(out.size());
    const int rc = inflate(&zs, Z_FINISH);
    EXPECT_EQ(rc, Z_STREAM_END);
    out.resize(zs.total_out);
    inflateEnd(&zs);
    EXPECT_EQ(out, input);
  }
}

TEST(Deflate, WeCanInflateZlibOutput) {
  for (const int level : {1, 6, 9}) {
    const Bytes input = MakeInput(InputKind::kFloatLike, 150000,
                                  static_cast<unsigned>(level));
    Bytes compressed(compressBound(static_cast<uLong>(input.size())) + 16);
    z_stream zs{};
    ASSERT_EQ(deflateInit2(&zs, level, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY),
              Z_OK);
    zs.next_in = const_cast<Bytef*>(input.data());
    zs.avail_in = static_cast<uInt>(input.size());
    zs.next_out = compressed.data();
    zs.avail_out = static_cast<uInt>(compressed.size());
    ASSERT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
    compressed.resize(zs.total_out);
    deflateEnd(&zs);
    EXPECT_EQ(InflateRaw(compressed, input.size()), input);
  }
}
#endif  // VIZNDP_HAVE_ZLIB

Bytes DecodeBlock(ByteSpan block, size_t size) {
  Bytes out(size);
  Lz4DecompressBlock(block, out);
  return out;
}

TEST(Lz4, BlockFormatEssentials) {
  // "aaaaaaaaaaaaaaaaaaaaaaaa" compresses to one short match sequence.
  const Bytes input(24, 'a');
  const Bytes block = Lz4CompressBlock(input);
  EXPECT_LT(block.size(), input.size());
  EXPECT_EQ(DecodeBlock(block, input.size()), input);
}

TEST(Lz4, RejectsBadOffset) {
  // token: 0 literals, match len 4; offset 5 with empty history.
  const Bytes bad = {0x00, 0x05, 0x00};
  EXPECT_THROW(DecodeBlock(bad, 4), DecodeError);
}

TEST(Lz4, RejectsZeroOffset) {
  const Bytes bad = {0x00, 0x00, 0x00};
  EXPECT_THROW(DecodeBlock(bad, 4), DecodeError);
}

TEST(Lz4, RejectsSizeMismatch) {
  const Bytes input(100, 'x');
  const Bytes block = Lz4CompressBlock(input);
  EXPECT_THROW(DecodeBlock(block, 99), DecodeError);
  EXPECT_THROW(DecodeBlock(block, 101), DecodeError);
}

TEST(Lz4, OverlappingMatchesDecodeCorrectly) {
  // Offset 1 with long match = classic RLE-via-overlap.
  std::string text(301, 'q');
  text.front() = 'z';
  text += "end!!?.,;:abc";
  const Bytes input = ToBytes(text);
  const Bytes block = Lz4CompressBlock(input);
  EXPECT_EQ(DecodeBlock(block, input.size()), input);
}

// The block decoder before its per-sequence fast path, kept as the
// oracle: a bounds check per input byte, a push_back per match byte.
Bytes ReferenceLz4DecompressBlock(ByteSpan block, size_t decompressed_size) {
  Bytes out;
  out.reserve(decompressed_size);
  size_t pos = 0;
  const size_t n = block.size();
  auto read_byte = [&]() -> Byte {
    if (pos >= n) throw DecodeError("lz4 block truncated");
    return block[pos++];
  };
  auto read_length = [&](size_t base_len) -> size_t {
    size_t len = base_len;
    if (base_len == 15) {
      Byte b;
      do {
        b = read_byte();
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (pos < n) {
    const Byte token = read_byte();
    const size_t lit_len = read_length(token >> 4);
    if (pos + lit_len > n) throw DecodeError("lz4 literal run overruns block");
    if (lit_len > decompressed_size - out.size()) {
      throw DecodeError("lz4 output exceeds declared size");
    }
    out.insert(out.end(), block.begin() + static_cast<std::ptrdiff_t>(pos),
               block.begin() + static_cast<std::ptrdiff_t>(pos + lit_len));
    pos += lit_len;
    if (pos >= n) break;  // final sequence carries no match
    const size_t offset = static_cast<size_t>(read_byte()) |
                          (static_cast<size_t>(read_byte()) << 8);
    if (offset == 0 || offset > out.size()) {
      throw DecodeError("lz4 match offset out of range");
    }
    const size_t match_len = read_length(token & 0x0F) + 4;
    if (match_len > decompressed_size - out.size()) {
      throw DecodeError("lz4 output exceeds declared size");
    }
    size_t from = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out.push_back(out[from++]);
    }
  }
  if (out.size() != decompressed_size) {
    throw DecodeError("lz4 decompressed size mismatch: got " +
                      std::to_string(out.size()) + ", want " +
                      std::to_string(decompressed_size));
  }
  return out;
}

// A decode's result: its bytes, or the DecodeError it threw.
struct Outcome {
  bool accepted = false;
  Bytes bytes;
  std::string error;
};

template <typename Decode>
Outcome Run(Decode&& decode) {
  try {
    return {true, decode(), ""};
  } catch (const DecodeError& err) {
    return {false, {}, err.what()};
  }
}

void ExpectSameOutcome(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.error, want.error);
}

// The raw block at `size` through both decoders.
void ExpectBlockMatchesReference(ByteSpan block, size_t size) {
  SCOPED_TRACE("block of " + std::to_string(block.size()) + " bytes at " +
               std::to_string(size));
  ExpectSameOutcome(
      Run([&] { return DecodeBlock(block, size); }),
      Run([&] { return ReferenceLz4DecompressBlock(block, size); }));
}

// A frame through Decompress, DecompressInto a buffer of its declared
// size, and the old codec's frame check around the oracle.
void ExpectFrameMatchesReference(ByteSpan frame, size_t max_output) {
  const Lz4Codec codec;
  const Outcome want = Run([&] {
    if (frame.size() < 8) throw DecodeError("lz4 frame too short");
    const std::uint64_t size = LoadLE<std::uint64_t>(frame.data());
    if (size > max_output) {
      throw DecodeError("lz4 declared size exceeds output budget");
    }
    return ReferenceLz4DecompressBlock(frame.subspan(8), size);
  });
  ExpectSameOutcome(Run([&] { return codec.Decompress(frame, 0, max_output); }),
                    want);
  if (frame.size() >= 8 && LoadLE<std::uint64_t>(frame.data()) <= max_output) {
    ExpectSameOutcome(Run([&] {
                        Bytes out(LoadLE<std::uint64_t>(frame.data()));
                        codec.DecompressInto(frame, out);
                        return out;
                      }),
                      want);
  }
}

// Runs of short periods between random bytes: matches at offsets 1-20,
// many of them below the 8 bytes the fast path's wide copy needs.
Bytes PeriodicInput(size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  Bytes out;
  while (out.size() < n) {
    const size_t period = 1 + rng() % 20;
    const size_t run = rng() % 64;
    for (size_t i = 0; i < period; ++i) out.push_back(static_cast<Byte>(rng()));
    for (size_t i = 0; i < run; ++i) out.push_back(out[out.size() - period]);
  }
  out.resize(n);
  return out;
}

TEST(Lz4Reference, RoundTripsAroundTheFastPathMarginsMatch) {
  // Sizes across the 16-byte literal copy and the 18- and 48-byte
  // margins, every input family, and every truncation of each block.
  for (size_t size = 0; size <= 160; ++size) {
    for (int kind = 0; kind < 6; ++kind) {
      const auto seed = static_cast<unsigned>(size * 31 + kind);
      const Bytes input = kind == 5 ? PeriodicInput(size, seed)
                                    : MakeInput(static_cast<InputKind>(kind),
                                                size, seed);
      const Bytes block = Lz4CompressBlock(input);
      ASSERT_EQ(DecodeBlock(block, input.size()), input);
      for (size_t cut = 0; cut <= block.size(); ++cut) {
        ExpectBlockMatchesReference(ByteSpan(block).first(cut), input.size());
      }
      ExpectBlockMatchesReference(block, input.size() + 1);
      if (!input.empty()) ExpectBlockMatchesReference(block, input.size() - 1);
    }
  }
}

TEST(Lz4Reference, LargeInputsMatch) {
  for (const size_t size : {4095u, 4096u, 65535u, 65536u, 300000u}) {
    for (int kind = 0; kind < 6; ++kind) {
      const auto seed = static_cast<unsigned>(size + kind);
      const Bytes input = kind == 5 ? PeriodicInput(size, seed)
                                    : MakeInput(static_cast<InputKind>(kind),
                                                size, seed);
      ExpectFrameMatchesReference(Lz4Codec().Compress(input), input.size());
    }
  }
}

TEST(Lz4Reference, CompressTestBlocksMatch) {
  // The hand-made blocks of the tests above.
  ExpectBlockMatchesReference(Bytes{0x00, 0x05, 0x00}, 4);
  ExpectBlockMatchesReference(Bytes{0x00, 0x00, 0x00}, 4);
  ExpectBlockMatchesReference(Bytes{0xF0}, 15);
  ExpectBlockMatchesReference(Bytes{0x10, 'a', 0x01, 0x00}, 5);
  ExpectFrameMatchesReference(Bytes{1, 2, 3}, kDefaultDecompressBudget);
}

TEST(Lz4Reference, MutationStormMatches) {
  // The fuzz stage's lz4 storm, seed for seed.
  for (const testing::FuzzTarget& target : testing::BuiltinFuzzTargets()) {
    if (target.name != "lz4") continue;
    const Bytes seed = target.seed_input();
    testing::FuzzRng rng(20260805);
    for (int i = 0; i < 1500; ++i) {
      const Bytes mutated = testing::MutateBytes(seed, rng);
      ExpectFrameMatchesReference(mutated, testing::kFuzzOutputBudget);
    }
    return;
  }
  FAIL() << "no lz4 fuzz target";
}

TEST(Lz4Reference, FuzzCorpusMatches) {
  // Every corpus entry, as a frame and as a raw block at a few sizes.
  size_t entries = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(VIZNDP_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() != ".bin") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path(), std::ios::binary);
    const Bytes data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ExpectFrameMatchesReference(data, testing::kFuzzOutputBudget);
    for (const size_t size : {0u, 16u, 64u, 4096u}) {
      ExpectBlockMatchesReference(data, size);
    }
    ++entries;
  }
  EXPECT_GE(entries, 10u);
}

TEST(Lz4, FrameCarriesDecompressedSize) {
  const Lz4Codec codec;
  const Bytes input = MakeInput(InputKind::kLowEntropy, 50000, 8);
  const Bytes frame = codec.Compress(input);
  EXPECT_EQ(LoadLE<std::uint64_t>(frame.data()), input.size());
  EXPECT_THROW(codec.Decompress(Bytes{1, 2, 3}), DecodeError);
}

TEST(CodecRegistry, KnowsAllCodecs) {
  for (const std::string& name : RegisteredCodecNames()) {
    const CodecPtr codec = MakeCodec(name);
    EXPECT_EQ(codec->name(), name);
  }
  EXPECT_THROW(MakeCodec("zstd"), Error);
}

TEST(Codec, OutputBytesArePinned) {
  // The size and CRC-32 of what gzip and LZ4 write: any change to
  // either compressor's match search or framing shows here as other
  // bytes. The inputs run from empty, through one shorter than LZ4's
  // 13-byte match margin and incompressible noise, to ones DEFLATE
  // splits into several 128 KiB blocks.
  struct Pin {
    const char* codec;
    InputKind kind;
    size_t size;
    size_t stored_size;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"gzip", InputKind::kText, 0, 20, 0x45378550u},
      {"gzip", InputKind::kText, 12, 32, 0xc64613a4u},
      {"gzip", InputKind::kLowEntropy, 4096, 1373, 0x5f9cc1d5u},
      {"gzip", InputKind::kRandom, 70000, 70094, 0xbb1b7245u},
      {"gzip", InputKind::kRuns, 100000, 530, 0xb6fcac4fu},
      {"gzip", InputKind::kText, 200000, 669, 0xd1638645u},
      {"gzip", InputKind::kFloatLike, 300000, 56433, 0xf6df43c8u},
      {"lz4", InputKind::kText, 0, 9, 0xe60914aeu},
      {"lz4", InputKind::kText, 12, 21, 0x01e5eec1u},
      {"lz4", InputKind::kLowEntropy, 4096, 2903, 0x85154b51u},
      {"lz4", InputKind::kRandom, 70000, 70284, 0x5370977cu},
      {"lz4", InputKind::kRuns, 100000, 473, 0xdaa36f5au},
      {"lz4", InputKind::kText, 200000, 848, 0x6c3c4045u},
      {"lz4", InputKind::kFloatLike, 300000, 174352, 0xcf77cdddu},
  };
  for (const Pin& pin : pins) {
    const Bytes input = MakeInput(pin.kind, pin.size, 23);
    const Bytes out = MakeCodec(pin.codec)->Compress(input);
    SCOPED_TRACE(std::string(pin.codec) + " kind " +
                 std::to_string(static_cast<int>(pin.kind)) + " size " +
                 std::to_string(pin.size));
    EXPECT_EQ(out.size(), pin.stored_size);
    EXPECT_EQ(Crc32(out), pin.crc);
  }
}

TEST(CodecRatios, OrderingMatchesPaperExpectations) {
  // On low-entropy quantized data (like volume fractions) GZip should
  // out-compress LZ4.
  const Bytes input = MakeInput(InputKind::kLowEntropy, 500000, 10);
  const size_t gz = MakeCodec("gzip")->Compress(input).size();
  const size_t lz = MakeCodec("lz4")->Compress(input).size();
  EXPECT_LT(gz, lz);
}

}  // namespace
}  // namespace vizndp::compress
