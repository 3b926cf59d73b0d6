#include <gtest/gtest.h>

#include <random>

#include "compress/huffman.h"

namespace vizndp::compress {
namespace {

TEST(CanonicalCodes, Rfc1951WorkedExample) {
  // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) for symbols A..H.
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = AssignCanonicalCodes(lengths);
  EXPECT_EQ(codes[0], 0b010);
  EXPECT_EQ(codes[1], 0b011);
  EXPECT_EQ(codes[2], 0b100);
  EXPECT_EQ(codes[3], 0b101);
  EXPECT_EQ(codes[4], 0b110);
  EXPECT_EQ(codes[5], 0b00);
  EXPECT_EQ(codes[6], 0b1110);
  EXPECT_EQ(codes[7], 0b1111);
}

TEST(BuildCodeLengths, SkewedFrequenciesGiveShortCodesToCommonSymbols) {
  const std::vector<std::uint64_t> freq = {1000, 100, 10, 1};
  const auto lengths = BuildCodeLengths(freq);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(BuildCodeLengths, ZeroFrequencySymbolsGetNoCode) {
  const std::vector<std::uint64_t> freq = {5, 0, 7, 0};
  const auto lengths = BuildCodeLengths(freq);
  EXPECT_GT(lengths[0], 0);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_GT(lengths[2], 0);
  EXPECT_EQ(lengths[3], 0);
}

TEST(BuildCodeLengths, RespectsLengthLimit) {
  // Fibonacci-like frequencies force deep Huffman trees.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (const int limit : {7, 15}) {
    const auto lengths = BuildCodeLengths(freq, limit);
    for (const auto len : lengths) {
      EXPECT_LE(len, limit);
      EXPECT_GT(len, 0);
    }
    // Kraft inequality must hold (decodable prefix code).
    double kraft = 0;
    for (const auto len : lengths) kraft += std::ldexp(1.0, -len);
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(HuffmanDecoder, RejectsOverSubscribed) {
  const std::vector<std::uint8_t> lengths = {1, 1, 1};  // 3 codes of length 1
  HuffmanDecoder d;
  EXPECT_THROW(d.Init(lengths), DecodeError);
}

TEST(HuffmanDecoder, RejectsIncomplete) {
  const std::vector<std::uint8_t> lengths = {2, 2, 2};  // one slot missing
  HuffmanDecoder d;
  EXPECT_THROW(d.Init(lengths), DecodeError);
}

TEST(HuffmanDecoder, AcceptsSingleSymbolAlphabet) {
  const std::vector<std::uint8_t> lengths = {0, 1, 0};
  HuffmanDecoder d;
  EXPECT_NO_THROW(d.Init(lengths));
}

TEST(HuffmanRoundTrip, EncodeDecodeMatchesFixedAlphabet) {
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  HuffmanEncoder enc;
  enc.Init(lengths);
  HuffmanDecoder dec;
  dec.Init(lengths);

  const std::vector<int> symbols = {5, 0, 7, 3, 5, 5, 6, 1, 2, 4, 0, 7};
  Bytes buf;
  BitWriter w(buf);
  for (const int s : symbols) enc.Write(w, s);
  w.AlignToByte();

  BitReader r(buf);
  for (const int s : symbols) {
    EXPECT_EQ(dec.Decode(r), s);
  }
}

class HuffmanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanPropertyTest, RandomAlphabetRoundTrip) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const int alphabet = 2 + static_cast<int>(rng() % 100);
  std::vector<std::uint64_t> freq(static_cast<size_t>(alphabet));
  for (auto& f : freq) f = rng() % 1000;
  // Ensure at least two used symbols so the code is complete.
  freq[0] += 1;
  freq[static_cast<size_t>(alphabet - 1)] += 1;

  const auto lengths = BuildCodeLengths(freq);
  HuffmanEncoder enc;
  enc.Init(lengths);
  HuffmanDecoder dec;
  dec.Init(lengths);

  std::vector<int> symbols;
  for (int i = 0; i < 500; ++i) {
    const int s = static_cast<int>(rng() % static_cast<unsigned>(alphabet));
    if (freq[static_cast<size_t>(s)] > 0) symbols.push_back(s);
  }
  Bytes buf;
  BitWriter w(buf);
  for (const int s : symbols) enc.Write(w, s);
  w.AlignToByte();
  BitReader r(buf);
  for (const int s : symbols) {
    ASSERT_EQ(dec.Decode(r), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanPropertyTest,
                         ::testing::Range(0, 20));

TEST(BuildCodeLengths, AllZeroFrequencies) {
  const std::vector<std::uint64_t> freq(16, 0);
  const auto lengths = BuildCodeLengths(freq);
  for (const auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(BuildCodeLengths, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freq(8, 0);
  freq[5] = 42;
  const auto lengths = BuildCodeLengths(freq);
  EXPECT_EQ(lengths[5], 1);
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(lengths[i], 0);
    }
  }
}

TEST(CanonicalCodes, ShorterCodesAreNumericallySmallerPrefixes) {
  // Canonical property: when codes are left-aligned, they increase with
  // (length, symbol) order; no code is a prefix of another.
  const std::vector<std::uint8_t> lengths = {2, 3, 3, 2, 2};
  const auto codes = AssignCanonicalCodes(lengths);
  for (size_t a = 0; a < lengths.size(); ++a) {
    for (size_t b = 0; b < lengths.size(); ++b) {
      if (a == b) continue;
      const int la = lengths[a], lb = lengths[b];
      if (la <= lb) {
        // a must not be a prefix of b.
        EXPECT_NE(codes[b] >> (lb - la), codes[a])
            << "code " << a << " prefixes " << b;
      }
    }
  }
}

TEST(BitIo, ValueBitsRoundTrip) {
  Bytes buf;
  BitWriter w(buf);
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 1);
  w.WriteBits(0b1100, 4);
  w.AlignToByte();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0b101u);
  EXPECT_EQ(r.ReadBits(16), 0xFFFFu);
  EXPECT_EQ(r.ReadBits(1), 0u);
  EXPECT_EQ(r.ReadBits(4), 0b1100u);
}

TEST(BitIo, TruncatedReadThrows) {
  Bytes buf = {0xAB};
  BitReader r(buf);
  r.ReadBits(8);
  EXPECT_THROW(r.ReadBits(1), DecodeError);
}

TEST(BitIo, PeekZeroPadsPastEnd) {
  Bytes buf = {0x01};
  BitReader r(buf);
  EXPECT_EQ(r.PeekBits(15), 0x01u);  // high bits zero-padded
  r.Consume(8);
  EXPECT_THROW(r.Consume(1), DecodeError);
}

TEST(BitIo, AlignedByteReadAfterBits) {
  Bytes buf = {0b00000101, 0xAA, 0xBB, 0xCC};
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0b101u);
  r.AlignToByte();
  Byte out[3];
  r.ReadAlignedBytes(MutableByteSpan(out, 3));
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[1], 0xBB);
  EXPECT_EQ(out[2], 0xCC);
}

}  // namespace
}  // namespace vizndp::compress
