// DEFLATE compressor: LZ77 with hash-chain match finding (zlib-style
// lazy parse), followed by per-block entropy coding that picks the
// cheapest of stored / fixed-Huffman / dynamic-Huffman encodings.
#include "compress/deflate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "compress/bitio.h"
#include "compress/deflate_tables.h"
#include "compress/huffman.h"

namespace vizndp::compress {

namespace detail {

int LengthToCode(int length) {
  VIZNDP_CHECK(length >= kMinMatch && length <= kMaxMatch);
  // Linear scan is fine: called through a 256-entry LUT built below.
  for (int i = static_cast<int>(kLengthBase.size()) - 1; i >= 0; --i) {
    if (length >= kLengthBase[static_cast<size_t>(i)]) return i;
  }
  throw Error("unreachable");
}

int DistanceToCode(int distance) {
  VIZNDP_CHECK(distance >= 1 && distance <= kWindowSize);
  for (int i = static_cast<int>(kDistBase.size()) - 1; i >= 0; --i) {
    if (distance >= kDistBase[static_cast<size_t>(i)]) return i;
  }
  throw Error("unreachable");
}

}  // namespace detail

namespace {

using namespace detail;

// LUTs so the hot emit loop avoids scans.
struct CodeLuts {
  std::array<std::uint8_t, kMaxMatch + 1> length_code{};
  std::array<std::uint8_t, 512> dist_code_small{};  // distances 1..512
  // Distances 513..32768 in buckets of 256: every distance-code boundary
  // above 512 falls on a multiple of 256 plus one, so buckets never
  // straddle two codes.
  std::array<std::uint8_t, 128> dist_code_large{};

  CodeLuts() {
    for (int len = kMinMatch; len <= kMaxMatch; ++len) {
      length_code[static_cast<size_t>(len)] =
          static_cast<std::uint8_t>(LengthToCode(len));
    }
    for (int d = 1; d <= 512; ++d) {
      dist_code_small[static_cast<size_t>(d - 1)] =
          static_cast<std::uint8_t>(DistanceToCode(d));
    }
    for (int i = 2; i < 128; ++i) {
      const int d = (i << 8) + 1;
      dist_code_large[static_cast<size_t>(i)] =
          static_cast<std::uint8_t>(DistanceToCode(std::min(d, kWindowSize)));
    }
  }

  int DistCode(int distance) const {
    return distance <= 512
               ? dist_code_small[static_cast<size_t>(distance - 1)]
               : dist_code_large[static_cast<size_t>((distance - 1) >> 8)];
  }
};

const CodeLuts& Luts() {
  static const CodeLuts luts;
  return luts;
}

// A literal (len == 0, byte in `dist`) or a match (len >= kMinMatch).
struct Token {
  std::uint16_t len;
  std::uint16_t dist;
};

// zlib's level 6: how many hash-chain candidates to try, and the match
// length that ends the chain walk early and is committed without a lazy
// look at the next position.
constexpr int kMaxChain = 128;
constexpr int kGoodMatch = 128;

constexpr int kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;

std::uint32_t Hash3(const Byte* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Hash-chain LZ77 matcher over the whole input (the window constraint is
// enforced when walking chains).
class MatchFinder {
 public:
  explicit MatchFinder(ByteSpan input)
      : input_(input), head_(kHashSize, -1), prev_(kWindowSize, -1) {}

  void Insert(std::int64_t pos) {
    if (pos + kMinMatch > static_cast<std::int64_t>(input_.size())) return;
    const std::uint32_t h = Hash3(input_.data() + pos);
    // prev_ is a ring over the window: the slot for `pos` is only
    // overwritten when pos + kWindowSize is inserted, by which time no
    // chain walk can legally reach `pos` anymore.
    prev_[static_cast<size_t>(pos) & (kWindowSize - 1)] = head_[h];
    head_[h] = pos;
  }

  // Longest match at `pos` (>= kMinMatch), or len 0.
  Token FindMatch(std::int64_t pos) const {
    const std::int64_t limit =
        std::min<std::int64_t>(static_cast<std::int64_t>(input_.size()) - pos,
                               kMaxMatch);
    if (pos + kMinMatch > static_cast<std::int64_t>(input_.size())) {
      return {0, 0};
    }
    const std::int64_t min_pos = pos - kWindowSize;
    std::int64_t cand = head_[Hash3(input_.data() + pos)];
    int best_len = kMinMatch - 1;
    std::int64_t best_pos = -1;
    int chain = kMaxChain;
    const Byte* const cur = input_.data() + pos;
    while (cand >= 0 && cand > min_pos && chain-- > 0) {
      if (cand != pos) {
        const Byte* const cp = input_.data() + cand;
        // Quick reject on the byte that would extend the best match.
        if (cp[best_len] == cur[best_len]) {
          int len = 0;
          while (len < limit && cp[len] == cur[len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_pos = cand;
            if (len >= kGoodMatch || len == limit) break;
          }
        }
      }
      cand = prev_[static_cast<size_t>(cand) & (kWindowSize - 1)];
    }
    if (best_len >= kMinMatch) {
      return {static_cast<std::uint16_t>(best_len),
              static_cast<std::uint16_t>(pos - best_pos)};
    }
    return {0, 0};
  }

 private:
  ByteSpan input_;
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> prev_;
};

// Tokenizes `input` with one-step-lazy parsing.
std::vector<Token> Tokenize(ByteSpan input) {
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 3 + 16);
  MatchFinder finder(input);
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  std::int64_t pos = 0;
  Token pending = {0, 0};  // match deferred by lazy evaluation
  bool have_pending = false;
  while (pos < n) {
    Token match = finder.FindMatch(pos);
    if (have_pending) {
      if (match.len > pending.len) {
        // The later match is longer: emit the previous byte as a literal
        // and keep evaluating from the current position.
        tokens.push_back({0, input[static_cast<size_t>(pos - 1)]});
        pending = match;
        finder.Insert(pos);
        ++pos;
        continue;
      }
      // Commit the pending match (it started at pos - 1).
      tokens.push_back(pending);
      const std::int64_t end = pos - 1 + pending.len;
      while (pos < end && pos < n) {
        finder.Insert(pos);
        ++pos;
      }
      have_pending = false;
      continue;
    }
    if (match.len >= kMinMatch) {
      if (match.len < kGoodMatch && pos + 1 < n) {
        pending = match;
        have_pending = true;
        finder.Insert(pos);
        ++pos;
        continue;
      }
      tokens.push_back(match);
      const std::int64_t end = pos + match.len;
      while (pos < end) {
        finder.Insert(pos);
        ++pos;
      }
    } else {
      tokens.push_back({0, input[static_cast<size_t>(pos)]});
      finder.Insert(pos);
      ++pos;
    }
  }
  if (have_pending) {
    tokens.push_back(pending);
  }
  return tokens;
}

struct FixedTables {
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint8_t> dist_lengths;

  FixedTables() : litlen_lengths(kNumLitLenSymbols), dist_lengths(32, 5) {
    for (int i = 0; i <= 143; ++i) litlen_lengths[static_cast<size_t>(i)] = 8;
    for (int i = 144; i <= 255; ++i) litlen_lengths[static_cast<size_t>(i)] = 9;
    for (int i = 256; i <= 279; ++i) litlen_lengths[static_cast<size_t>(i)] = 7;
    for (int i = 280; i <= 287; ++i) litlen_lengths[static_cast<size_t>(i)] = 8;
  }
};

const FixedTables& Fixed() {
  static const FixedTables tables;
  return tables;
}

// Code-length-alphabet RLE item (RFC 1951 §3.2.7).
struct ClSymbol {
  std::uint8_t symbol;      // 0..18
  std::uint8_t extra_bits;  // number of extra bits
  std::uint8_t extra;       // extra bits payload
};

std::vector<ClSymbol> RunLengthEncodeLengths(
    std::span<const std::uint8_t> lengths) {
  std::vector<ClSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t len = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == len) ++run;
    if (len == 0) {
      size_t left = run;
      while (left >= 11) {
        const size_t take = std::min<size_t>(left, 138);
        out.push_back({18, 7, static_cast<std::uint8_t>(take - 11)});
        left -= take;
      }
      while (left >= 3) {
        const size_t take = std::min<size_t>(left, 10);
        out.push_back({17, 3, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      while (left-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({len, 0, 0});
      size_t left = run - 1;
      while (left >= 3) {
        const size_t take = std::min<size_t>(left, 6);
        out.push_back({16, 2, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      while (left-- > 0) out.push_back({len, 0, 0});
    }
    i += run;
  }
  return out;
}

struct DynamicHeader {
  std::vector<std::uint8_t> litlen_lengths;  // size hlit
  std::vector<std::uint8_t> dist_lengths;    // size hdist
  std::vector<ClSymbol> cl_symbols;
  std::vector<std::uint8_t> cl_lengths;  // 19 entries
  int hclen = 4;
  std::int64_t header_bits = 0;
};

DynamicHeader BuildDynamicHeader(std::span<const std::uint64_t> litlen_freq,
                                 std::span<const std::uint64_t> dist_freq) {
  DynamicHeader h;
  auto litlen_lengths = BuildCodeLengths(litlen_freq);
  auto dist_lengths = BuildCodeLengths(dist_freq);
  // zlib convention: with no distances used, send one length-1 dist code so
  // the tree is unambiguous to strict decoders.
  if (std::all_of(dist_lengths.begin(), dist_lengths.end(),
                  [](std::uint8_t l) { return l == 0; })) {
    dist_lengths[0] = 1;
  }

  int hlit = kNumLitLenSymbols;
  while (hlit > 257 && litlen_lengths[static_cast<size_t>(hlit - 1)] == 0) {
    --hlit;
  }
  int hdist = kNumDistSymbols;
  while (hdist > 1 && dist_lengths[static_cast<size_t>(hdist - 1)] == 0) {
    --hdist;
  }
  h.litlen_lengths.assign(litlen_lengths.begin(), litlen_lengths.begin() + hlit);
  h.dist_lengths.assign(dist_lengths.begin(), dist_lengths.begin() + hdist);

  // One RLE stream covers litlen lengths immediately followed by dist
  // lengths, sharing runs across the boundary per the RFC.
  std::vector<std::uint8_t> all;
  all.reserve(h.litlen_lengths.size() + h.dist_lengths.size());
  all.insert(all.end(), h.litlen_lengths.begin(), h.litlen_lengths.end());
  all.insert(all.end(), h.dist_lengths.begin(), h.dist_lengths.end());
  h.cl_symbols = RunLengthEncodeLengths(all);

  std::array<std::uint64_t, 19> cl_freq{};
  for (const auto& s : h.cl_symbols) ++cl_freq[s.symbol];
  h.cl_lengths = BuildCodeLengths(cl_freq, 7);
  // Degenerate single-symbol CL alphabet still needs a decodable code.
  {
    int used = 0;
    for (const auto l : h.cl_lengths) used += (l != 0);
    if (used == 1) {
      for (size_t i = 0; i < h.cl_lengths.size(); ++i) {
        if (h.cl_lengths[i] == 0) {
          h.cl_lengths[i] = 1;
          break;
        }
      }
    }
  }

  h.hclen = 19;
  while (h.hclen > 4 &&
         h.cl_lengths[kCodeLengthOrder[static_cast<size_t>(h.hclen - 1)]] == 0) {
    --h.hclen;
  }

  h.header_bits = 5 + 5 + 4 + 3 * h.hclen;
  for (const auto& s : h.cl_symbols) {
    h.header_bits += h.cl_lengths[s.symbol] + s.extra_bits;
  }
  return h;
}

std::int64_t BodyCostBits(std::span<const std::uint64_t> litlen_freq,
                          std::span<const std::uint64_t> dist_freq,
                          std::span<const std::uint8_t> litlen_lengths,
                          std::span<const std::uint8_t> dist_lengths) {
  std::int64_t bits = 0;
  for (size_t s = 0; s < litlen_freq.size(); ++s) {
    if (litlen_freq[s] == 0) continue;
    bits += static_cast<std::int64_t>(litlen_freq[s]) *
            litlen_lengths[s];
    if (s > 256) {
      bits += static_cast<std::int64_t>(litlen_freq[s]) *
              kLengthExtra[s - 257];
    }
  }
  for (size_t s = 0; s < dist_freq.size(); ++s) {
    if (dist_freq[s] == 0) continue;
    bits += static_cast<std::int64_t>(dist_freq[s]) *
            (dist_lengths[s] + kDistExtra[s]);
  }
  return bits;
}

void EmitTokens(BitWriter& w, std::span<const Token> tokens,
                const HuffmanEncoder& litlen, const HuffmanEncoder& dist) {
  const auto& luts = Luts();
  for (const Token& t : tokens) {
    if (t.len == 0) {
      litlen.Write(w, t.dist);
      continue;
    }
    const int lcode = luts.length_code[t.len];
    litlen.Write(w, 257 + lcode);
    w.WriteBits(static_cast<std::uint32_t>(t.len - kLengthBase[lcode]),
                kLengthExtra[lcode]);
    const int dcode = luts.DistCode(t.dist);
    dist.Write(w, dcode);
    w.WriteBits(static_cast<std::uint32_t>(t.dist - kDistBase[dcode]),
                kDistExtra[dcode]);
  }
  litlen.Write(w, kEndOfBlock);
}

// Emits one DEFLATE block for `block_input` (already tokenized), choosing
// the cheapest of stored / fixed / dynamic.
void EmitBlock(BitWriter& w, Bytes& out, ByteSpan block_input,
               std::span<const Token> tokens, bool final_block) {
  const auto& luts = Luts();
  std::array<std::uint64_t, kNumLitLenSymbols> litlen_freq{};
  std::array<std::uint64_t, kNumDistSymbols> dist_freq{};
  litlen_freq[kEndOfBlock] = 1;
  for (const Token& t : tokens) {
    if (t.len == 0) {
      ++litlen_freq[t.dist];
    } else {
      ++litlen_freq[static_cast<size_t>(257 + luts.length_code[t.len])];
      ++dist_freq[static_cast<size_t>(luts.DistCode(t.dist))];
    }
  }

  const DynamicHeader dyn = BuildDynamicHeader(litlen_freq, dist_freq);
  // Cost of the dynamic body uses the (trimmed) dynamic lengths; symbols
  // beyond hlit/hdist have zero frequency by construction.
  std::vector<std::uint8_t> dyn_litlen(kNumLitLenSymbols, 0);
  std::copy(dyn.litlen_lengths.begin(), dyn.litlen_lengths.end(),
            dyn_litlen.begin());
  std::vector<std::uint8_t> dyn_dist(kNumDistSymbols, 0);
  std::copy(dyn.dist_lengths.begin(), dyn.dist_lengths.end(), dyn_dist.begin());

  const std::int64_t dynamic_bits =
      3 + dyn.header_bits +
      BodyCostBits(litlen_freq, dist_freq, dyn_litlen, dyn_dist);
  const std::int64_t fixed_bits =
      3 + BodyCostBits(litlen_freq, dist_freq, Fixed().litlen_lengths,
                       std::span<const std::uint8_t>(Fixed().dist_lengths)
                           .first(kNumDistSymbols));
  // Stored: 3 block bits, pad to byte, LEN/NLEN, raw payload.
  const std::int64_t stored_bits =
      3 + 7 + 32 + 8 * static_cast<std::int64_t>(block_input.size());

  if (stored_bits <= dynamic_bits && stored_bits <= fixed_bits &&
      block_input.size() <= 65535) {
    w.WriteBits(final_block ? 1u : 0u, 1);
    w.WriteBits(0u, 2);  // BTYPE=00 stored
    w.AlignToByte();
    AppendLE<std::uint16_t>(static_cast<std::uint16_t>(block_input.size()), out);
    AppendLE<std::uint16_t>(
        static_cast<std::uint16_t>(~block_input.size() & 0xFFFFu), out);
    out.insert(out.end(), block_input.begin(), block_input.end());
    return;
  }

  HuffmanEncoder litlen_enc;
  HuffmanEncoder dist_enc;
  if (fixed_bits <= dynamic_bits) {
    w.WriteBits(final_block ? 1u : 0u, 1);
    w.WriteBits(1u, 2);  // BTYPE=01 fixed
    litlen_enc.Init(Fixed().litlen_lengths);
    dist_enc.Init(Fixed().dist_lengths);
  } else {
    w.WriteBits(final_block ? 1u : 0u, 1);
    w.WriteBits(2u, 2);  // BTYPE=10 dynamic
    w.WriteBits(static_cast<std::uint32_t>(dyn.litlen_lengths.size() - 257), 5);
    w.WriteBits(static_cast<std::uint32_t>(dyn.dist_lengths.size() - 1), 5);
    w.WriteBits(static_cast<std::uint32_t>(dyn.hclen - 4), 4);
    for (int i = 0; i < dyn.hclen; ++i) {
      w.WriteBits(dyn.cl_lengths[kCodeLengthOrder[static_cast<size_t>(i)]], 3);
    }
    HuffmanEncoder cl_enc;
    cl_enc.Init(dyn.cl_lengths);
    for (const auto& s : dyn.cl_symbols) {
      cl_enc.Write(w, s.symbol);
      if (s.extra_bits > 0) {
        w.WriteBits(s.extra, s.extra_bits);
      }
    }
    litlen_enc.Init(dyn_litlen);
    dist_enc.Init(dyn_dist);
  }
  EmitTokens(w, tokens, litlen_enc, dist_enc);
}

}  // namespace

Bytes DeflateCompress(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 3 + 64);
  BitWriter w(out);
  if (input.empty()) {
    // Single empty fixed block.
    w.WriteBits(1u, 1);
    w.WriteBits(1u, 2);
    HuffmanEncoder litlen_enc;
    litlen_enc.Init(Fixed().litlen_lengths);
    litlen_enc.Write(w, kEndOfBlock);
    w.AlignToByte();
    return out;
  }

  // Tokenize the whole input once (matches may then cross block
  // boundaries, which DEFLATE permits), then entropy-code in slabs so each
  // slab gets Huffman tables fitted to its local statistics.
  const std::vector<Token> tokens = Tokenize(input);

  constexpr size_t kBlockInputTarget = 128 * 1024;
  size_t tok_begin = 0;
  size_t input_pos = 0;
  while (tok_begin < tokens.size()) {
    size_t tok_end = tok_begin;
    size_t block_bytes = 0;
    while (tok_end < tokens.size() && block_bytes < kBlockInputTarget) {
      const Token& t = tokens[tok_end];
      block_bytes += (t.len == 0) ? 1 : t.len;
      ++tok_end;
    }
    const bool final_block = tok_end == tokens.size();
    EmitBlock(w, out, input.subspan(input_pos, block_bytes),
              std::span<const Token>(tokens).subspan(tok_begin,
                                                     tok_end - tok_begin),
              final_block);
    tok_begin = tok_end;
    input_pos += block_bytes;
  }
  w.AlignToByte();
  return out;
}

}  // namespace vizndp::compress
