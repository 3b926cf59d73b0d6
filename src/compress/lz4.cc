#include "compress/lz4.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.h"

namespace vizndp::compress {

namespace {

constexpr int kMinMatch = 4;
constexpr int kMaxOffset = 65535;
// The format forbids matches too close to the end: the last 5 bytes are
// always literals, and a match may not start within the last 12 bytes.
constexpr size_t kLastLiterals = 5;
constexpr size_t kMatchSafeMargin = 12;

constexpr int kHashLog = 16;

// Margins of the per-sequence fast path. The input must hold its 16-byte
// literal copy and the 2-byte offset after at most 14 literal bytes; the
// output, the literal copy and the 18-byte match copy after it. So no
// copy in the fast path needs a test of its own.
constexpr std::ptrdiff_t kFastInputMargin = 18;
constexpr std::ptrdiff_t kFastOutputMargin = 48;

// The extension bytes after a length nibble of 15: each 255 adds 255 and
// continues, the first byte below 255 ends the length.
size_t ReadLengthExtension(const Byte*& ip, const Byte* iend) {
  size_t len = 0;
  Byte b = 0;
  do {
    if (ip >= iend) throw DecodeError("lz4 block truncated");
    b = *ip++;
    len += b;
  } while (b == 255);
  return len;
}

std::uint32_t Load32(const Byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t Hash4(const Byte* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashLog);
}

void WriteLength(size_t value, Bytes& out) {
  // Extension bytes after a nibble of 15: each 255 adds 255, the final
  // byte (< 255) terminates.
  while (value >= 255) {
    out.push_back(255);
    value -= 255;
  }
  out.push_back(static_cast<Byte>(value));
}

void EmitSequence(ByteSpan literals, size_t match_len, size_t offset,
                  Bytes& out) {
  const size_t lit_len = literals.size();
  const size_t ml = match_len > 0 ? match_len - kMinMatch : 0;
  Byte token = 0;
  token |= static_cast<Byte>(std::min<size_t>(lit_len, 15) << 4);
  if (match_len > 0) {
    token |= static_cast<Byte>(std::min<size_t>(ml, 15));
  }
  out.push_back(token);
  if (lit_len >= 15) WriteLength(lit_len - 15, out);
  out.insert(out.end(), literals.begin(), literals.end());
  if (match_len > 0) {
    out.push_back(static_cast<Byte>(offset & 0xFF));
    out.push_back(static_cast<Byte>(offset >> 8));
    if (ml >= 15) WriteLength(ml - 15, out);
  }
}

}  // namespace

Bytes Lz4CompressBlock(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  const size_t n = input.size();
  if (n == 0) {
    out.push_back(0);  // single empty-literal sequence
    return out;
  }
  if (n < kMatchSafeMargin + 1) {
    EmitSequence(input, 0, 0, out);
    return out;
  }

  std::vector<std::int64_t> table(1u << kHashLog, -1);
  const size_t match_limit = n - kMatchSafeMargin;  // last legal match start
  const Byte* const base = input.data();
  size_t anchor = 0;
  size_t pos = 0;

  while (pos < match_limit) {
    // LZ4's skip over incompressible data: the search step starts at 1
    // and grows by one every 64 misses.
    size_t match_pos = 0;
    size_t search = pos;
    int step_counter = 1 << 6;
    bool found = false;
    while (search < match_limit) {
      const std::uint32_t h = Hash4(base + search);
      const std::int64_t cand = table[h];
      table[h] = static_cast<std::int64_t>(search);
      if (cand >= 0 &&
          static_cast<std::int64_t>(search) - cand <= kMaxOffset &&
          Load32(base + cand) == Load32(base + search)) {
        match_pos = static_cast<size_t>(cand);
        pos = search;
        found = true;
        break;
      }
      search += static_cast<size_t>(step_counter++ >> 6);
    }
    if (!found) break;

    // Extend the match backwards over pending literals.
    while (pos > anchor && match_pos > 0 &&
           base[pos - 1] == base[match_pos - 1]) {
      --pos;
      --match_pos;
    }
    // Extend forwards. Matches must leave kLastLiterals at the end.
    size_t match_len = kMinMatch;
    const size_t extend_limit = n - kLastLiterals;
    while (pos + match_len < extend_limit &&
           base[pos + match_len] == base[match_pos + match_len]) {
      ++match_len;
    }

    EmitSequence(input.subspan(anchor, pos - anchor), match_len,
                 pos - match_pos, out);
    pos += match_len;
    anchor = pos;
    // Index interior positions sparsely to keep future matches findable.
    if (pos >= 2 && pos - 2 < match_limit) {
      table[Hash4(base + pos - 2)] = static_cast<std::int64_t>(pos - 2);
    }
  }

  // Trailing literals.
  EmitSequence(input.subspan(anchor), 0, 0, out);
  return out;
}

// Pinned to a cache-line boundary: the decode loop's speed depends on
// where it falls within a 64-byte line, and unpinned it moved with
// unrelated edits elsewhere in the binary, shifting decode time by
// 10-25% between builds that left this function untouched.
__attribute__((aligned(64))) void Lz4DecompressBlock(ByteSpan block,
                                                     MutableByteSpan out) {
  const Byte* ip = block.data();
  const Byte* const iend = ip + block.size();
  Byte* const ostart = out.data();
  Byte* op = ostart;
  Byte* const oend = ostart + out.size();

  while (ip < iend) {
    const Byte token = *ip++;
    size_t lit_len = token >> 4;
    size_t match_len = token & 0x0F;

    // Most sequences carry a short literal and a short match. With both
    // nibbles below 15 and both buffers past their margins, none of the
    // checks below but the offset's can fail, so the literal goes as one
    // fixed 16-byte copy and the match, at most 18 bytes, as fixed 8- or
    // 4-byte copies (byte by byte below offset 4). A fixed copy may write
    // past the sequence's end; later sequences overwrite those bytes, and
    // a block that stops short is rejected.
    if (lit_len < 15 && match_len < 15 && iend - ip >= kFastInputMargin &&
        oend - op >= kFastOutputMargin) {
      std::memcpy(op, ip, 16);
      op += lit_len;
      ip += lit_len;
      const size_t offset =
          static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
      ip += 2;
      if (offset == 0 || offset > static_cast<size_t>(op - ostart)) {
        throw DecodeError("lz4 match offset out of range");
      }
      match_len += kMinMatch;
      const Byte* const match = op - offset;
      // Each fixed copy reads only bytes written before it starts, which
      // an offset of at least its width guarantees.
      if (offset >= 8) {
        std::memcpy(op, match, 8);
        std::memcpy(op + 8, match + 8, 8);
        std::memcpy(op + 16, match + 16, 2);
      } else if (offset >= 4) {
        for (int i = 0; i < 16; i += 4) std::memcpy(op + i, match + i, 4);
        std::memcpy(op + 16, match + 16, 2);
      } else {
        for (size_t i = 0; i < match_len; ++i) op[i] = match[i];
      }
      op += match_len;
      continue;
    }

    if (lit_len == 15) lit_len += ReadLengthExtension(ip, iend);
    if (lit_len > static_cast<size_t>(iend - ip)) {
      throw DecodeError("lz4 literal run overruns block");
    }
    if (lit_len > static_cast<size_t>(oend - op)) {
      throw DecodeError("lz4 output exceeds declared size");
    }
    std::copy_n(ip, lit_len, op);
    op += lit_len;
    ip += lit_len;
    if (ip >= iend) break;  // final sequence carries no match
    if (iend - ip < 2) throw DecodeError("lz4 block truncated");
    const size_t offset =
        static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > static_cast<size_t>(op - ostart)) {
      throw DecodeError("lz4 match offset out of range");
    }
    if (match_len == 15) match_len += ReadLengthExtension(ip, iend);
    match_len += kMinMatch;
    if (match_len > static_cast<size_t>(oend - op)) {
      throw DecodeError("lz4 output exceeds declared size");
    }
    const Byte* const match = op - offset;
    if (offset >= match_len) {
      std::memcpy(op, match, match_len);
    } else {
      for (size_t i = 0; i < match_len; ++i) op[i] = match[i];
    }
    op += match_len;
  }
  if (op != oend) {
    throw DecodeError("lz4 decompressed size mismatch: got " +
                      std::to_string(op - ostart) + ", want " +
                      std::to_string(out.size()));
  }
}

Bytes Lz4Codec::Compress(ByteSpan input) const {
  Bytes out;
  AppendLE<std::uint64_t>(input.size(), out);
  Bytes block = Lz4CompressBlock(input);
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

Bytes Lz4Codec::Decompress(ByteSpan input, size_t,
                           size_t max_output) const {
  if (input.size() < 8) throw DecodeError("lz4 frame too short");
  // The size prefix is untrusted: check it against the budget *before*
  // allocating that many bytes (a length-lie here was a one-frame OOM).
  const std::uint64_t size = LoadLE<std::uint64_t>(input.data());
  if (size > ResolveOutputBudget(max_output)) {
    throw DecodeError("lz4 declared size exceeds output budget");
  }
  Bytes out(static_cast<size_t>(size));
  DecompressInto(input, out);
  return out;
}

void Lz4Codec::DecompressInto(ByteSpan input, MutableByteSpan out) const {
  if (input.size() < 8) throw DecodeError("lz4 frame too short");
  if (LoadLE<std::uint64_t>(input.data()) != out.size()) {
    throw DecodeError("lz4 declared size differs from the buffer");
  }
  Lz4DecompressBlock(input.subspan(8), out);
}

}  // namespace vizndp::compress
