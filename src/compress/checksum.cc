#include "compress/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define VIZNDP_CRC32_CLMUL 1
#endif

namespace vizndp::compress {

namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][i] is the CRC of byte i followed by k zero bytes, so eight
// table lookups advance the register eight input bytes at once. Same
// polynomial, bit-identical results — only the stride changes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kCrcTables = MakeCrcTables();

// Table kernel without the pre/post complement: the building block both
// the public entry point and the PCLMUL tail reduction share.
inline std::uint32_t RawUpdate(std::uint32_t state, const Byte* p, size_t n) {
  for (; n > 0; --n) {
    state = kCrcTables[0][(state ^ *p++) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

#ifdef VIZNDP_CRC32_CLMUL

// Carry-less-multiply fold constants. K(d) is a 64-bit polynomial whose
// 16-byte clmul image is CRC-state-equivalent to a qword placed d bytes
// before the fold point; the values were solved from the table kernel
// itself (GF(2) elimination over the 64 qword basis images), so folding
// with them is bit-identical to the table CRC by construction. The
// 64-byte-stride pair is K(80)/K(72) (low qword sits 80 bytes before the
// block it folds into, high qword 72), the 16-byte-stride pair K(32)/K(24).
constexpr long long kFold64Lo = 0x8f352d95;  // K(80)
constexpr long long kFold64Hi = 0x1d9513d7;  // K(72)
constexpr long long kFold16Lo = 0xae689191;  // K(32)
constexpr long long kFold16Hi = 0xccaa009e;  // K(24)

// Folds 64-byte blocks with PCLMULQDQ, then reduces the final 128-bit
// representative (plus any sub-16-byte tail) through the table kernel.
// Requires len >= 64. ~9x the slice-by-8 throughput; CRC stamping and
// verification of streamed chunk payloads is the hot caller.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Crc32Clmul(
    const Byte* buf, size_t len, std::uint32_t crc) {
  const std::uint32_t c0 = crc ^ 0xFFFFFFFFu;
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(c0)));
  const __m128i k64 = _mm_set_epi64x(kFold64Hi, kFold64Lo);
  const __m128i k16 = _mm_set_epi64x(kFold16Hi, kFold16Lo);
  buf += 64;
  len -= 64;
  while (len >= 64) {
    const __m128i x5 = _mm_clmulepi64_si128(x1, k64, 0x00);
    const __m128i x6 = _mm_clmulepi64_si128(x2, k64, 0x00);
    const __m128i x7 = _mm_clmulepi64_si128(x3, k64, 0x00);
    const __m128i x8 = _mm_clmulepi64_si128(x4, k64, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k64, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k64, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k64, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k64, 0x11);
    x1 = _mm_xor_si128(
        _mm_xor_si128(x1, x5),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0)));
    x2 = _mm_xor_si128(
        _mm_xor_si128(x2, x6),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16)));
    x3 = _mm_xor_si128(
        _mm_xor_si128(x3, x7),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32)));
    x4 = _mm_xor_si128(
        _mm_xor_si128(x4, x8),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48)));
    buf += 64;
    len -= 64;
  }
  __m128i x5 = _mm_clmulepi64_si128(x1, k16, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k16, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x2);
  x5 = _mm_clmulepi64_si128(x1, k16, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k16, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x3);
  x5 = _mm_clmulepi64_si128(x1, k16, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k16, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), x4);
  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k16, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k16, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf)));
    buf += 16;
    len -= 16;
  }
  Byte rep[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rep), x1);
  std::uint32_t state = RawUpdate(0, rep, 16);
  state = RawUpdate(state, buf, len);
  return state ^ 0xFFFFFFFFu;
}

bool HaveClmul() {
  static const bool have = __builtin_cpu_supports("pclmul") != 0 &&
                           __builtin_cpu_supports("sse4.1") != 0;
  return have;
}

#endif  // VIZNDP_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32(ByteSpan data, std::uint32_t crc) {
#ifdef VIZNDP_CRC32_CLMUL
  if (data.size() >= 64 && HaveClmul()) {
    return Crc32Clmul(data.data(), data.size(), crc);
  }
#endif
  const auto& t = kCrcTables;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const Byte* p = data.data();
  size_t n = data.size();
  // The word-at-a-time kernel folds the register into the low word of
  // each 8-byte load, which is only the CRC recurrence when loads are
  // little-endian; big-endian hosts take the bytewise tail below.
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; --n) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace vizndp::compress
