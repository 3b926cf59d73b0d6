#include "compress/gzip.h"

#include "common/error.h"
#include "compress/checksum.h"
#include "compress/deflate.h"

namespace vizndp::compress {

namespace {

constexpr Byte kMagic1 = 0x1F;
constexpr Byte kMagic2 = 0x8B;
constexpr Byte kMethodDeflate = 8;

// Header flag bits (RFC 1952).
constexpr Byte kFlagHcrc = 0x02;
constexpr Byte kFlagExtra = 0x04;
constexpr Byte kFlagName = 0x08;
constexpr Byte kFlagComment = 0x10;

}  // namespace

Bytes GzipCodec::Compress(ByteSpan input) const {
  Bytes out;
  out.reserve(input.size() / 3 + 32);
  out.push_back(kMagic1);
  out.push_back(kMagic2);
  out.push_back(kMethodDeflate);
  out.push_back(0);                    // FLG: no optional fields
  AppendLE<std::uint32_t>(0, out);     // MTIME: unset
  out.push_back(0);                    // XFL: neither fastest nor best
  out.push_back(255);                  // OS: unknown

  Bytes body = DeflateCompress(input);
  out.insert(out.end(), body.begin(), body.end());

  AppendLE<std::uint32_t>(Crc32(input), out);
  AppendLE<std::uint32_t>(static_cast<std::uint32_t>(input.size()), out);
  return out;
}

Bytes GzipCodec::Decompress(ByteSpan input, size_t size_hint,
                            size_t max_output) const {
  // Minimum member: 10-byte header + nonempty deflate body + 8-byte trailer.
  if (input.size() < 19) {
    throw DecodeError("gzip member too short");
  }
  if (input[0] != kMagic1 || input[1] != kMagic2) {
    throw DecodeError("bad gzip magic");
  }
  if (input[2] != kMethodDeflate) {
    throw DecodeError("unsupported gzip compression method");
  }
  const Byte flags = input[3];
  size_t pos = 10;
  if (flags & kFlagExtra) {
    if (pos + 2 > input.size()) throw DecodeError("truncated gzip FEXTRA");
    const std::uint16_t xlen = LoadLE<std::uint16_t>(input.data() + pos);
    pos += 2 + xlen;
  }
  for (const Byte f : {kFlagName, kFlagComment}) {
    if (flags & f) {
      while (pos < input.size() && input[pos] != 0) ++pos;
      ++pos;  // NUL terminator
    }
  }
  if (flags & kFlagHcrc) pos += 2;
  if (pos >= input.size()) throw DecodeError("truncated gzip header");

  size_t body_consumed = 0;
  Bytes out =
      InflateRaw(input.subspan(pos), size_hint, &body_consumed, max_output);
  const size_t trailer = pos + body_consumed;
  if (trailer + 8 > input.size()) {
    throw DecodeError("truncated gzip trailer");
  }
  const std::uint32_t crc = LoadLE<std::uint32_t>(input.data() + trailer);
  const std::uint32_t isize = LoadLE<std::uint32_t>(input.data() + trailer + 4);
  if (crc != Crc32(out)) {
    throw DecodeError("gzip CRC mismatch");
  }
  if (isize != static_cast<std::uint32_t>(out.size())) {
    throw DecodeError("gzip ISIZE mismatch");
  }
  return out;
}

}  // namespace vizndp::compress
