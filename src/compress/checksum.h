// CRC-32 (IEEE, as used by gzip).
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace vizndp::compress {

// Incremental CRC-32: pass the previous return value as `crc` to continue.
std::uint32_t Crc32(ByteSpan data, std::uint32_t crc = 0);

// Streaming CRC-32 (init/update/final) for multi-GB blobs that never sit
// in one buffer: a VND writer checksums each compressed brick as it is
// appended, a verifier can walk a blob in chunks. `value()` may be read
// at any point — it is the CRC of everything updated so far — and
// `Reset()` starts a fresh stream.
class Crc32Stream {
 public:
  void Update(ByteSpan data) { crc_ = Crc32(data, crc_); }
  std::uint32_t value() const { return crc_; }
  void Reset() { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace vizndp::compress
