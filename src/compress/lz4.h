// LZ4 block format (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md)
// implemented from scratch: token-per-sequence byte-oriented LZ77 with
// 16-bit offsets, the fast/low-ratio baseline the paper evaluates.
//
// The on-disk form used by this codec prefixes the raw LZ4 block with the
// 8-byte little-endian decompressed size, since the block format itself
// does not record it.
#pragma once

#include "compress/codec.h"

namespace vizndp::compress {

class Lz4Codec final : public Codec {
 public:
  std::string name() const override { return "lz4"; }
  Bytes Compress(ByteSpan input) const override;
  Bytes Decompress(ByteSpan input, size_t size_hint = 0,
                   size_t max_output = 0) const override;
  // Also rejects a frame whose declared size differs from out.size().
  void DecompressInto(ByteSpan input, MutableByteSpan out) const override;
};

// Raw block routines (no size prefix), exposed for tests. The decoder
// fills exactly `out`: a block that would write past its end is
// rejected mid-decode and one that ends short is rejected at the end,
// so the buffer doubles as the allocation bound (the codec checks the
// declared size against the output budget before allocating it).
Bytes Lz4CompressBlock(ByteSpan input);
void Lz4DecompressBlock(ByteSpan block, MutableByteSpan out);

}  // namespace vizndp::compress
