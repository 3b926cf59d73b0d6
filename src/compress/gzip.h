// GZip member format (RFC 1952) over our raw DEFLATE implementation:
// 10-byte header, deflate body, CRC-32 + ISIZE trailer. This is the
// "GZip" baseline the paper evaluates (VTK's vtkZLibDataCompressor
// equivalent).
#pragma once

#include "compress/codec.h"

namespace vizndp::compress {

class GzipCodec final : public Codec {
 public:
  std::string name() const override { return "gzip"; }
  Bytes Compress(ByteSpan input) const override;
  Bytes Decompress(ByteSpan input, size_t size_hint = 0,
                   size_t max_output = 0) const override;
};

}  // namespace vizndp::compress
