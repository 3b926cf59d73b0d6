// Raw DEFLATE (RFC 1951) streams — the bare compressed format without
// framing. GzipCodec wraps these with the RFC 1952 member format.
#pragma once

#include "common/bytes.h"

namespace vizndp::compress {

// Produces a complete raw DEFLATE stream for `input`, with the match
// search of zlib's default level 6.
Bytes DeflateCompress(ByteSpan input);

// Inflates a complete raw DEFLATE stream. `size_hint` (optional) reserves
// the output buffer. Throws DecodeError on malformed input. When
// `consumed` is non-null it receives the number of input bytes the stream
// occupied (gzip members need this to locate their trailer).
// `max_output` is a hard ceiling on the inflated size (0 = the codec
// default budget): a hostile stream that tries to inflate past it is
// rejected with DecodeError instead of exhausting memory.
Bytes InflateRaw(ByteSpan input, size_t size_hint = 0,
                 size_t* consumed = nullptr, size_t max_output = 0);

}  // namespace vizndp::compress
