// Codec interface used by the file format, the object store, and the NDP
// pipeline. Mirrors VTK's pluggable data compressors: the paper evaluates
// GZip and LZ4, both reimplemented here from scratch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace vizndp::compress {

// Ceiling applied when a caller passes max_output = 0: decoders run on
// hostile input (a VND blob is whatever the store returned), so "no cap"
// really means "the largest output any legitimate array produces here".
inline constexpr size_t kDefaultDecompressBudget = size_t{1} << 30;  // 1 GiB

inline size_t ResolveOutputBudget(size_t max_output) {
  return max_output != 0 ? max_output : kDefaultDecompressBudget;
}

class Codec {
 public:
  virtual ~Codec() = default;

  // Stable identifier persisted in file headers ("none", "gzip", "lz4").
  virtual std::string name() const = 0;

  virtual Bytes Compress(ByteSpan input) const = 0;

  // `size_hint`, when nonzero, is the expected decompressed size; codecs
  // may use it to reserve output. `max_output` is a hard ceiling on the
  // decompressed size (0 = kDefaultDecompressBudget): input claiming or
  // producing more is rejected with DecodeError *before* the allocation,
  // so a hostile length field cannot OOM the process. Throws DecodeError
  // on corrupt input.
  virtual Bytes Decompress(ByteSpan input, size_t size_hint = 0,
                           size_t max_output = 0) const = 0;

  // Decompresses into exactly `out`, which is both the expected size and
  // the output budget: input that decodes to any other size is rejected
  // with DecodeError. The default decodes with Decompress and copies
  // once; a codec that can write in place overrides it.
  virtual void DecompressInto(ByteSpan input, MutableByteSpan out) const;
};

using CodecPtr = std::shared_ptr<const Codec>;

// The identity codec ("none").
class NullCodec final : public Codec {
 public:
  std::string name() const override { return "none"; }
  Bytes Compress(ByteSpan input) const override {
    return Bytes(input.begin(), input.end());
  }
  Bytes Decompress(ByteSpan input, size_t,
                   size_t max_output = 0) const override {
    if (input.size() > ResolveOutputBudget(max_output)) {
      throw DecodeError("stored data exceeds output budget");
    }
    return Bytes(input.begin(), input.end());
  }
};

// Factory over registered codec names. Throws Error for unknown names.
CodecPtr MakeCodec(const std::string& name);

// Names accepted by MakeCodec, in registration order.
std::vector<std::string> RegisteredCodecNames();

}  // namespace vizndp::compress
