#include "compress/codec.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"
#include "compress/gzip.h"
#include "compress/lz4.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vizndp::compress {

namespace {

// Decorator recording per-codec traffic and latency into the
// process-default registry (codecs are shared substrate — callers range
// from the VND reader to the object store, so there is no per-instance
// owner). Spans nest inside whatever phase span is active, which is how
// "codec.decompress:lz4" shows up inside "ndp.read" in a trace.
class InstrumentedCodec final : public Codec {
 public:
  explicit InstrumentedCodec(CodecPtr inner)
      : inner_(std::move(inner)),
        labels_{{"codec", inner_->name()}},
        compress_bytes_(obs::DefaultRegistry().GetCounter(
            "codec_compress_bytes_total", labels_)),
        decompress_bytes_(obs::DefaultRegistry().GetCounter(
            "codec_decompress_bytes_total", labels_)),
        compress_seconds_(obs::DefaultRegistry().GetHistogram(
            "codec_compress_seconds", obs::LatencyBounds(), labels_)),
        decompress_seconds_(obs::DefaultRegistry().GetHistogram(
            "codec_decompress_seconds", obs::LatencyBounds(), labels_)) {}

  std::string name() const override { return inner_->name(); }

  Bytes Compress(ByteSpan input) const override {
    obs::Span span("codec.compress:" + inner_->name());
    Bytes out = inner_->Compress(input);
    span.End();
    compress_bytes_.Increment(input.size());
    compress_seconds_.Observe(span.ElapsedSeconds());
    return out;
  }

  Bytes Decompress(ByteSpan input, size_t size_hint,
                   size_t max_output) const override {
    obs::Span span("codec.decompress:" + inner_->name());
    Bytes out = inner_->Decompress(input, size_hint, max_output);
    span.End();
    decompress_bytes_.Increment(out.size());
    decompress_seconds_.Observe(span.ElapsedSeconds());
    return out;
  }

  void DecompressInto(ByteSpan input, MutableByteSpan out) const override {
    obs::Span span("codec.decompress:" + inner_->name());
    inner_->DecompressInto(input, out);
    span.End();
    decompress_bytes_.Increment(out.size());
    decompress_seconds_.Observe(span.ElapsedSeconds());
  }

 private:
  CodecPtr inner_;
  obs::Labels labels_;
  obs::Counter& compress_bytes_;
  obs::Counter& decompress_bytes_;
  obs::Histogram& compress_seconds_;
  obs::Histogram& decompress_seconds_;
};

CodecPtr MakeRawCodec(const std::string& name) {
  if (name == "none") return std::make_shared<NullCodec>();
  if (name == "gzip") return std::make_shared<GzipCodec>();
  if (name == "lz4") return std::make_shared<Lz4Codec>();
  throw Error("unknown codec: '" + name + "'");
}

}  // namespace

void Codec::DecompressInto(ByteSpan input, MutableByteSpan out) const {
  const Bytes decoded = Decompress(input, out.size(), out.size());
  if (decoded.size() != out.size()) {
    throw DecodeError(name() + " decoded " + std::to_string(decoded.size()) +
                      " bytes into a " + std::to_string(out.size()) +
                      "-byte buffer");
  }
  std::copy(decoded.begin(), decoded.end(), out.begin());
}

CodecPtr MakeCodec(const std::string& name) {
  return std::make_shared<InstrumentedCodec>(MakeRawCodec(name));
}

std::vector<std::string> RegisteredCodecNames() {
  return {"none", "gzip", "lz4"};
}

}  // namespace vizndp::compress
