// Traced-run reducer: turns one request's spans (the program's own plus
// the benchmark's root and contour.post spans) into a span forest and
// then into per-span self times, per-layer sums and the time no span
// covers. Self time is a span's duration minus the union of its
// children's intervals, each clipped to the parent, so parallel children
// (shard fan-out) are not double-subtracted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace vizndp::e2e {

// The src/ module a span name belongs to, or "" for spans no layer
// claims (the benchmark's request root). The span's first name token
// names its module, except for the gateway (storage), the codecs
// (compress) and the wire pseudo-spans the RPC client derives from its
// clock samples (net).
std::string LayerOf(std::string_view span_name);

struct ReducedSpan {
  std::string name;
  std::string layer;
  double dur_ms = 0;
  double self_ms = 0;
};

struct Reduction {
  std::vector<ReducedSpan> spans;
  // Self time of spans no layer claims: the request time that no layer
  // span covers.
  double unattributed_ms = 0;
  // For every rpc.call:/rpc.stream: span, its duration minus the part
  // covered by the server's dispatch and by client work nested in it
  // (stream callbacks): encode, decode and wire time the client waits.
  double client_wait_ms = 0;

  // Queries over spans whose name starts with `prefix`.
  double SumMs(std::string_view prefix) const;
  double SelfMs(std::string_view prefix) const;
  std::uint64_t Count(std::string_view prefix) const;
  std::vector<double> Durations(std::string_view prefix) const;
  // Self time summed per layer.
  std::map<std::string, double> LayerSelfMs() const;
};

// Reduces the events of one trace. Events whose parent is absent are
// treated as roots. Wire pseudo-spans of streamed calls are dropped.
Reduction Reduce(const std::vector<obs::DrainedEvent>& events);

}  // namespace vizndp::e2e
