// Process observability, half two: a tracing layer. RAII Span objects
// feed a per-process ring buffer of complete ("ph":"X") events that
// exports chrome://tracing / Perfetto-compatible JSON, so one NDP fetch
// renders as nested read → decompress → select → pack → transfer →
// decode → scatter spans across "server" and "client" tracks.
//
// Distributed traces: when the calling thread carries a TraceContext
// (see obs/context.h), every Span allocates a span id, parents itself
// under the context's span, and tags its event with the trace id. The
// tagged events survive ExtractSubtree/Inject round trips, so a storage
// node's spans merge into the client's buffer still carrying their
// identity, and Collect can copy one request's spans out of the ring.
//
// Cost model: a Span always reads the monotonic clock (so phase timings
// like NdpLoadStats can be populated from spans even when tracing is
// off), but it only touches the buffer — one mutex'd push — when the
// tracer is enabled. Disabled tracing with no installed context is
// therefore two clock reads plus one thread-local branch per span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"

namespace vizndp::obs {

struct TraceEvent {
  std::string name;
  std::uint32_t track = 0;    // index into the tracer's track table
  std::uint64_t start_us = 0; // microseconds since the tracer's epoch
  std::uint64_t dur_us = 0;
  // Distributed-trace identity; all zero for untagged events.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

// A drained event carries its track *name* so it can cross a process
// boundary (the reply piggyback ships these from storage node to
// client).
struct DrainedEvent {
  std::string name;
  std::string track;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on = true) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Names the calling thread's track ("server", "client"); events
  // recorded from this thread land on it. Unnamed threads get an
  // auto-assigned "thread-N" track at first record.
  void SetThreadTrack(const std::string& name);

  // Records one complete span; oldest events are overwritten once the
  // ring is full. No-op while disabled. `ctx` carries the span's
  // distributed identity ({} = untagged).
  void Record(std::string name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);
  struct SpanIds {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
  };
  void Record(std::string name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, const SpanIds& ids);

  // Records a foreign event verbatim on the named track — used to merge
  // a scraped storage-node trace into the client's buffer. Ignores the
  // enabled flag (the caller already decided to collect).
  void Inject(const std::string& track, std::string name,
              std::uint64_t start_us, std::uint64_t dur_us,
              const SpanIds& ids);
  void Inject(const std::string& track, std::string name,
              std::uint64_t start_us, std::uint64_t dur_us) {
    Inject(track, std::move(name), start_us, dur_us, SpanIds());
  }

  // Returns the buffered events (oldest first) and clears the buffer.
  std::vector<DrainedEvent> Drain();

  // Non-destructive copy of the events tagged with `trace_id`.
  std::vector<DrainedEvent> Collect(std::uint64_t trace_id) const;

  // Removes and returns the events of `trace_id` that descend from
  // `root_span_id`, leaving everything else buffered. This is how a reply
  // piggyback *moves* one attempt's server spans to the client instead
  // of copying them (so a shared in-proc tracer never sees duplicates).
  // Only the subtree moves: when client and server share one in-proc
  // tracer, taking the whole trace would also steal the client's
  // already-recorded spans from *earlier attempts* of the same trace and
  // re-inject them clock-shifted. The server half of one attempt is
  // exactly the subtree under the request ctx's span.
  std::vector<DrainedEvent> ExtractSubtree(std::uint64_t trace_id,
                                           std::uint64_t root_span_id);

  void Clear();
  size_t event_count() const;
  std::uint64_t NowMicros() const;

  // {"traceEvents":[...]} with thread_name metadata per named track,
  // events sorted by timestamp, and trace/span identity exported under
  // "args" for tagged events. Load in chrome://tracing or Perfetto.
  void WriteChromeJson(std::ostream& os) const;
  std::string ChromeJson() const;

 private:
  std::uint32_t ThreadTrackLocked();
  std::uint32_t TrackIdLocked(const std::string& name);
  void PushLocked(TraceEvent event);
  std::vector<TraceEvent> Linearized() const;  // oldest first; mu_ held

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t ring_next_ = 0;  // overwrite cursor once events_ hits capacity_
  std::vector<std::string> track_names_;
  std::map<std::thread::id, std::uint32_t> thread_tracks_;
};

// The process tracer every instrumented layer records into.
Tracer& GlobalTracer();

// RAII span: captures the clock at construction, records on End() (or
// destruction) when the tracer is enabled. ElapsedSeconds() works either
// way, which is how NdpLoadStats is populated from spans.
//
// When the thread carries a valid TraceContext, the span allocates its
// own span id, parents under the context's span, and installs itself as
// the thread's current span until End() — so nested Spans form the
// parent chain a merged trace renders.
class Span {
 public:
  explicit Span(std::string name, Tracer& tracer = GlobalTracer());

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { End(); }

  // Idempotent; later calls keep the first end time.
  void End();

  double ElapsedSeconds() const {
    const auto end = ended_ ? end_ : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start_).count();
  }

  // This span's distributed identity (span_id 0 when untagged).
  std::uint64_t span_id() const { return ids_.span_id; }
  std::uint64_t trace_id() const { return ids_.trace_id; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point end_;
  bool ended_ = false;
  bool scoped_ = false;  // installed itself as the thread's current span
  Tracer::SpanIds ids_;
  TraceContext saved_;   // restored at End() when scoped_
};

}  // namespace vizndp::obs
