// Structured per-request event journal — the decision points spans
// cannot express. A span says *how long* the second ndp.select attempt
// took; the event log says *why there was* a second attempt (the first
// one timed out), that the server shed it as busy, that a brick failed
// its CRC and was re-read, and that the client finally degraded to the
// baseline path. Every error path appends exactly one event here, with
// its counter, through an obs::Audit (obs/audit.h).
//
// Events inherit the calling thread's TraceContext, so one fetch's whole
// decision sequence is recoverable with Events(trace_id) even when
// client and server share a process (the in-proc testbed).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vizndp::obs {

struct LogEvent {
  std::uint64_t seq = 0;       // global append order, never reused
  std::uint64_t trace_id = 0;  // 0 = not request-scoped
  std::uint64_t span_id = 0;   // innermost span at append time
  std::uint64_t ts_us = 0;     // microseconds since the log's epoch
  std::string name;            // dotted event name, e.g. "rpc.timeout"
  std::string detail;          // free-form "k=v k=v" context
};

class EventLog {
 public:
  explicit EventLog(size_t capacity = 4096);

  // Oldest-first copy; trace_id 0 returns everything.
  std::vector<LogEvent> Events(std::uint64_t trace_id = 0) const;

  // Sequence number of the most recent event (0 when empty) — take it
  // as a baseline, then CountSince(name, baseline) counts the events of
  // one kind appended afterwards (and still in the ring). The chaos
  // harness audits counter deltas against these.
  std::uint64_t LastSeq() const;
  size_t CountSince(std::string_view name, std::uint64_t after_seq) const;

  void Clear();
  size_t size() const;

  // JSON array of {seq, trace_id (hex), ts, name, detail}; trace_id 0
  // exports everything.
  std::string Json(std::uint64_t trace_id = 0) const;

 private:
  // Appends one event tagged with the thread's current TraceContext.
  // Always on — decision points are rare enough that the one mutex'd
  // push is noise next to the failure that triggered them. Private so
  // that Audit::Record, which moves the event's counter with it, is the
  // only way in.
  friend class Audit;
  void Append(std::string name, std::string detail = {});

  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<LogEvent> events_;
  size_t ring_next_ = 0;
  std::uint64_t next_seq_ = 1;
  std::chrono::steady_clock::time_point epoch_;
};

// Process-wide journal every instrumented layer appends to.
EventLog& GlobalEventLog();

}  // namespace vizndp::obs
