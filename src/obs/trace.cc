#include "obs/trace.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/metrics.h"

namespace vizndp::obs {

namespace {

std::uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                            std::chrono::steady_clock::time_point b) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(capacity > 0 ? capacity : 1) {}

std::uint32_t Tracer::TrackIdLocked(const std::string& name) {
  for (size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  track_names_.push_back(name);
  return static_cast<std::uint32_t>(track_names_.size() - 1);
}

std::uint32_t Tracer::ThreadTrackLocked() {
  const auto id = std::this_thread::get_id();
  const auto it = thread_tracks_.find(id);
  if (it != thread_tracks_.end()) return it->second;
  const std::uint32_t track =
      TrackIdLocked("thread-" + std::to_string(thread_tracks_.size()));
  thread_tracks_.emplace(id, track);
  return track;
}

void Tracer::SetThreadTrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_tracks_[std::this_thread::get_id()] = TrackIdLocked(name);
}

void Tracer::PushLocked(TraceEvent event) {
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
  } else {
    events_[ring_next_] = std::move(event);
    ring_next_ = (ring_next_ + 1) % capacity_;
  }
}

void Tracer::Record(std::string name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  Record(std::move(name), start, end, SpanIds{});
}

void Tracer::Record(std::string name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    const SpanIds& ids) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  // Both endpoints truncate against the same epoch before the duration
  // is formed; flooring start and duration independently could push a
  // nested span's rounded end past its parent's by a microsecond.
  event.start_us = MicrosBetween(epoch_, start);
  const std::uint64_t end_us = MicrosBetween(epoch_, end);
  event.dur_us = end_us > event.start_us ? end_us - event.start_us : 0;
  event.trace_id = ids.trace_id;
  event.span_id = ids.span_id;
  event.parent_span_id = ids.parent_span_id;
  std::lock_guard<std::mutex> lock(mu_);
  event.track = ThreadTrackLocked();
  PushLocked(std::move(event));
}

void Tracer::Inject(const std::string& track, std::string name,
                    std::uint64_t start_us, std::uint64_t dur_us,
                    const SpanIds& ids) {
  TraceEvent event;
  event.name = std::move(name);
  event.start_us = start_us;
  event.dur_us = dur_us;
  event.trace_id = ids.trace_id;
  event.span_id = ids.span_id;
  event.parent_span_id = ids.parent_span_id;
  std::lock_guard<std::mutex> lock(mu_);
  event.track = TrackIdLocked(track);
  PushLocked(std::move(event));
}

std::vector<TraceEvent> Tracer::Linearized() const {
  std::vector<TraceEvent> out;
  const size_t n = events_.size();
  out.reserve(n);
  const size_t first = n < capacity_ ? 0 : ring_next_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(events_[(first + i) % n]);
  }
  return out;
}

namespace {

DrainedEvent ToDrained(const TraceEvent& e,
                       const std::vector<std::string>& tracks) {
  DrainedEvent d;
  d.name = e.name;
  d.track = e.track < tracks.size() ? tracks[e.track] : "thread-?";
  d.start_us = e.start_us;
  d.dur_us = e.dur_us;
  d.trace_id = e.trace_id;
  d.span_id = e.span_id;
  d.parent_span_id = e.parent_span_id;
  return d;
}

}  // namespace

std::vector<DrainedEvent> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DrainedEvent> out;
  out.reserve(events_.size());
  for (const TraceEvent& e : Linearized()) {
    out.push_back(ToDrained(e, track_names_));
  }
  events_.clear();
  ring_next_ = 0;
  return out;
}

std::vector<DrainedEvent> Tracer::Collect(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DrainedEvent> out;
  for (const TraceEvent& e : Linearized()) {
    if (e.trace_id == trace_id) out.push_back(ToDrained(e, track_names_));
  }
  return out;
}

std::vector<DrainedEvent> Tracer::ExtractSubtree(std::uint64_t trace_id,
                                                 std::uint64_t root_span_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<TraceEvent> all = Linearized();
  // Fixpoint over the parent relation: children End() (and thus record)
  // before their parents, so a single pass in buffer order is not enough.
  std::vector<bool> in_subtree(all.size(), false);
  std::vector<std::uint64_t> member_spans{root_span_id};
  bool grew = true;
  while (grew) {
    grew = false;
    for (size_t i = 0; i < all.size(); ++i) {
      if (in_subtree[i] || all[i].trace_id != trace_id) continue;
      if (all[i].span_id == 0) continue;
      for (const std::uint64_t parent : member_spans) {
        if (all[i].parent_span_id == parent) {
          in_subtree[i] = true;
          member_spans.push_back(all[i].span_id);
          grew = true;
          break;
        }
      }
    }
  }
  std::vector<DrainedEvent> out;
  std::vector<TraceEvent> rest;
  for (size_t i = 0; i < all.size(); ++i) {
    if (in_subtree[i]) {
      out.push_back(ToDrained(all[i], track_names_));
    } else {
      rest.push_back(all[i]);
    }
  }
  events_ = std::move(rest);
  ring_next_ = 0;
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  ring_next_ = 0;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t Tracer::NowMicros() const {
  return MicrosBetween(epoch_, std::chrono::steady_clock::now());
}

void Tracer::WriteChromeJson(std::ostream& os) const {
  std::vector<TraceEvent> events;
  std::vector<std::string> tracks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
    tracks = track_names_;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  os << "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < tracks.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
       << ",\"args\":{\"name\":\"" << JsonEscape(tracks[i]) << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(e.name)
       << "\",\"ph\":\"X\",\"ts\":" << e.start_us << ",\"dur\":" << e.dur_us
       << ",\"pid\":1,\"tid\":" << e.track;
    if (e.trace_id != 0) {
      os << ",\"args\":{\"trace_id\":\"" << TraceIdHex(e.trace_id)
         << "\",\"span_id\":" << e.span_id << ",\"parent_span_id\":"
         << e.parent_span_id << "}";
    }
    os << "}";
  }
  os << "]}";
}

std::string Tracer::ChromeJson() const {
  std::ostringstream os;
  WriteChromeJson(os);
  return os.str();
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all users
  return *tracer;
}

Span::Span(std::string name, Tracer& tracer)
    : tracer_(tracer),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {
  const TraceContext& cur = CurrentTraceContext();
  if (cur.valid()) {
    ids_.trace_id = cur.trace_id;
    ids_.parent_span_id = cur.span_id;
    ids_.span_id = NextSpanId();
    saved_ = cur;
    TraceContext mine = cur;
    mine.span_id = ids_.span_id;
    // Install via the scoped mechanism by hand: Span outlives lexical
    // scopes awkwardly (End() may come before destruction), so it
    // restores in End() rather than a nested ScopedTraceContext.
    internal_SetCurrentTraceContext(mine);
    scoped_ = true;
  }
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  end_ = std::chrono::steady_clock::now();
  if (scoped_) {
    internal_SetCurrentTraceContext(saved_);
    scoped_ = false;
  }
  tracer_.Record(std::move(name_), start_, end_, ids_);
}

}  // namespace vizndp::obs
