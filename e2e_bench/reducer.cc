#include "reducer.h"

#include <algorithm>
#include <unordered_map>

namespace vizndp::e2e {

namespace {

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// Length of the union of `parts`, each clipped to `within`.
std::uint64_t CoveredUs(std::vector<Interval> parts, Interval within) {
  for (Interval& p : parts) {
    p.start = std::clamp(p.start, within.start, within.end);
    p.end = std::clamp(p.end, within.start, within.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = within.start;
  for (const Interval& p : parts) {
    const std::uint64_t from = std::max(p.start, reach);
    if (p.end > from) {
      covered += p.end - from;
      reach = p.end;
    }
  }
  return covered;
}

Interval Of(const obs::DrainedEvent& e) {
  return {e.start_us, e.start_us + e.dur_us};
}

double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

std::string LayerOf(std::string_view span_name) {
  const std::string_view head =
      span_name.substr(0, span_name.find_first_of(".:"));
  if (head == "gateway") return "storage";
  if (head == "codec") return "compress";
  if (head == "wire") return "net";
  static const std::string_view kLayers[] = {
      "storage", "compress", "ndp", "rpc", "net", "contour", "cluster", "obs"};
  for (const std::string_view layer : kLayers) {
    if (head == layer) return std::string(layer);
  }
  return "";
}

Reduction Reduce(const std::vector<obs::DrainedEvent>& all) {
  std::unordered_map<std::uint64_t, size_t> by_id;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].span_id != 0) by_id.emplace(all[i].span_id, i);
  }
  // The RPC client derives its wire pseudo-spans from one round trip's
  // four clock samples, assuming the client reads the reply as soon as
  // it arrives. A streaming client reads chunks while it scatters, so
  // under rpc.stream: the "wire" legs hold client backlog; drop them.
  std::vector<obs::DrainedEvent> events;
  events.reserve(all.size());
  for (const obs::DrainedEvent& e : all) {
    const auto parent = by_id.find(e.parent_span_id);
    const bool stream_wire = StartsWith(e.name, "wire:") &&
                             parent != by_id.end() &&
                             StartsWith(all[parent->second].name, "rpc.stream:");
    if (!stream_wire) events.push_back(e);
  }
  by_id.clear();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_id.emplace(events[i].span_id, i);
  }
  std::vector<std::vector<size_t>> children(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const auto parent = by_id.find(events[i].parent_span_id);
    if (events[i].parent_span_id != 0 && parent != by_id.end() &&
        parent->second != i) {
      children[parent->second].push_back(i);
    }
  }

  Reduction out;
  out.spans.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    std::vector<Interval> parts;
    parts.reserve(children[i].size());
    for (const size_t c : children[i]) parts.push_back(Of(events[c]));
    ReducedSpan span;
    span.name = events[i].name;
    span.layer = LayerOf(span.name);
    span.dur_ms = Ms(events[i].dur_us);
    span.self_ms = Ms(events[i].dur_us - CoveredUs(parts, Of(events[i])));
    if (span.layer.empty()) out.unattributed_ms += span.self_ms;
    out.spans.push_back(std::move(span));
  }

  // Client wait: walk down from each client RPC span through the
  // attempt and wire spans, stopping at the server's dispatch and at any
  // non-RPC span (client work running inside a stream's callbacks).
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string_view name = events[i].name;
    if (!StartsWith(name, "rpc.call:") && !StartsWith(name, "rpc.stream:")) {
      continue;
    }
    std::vector<Interval> stops;
    std::vector<size_t> todo = children[i];
    while (!todo.empty()) {
      const size_t c = todo.back();
      todo.pop_back();
      const std::string_view cname = events[c].name;
      const bool pass_through =
          !StartsWith(cname, "rpc.dispatch:") &&
          (StartsWith(cname, "rpc.") || StartsWith(cname, "wire:"));
      if (pass_through) {
        todo.insert(todo.end(), children[c].begin(), children[c].end());
      } else {
        stops.push_back(Of(events[c]));
      }
    }
    out.client_wait_ms +=
        Ms(events[i].dur_us - CoveredUs(std::move(stops), Of(events[i])));
  }
  return out;
}

double Reduction::SumMs(std::string_view prefix) const {
  double total = 0;
  for (const ReducedSpan& s : spans) {
    if (StartsWith(s.name, prefix)) total += s.dur_ms;
  }
  return total;
}

double Reduction::SelfMs(std::string_view prefix) const {
  double total = 0;
  for (const ReducedSpan& s : spans) {
    if (StartsWith(s.name, prefix)) total += s.self_ms;
  }
  return total;
}

std::uint64_t Reduction::Count(std::string_view prefix) const {
  std::uint64_t n = 0;
  for (const ReducedSpan& s : spans) {
    if (StartsWith(s.name, prefix)) ++n;
  }
  return n;
}

std::vector<double> Reduction::Durations(std::string_view prefix) const {
  std::vector<double> out;
  for (const ReducedSpan& s : spans) {
    if (StartsWith(s.name, prefix)) out.push_back(s.dur_ms);
  }
  return out;
}

std::map<std::string, double> Reduction::LayerSelfMs() const {
  std::map<std::string, double> out;
  for (const ReducedSpan& s : spans) {
    if (!s.layer.empty()) out[s.layer] += s.self_ms;
  }
  return out;
}

}  // namespace vizndp::e2e
