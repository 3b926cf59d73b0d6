#include "obs/merge.h"

#include <algorithm>
#include <map>
#include <utility>

namespace vizndp::obs {

namespace {

void MergeInto(MetricSnapshot& into, const MetricSnapshot& from,
               const MergeOptions& options) {
  if (from.kind != into.kind) return;  // first-merged kind wins
  switch (into.kind) {
    case MetricSnapshot::Kind::kCounter:
      into.value += from.value;
      return;
    case MetricSnapshot::Kind::kGauge: {
      GaugeMergePolicy policy = GaugeMergePolicy::kSum;
      if (options.gauge_policy) {
        std::string base;
        Labels labels;
        ParseCanonicalName(into.name, &base, &labels);
        policy = options.gauge_policy(base);
      }
      switch (policy) {
        case GaugeMergePolicy::kSum: into.value += from.value; return;
        case GaugeMergePolicy::kMax:
          into.value = std::max(into.value, from.value);
          return;
        case GaugeMergePolicy::kMin:
          into.value = std::min(into.value, from.value);
          return;
      }
      return;
    }
    case MetricSnapshot::Kind::kHistogram: {
      if (from.bounds != into.bounds ||
          from.buckets.size() != into.buckets.size()) {
        return;  // shape conflict: drop the stranger
      }
      into.value += from.value;
      into.count += from.count;
      for (size_t i = 0; i < into.buckets.size(); ++i) {
        into.buckets[i] += from.buckets[i];
      }
      // Worst observation across the fleet; trace id breaks ties so the
      // result is input-order independent.
      if (from.exemplar_value > into.exemplar_value ||
          (from.exemplar_value == into.exemplar_value &&
           from.exemplar_trace_id > into.exemplar_trace_id)) {
        into.exemplar_value = from.exemplar_value;
        into.exemplar_trace_id = from.exemplar_trace_id;
      }
      into.window_seconds = std::max(into.window_seconds, from.window_seconds);
      return;
    }
  }
}

}  // namespace

std::vector<MetricSnapshot> MergeSnapshots(
    const std::vector<std::vector<MetricSnapshot>>& sources,
    const MergeOptions& options) {
  std::map<std::string, MetricSnapshot> merged;
  for (const std::vector<MetricSnapshot>& source : sources) {
    for (const MetricSnapshot& s : source) {
      auto [it, inserted] = merged.emplace(s.name, s);
      if (!inserted) MergeInto(it->second, s, options);
    }
  }
  std::vector<MetricSnapshot> out;
  out.reserve(merged.size());
  for (auto& [name, s] : merged) out.push_back(std::move(s));
  return out;
}

std::vector<MetricSnapshot> WithLabel(std::vector<MetricSnapshot> snapshot,
                                      const std::string& key,
                                      const std::string& value) {
  for (MetricSnapshot& s : snapshot) {
    std::string base;
    Labels labels;
    ParseCanonicalName(s.name, &base, &labels);
    labels.emplace_back(key, value);
    s.name = Registry::CanonicalName(base, labels);
  }
  return snapshot;
}

GaugeMergePolicy DefaultFleetGaugePolicy(const std::string& base) {
  if (base == "process_wall_time_seconds" ||
      base == "process_uptime_seconds") {
    return GaugeMergePolicy::kMax;
  }
  return GaugeMergePolicy::kSum;
}

}  // namespace vizndp::obs
