#include "obs/slo.h"

#include <algorithm>
#include <sstream>

namespace vizndp::obs {

namespace {

// Events <= threshold in one histogram snapshot, interpolating linearly
// inside the straddling bucket (the same model SnapshotQuantile uses, in
// the other direction).
double CountAtOrBelow(const MetricSnapshot& s, double threshold) {
  double below = 0;
  for (size_t i = 0; i < s.buckets.size(); ++i) {
    if (s.buckets[i] == 0) continue;
    if (i >= s.bounds.size()) break;  // overflow: all above any threshold
    const double hi = s.bounds[i];
    if (hi <= threshold) {
      below += static_cast<double>(s.buckets[i]);
      continue;
    }
    const double lo = i == 0 ? 0 : s.bounds[i - 1];
    if (threshold > lo && hi > lo) {
      below += static_cast<double>(s.buckets[i]) * (threshold - lo) / (hi - lo);
    }
    break;  // ascending bounds: nothing further fits
  }
  return below;
}

double BucketTotal(const MetricSnapshot& s) {
  double total = 0;
  for (const std::uint64_t b : s.buckets) total += static_cast<double>(b);
  return total;
}

// Sums a counter family (all label series of `family`) in a snapshot.
double SumCounterFamily(const std::vector<MetricSnapshot>& snapshot,
                        const std::string& family) {
  double sum = 0;
  std::string base;
  Labels labels;
  for (const MetricSnapshot& s : snapshot) {
    if (s.kind != MetricSnapshot::Kind::kCounter) continue;
    ParseCanonicalName(s.name, &base, &labels);
    if (base == family) sum += s.value;
  }
  return sum;
}

struct WindowAgg {
  double bad = 0;
  double total = 0;
  double Ratio() const { return total > 0 ? bad / total : 0; }
};

}  // namespace

void SloEventCounts(const SloObjective& objective,
                    const std::vector<MetricSnapshot>& snapshot, double* bad,
                    double* total) {
  *bad = 0;
  *total = 0;
  if (!objective.total_counter.empty()) {
    *bad = SumCounterFamily(snapshot, objective.error_counter);
    *total = SumCounterFamily(snapshot, objective.total_counter);
    return;
  }
  std::string base;
  Labels labels;
  for (const MetricSnapshot& s : snapshot) {
    if (s.kind != MetricSnapshot::Kind::kHistogram) continue;
    if (s.window_seconds > 0) continue;  // cumulative series only
    ParseCanonicalName(s.name, &base, &labels);
    if (base != objective.latency_histogram) continue;
    const double n = BucketTotal(s);
    *total += n;
    *bad += n - CountAtOrBelow(s, objective.latency_threshold_s);
  }
}

SloTracker::SloTracker(std::vector<SloObjective> objectives,
                       Registry* registry, EventLog* journal)
    : objectives_(std::move(objectives)) {
  Registry& reg = registry != nullptr ? *registry : DefaultRegistry();
  for (const SloObjective& o : objectives_) {
    const Labels slo = {{"slo", o.name}};
    states_.push_back(State{
        .alert = Audit(reg, "slo_burn_alert_total", slo, "slo.burn_alert",
                       journal),
        .clear = Audit(reg, "slo_burn_clear_total", slo, "slo.burn_clear",
                       journal)});
  }
}

std::vector<SloStatus> SloTracker::Evaluate(
    const std::vector<MetricSnapshot>& snapshot, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(objectives_.size());
  for (size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    State& st = states_[i];
    double bad = 0, total = 0;
    SloEventCounts(o, snapshot, &bad, &total);
    if (st.have_prev) {
      // Counter resets (a node restarted) clamp to zero instead of
      // poisoning the window with a huge negative delta.
      const double dbad = std::max(0.0, bad - st.prev_bad);
      const double dtotal = std::max(0.0, total - st.prev_total);
      st.samples.push_back({now_s, dbad, dtotal});
    }
    st.have_prev = true;
    st.prev_bad = bad;
    st.prev_total = total;
    while (!st.samples.empty() &&
           st.samples.front().t < now_s - o.budget_window_s) {
      st.samples.pop_front();
    }

    WindowAgg w_short, w_long, w_budget;
    for (const Sample& sm : st.samples) {
      w_budget.bad += sm.bad;
      w_budget.total += sm.total;
      if (sm.t >= now_s - o.long_window_s) {
        w_long.bad += sm.bad;
        w_long.total += sm.total;
      }
      if (sm.t >= now_s - o.short_window_s) {
        w_short.bad += sm.bad;
        w_short.total += sm.total;
      }
    }

    SloStatus status;
    status.name = o.name;
    status.bad_ratio_short = w_short.Ratio();
    status.bad_ratio_long = w_long.Ratio();
    const double allowed = o.max_bad_ratio > 0 ? o.max_bad_ratio : 1.0;
    status.burn_short = status.bad_ratio_short / allowed;
    status.burn_long = status.bad_ratio_long / allowed;
    status.total_events = w_budget.total;
    if (w_budget.total > 0) {
      const double budget = allowed * w_budget.total;
      status.budget_remaining =
          std::clamp(1.0 - w_budget.bad / budget, 0.0, 1.0);
    }

    const bool hot = status.burn_short >= o.short_burn_threshold &&
                     status.burn_long >= o.long_burn_threshold &&
                     w_short.total >= static_cast<double>(o.min_samples);
    if (hot && !st.alerting) {
      st.alerting = true;
      std::ostringstream detail;
      detail << "slo=" << o.name << " burn_short=" << status.burn_short
             << " burn_long=" << status.burn_long
             << " budget_remaining=" << status.budget_remaining;
      st.alert.Record(detail.str());
    } else if (!hot && st.alerting && status.burn_short < 1.0) {
      // Hysteresis: clear only once the short window burns below 1x, so
      // a flapping burn rate near the threshold stays one alert.
      st.alerting = false;
      std::ostringstream detail;
      detail << "slo=" << o.name
             << " budget_remaining=" << status.budget_remaining;
      st.clear.Record(detail.str());
    }
    status.alerting = st.alerting;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace vizndp::obs
