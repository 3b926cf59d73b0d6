// SLO tracking over scraped metric snapshots: declarative objectives
// ("fetch p99 <= 250 ms", "error rate <= 2%") evaluated with the SRE
// multi-window burn-rate model.
//
// Every objective reduces to a bad-event ratio. Latency objectives count
// bad events straight off cumulative histogram buckets (observations
// above the threshold, interpolating inside the straddling bucket);
// error objectives are an error-counter / total-counter pair. Each
// Evaluate diffs the cumulative snapshot against the previous one, so
// the tracker owns its own time windows and the scrape cadence never
// double-counts. Burn rate = (bad ratio over a window) / (allowed
// ratio); an alert fires when both the short and long windows burn hot —
// fast enough to page on a real outage, two windows so a single spike
// can't. Error budget: the fraction of allowed bad events left over the
// trailing budget_window.
//
// Alerts are edge-triggered and audited the same way the cluster and
// storage layers are: one obs::Audit per objective moves
// slo_burn_alert_total{slo=...} and one "slo.burn_alert" journal event
// together, and symmetrically for slo.burn_clear.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace vizndp::obs {

struct SloObjective {
  std::string name;  // label value on the alert counters

  // Latency form: cumulative histogram family (base name; all label
  // series of that family sum) and the threshold defining a bad event.
  // Overflow-bucket mass always counts as bad — its values are unknown
  // but above every finite bound.
  std::string latency_histogram;
  double latency_threshold_s = 0;

  // Error form: bad = error counter family, total = total counter
  // family. Used when total_counter is non-empty.
  std::string error_counter;
  std::string total_counter;

  // The objective itself: bad/total must stay <= max_bad_ratio.
  double max_bad_ratio = 0.01;

  // Multi-window burn alerting. Defaults follow the SRE-book fast-burn
  // page (14.4x / 2x are the classic 1h/6h pair scaled down).
  double short_window_s = 60;
  double long_window_s = 300;
  double short_burn_threshold = 10;
  double long_burn_threshold = 2;
  // Error budget accounting horizon.
  double budget_window_s = 3600;
  // Events required in the short window before an alert may fire — a
  // fleet serving nothing has no SLO signal, only noise.
  std::uint64_t min_samples = 4;
};

struct SloStatus {
  std::string name;
  double bad_ratio_short = 0;
  double bad_ratio_long = 0;
  double burn_short = 0;   // bad_ratio_short / max_bad_ratio
  double burn_long = 0;
  double budget_remaining = 1.0;  // in [0,1] over budget_window_s
  double total_events = 0;        // events in the budget window
  bool alerting = false;
};

class SloTracker {
 public:
  // Counters land in `registry` (default: the process registry) and
  // events in `journal` (default: the global journal) so the chaos
  // audit sees them where it audits everything else.
  explicit SloTracker(std::vector<SloObjective> objectives,
                      Registry* registry = nullptr,
                      EventLog* journal = nullptr);

  // Feeds one scrape. `snapshot` carries *cumulative* series (the merge
  // of a fleet scrape); `now_s` is any monotonic clock in seconds —
  // explicit so tests drive the windows deterministically. Returns the
  // per-objective status after this evaluation.
  std::vector<SloStatus> Evaluate(const std::vector<MetricSnapshot>& snapshot,
                                  double now_s);

 private:
  struct Sample {
    double t = 0;
    double bad = 0;
    double total = 0;
  };
  struct State {
    Audit alert;  // slo_burn_alert_total{slo} + slo.burn_alert
    Audit clear;  // slo_burn_clear_total{slo} + slo.burn_clear
    bool have_prev = false;
    double prev_bad = 0;
    double prev_total = 0;
    std::deque<Sample> samples{};  // trailing budget_window_s
    bool alerting = false;
  };

  std::vector<SloObjective> objectives_;
  std::mutex mu_;
  std::vector<State> states_;
};

// Bad/total event counts an objective sees in a cumulative snapshot
// (before differencing). Exposed for tests.
void SloEventCounts(const SloObjective& objective,
                    const std::vector<MetricSnapshot>& snapshot, double* bad,
                    double* total);

}  // namespace vizndp::obs
