// Snapshot merge algebra for fleet aggregation: N per-node scrapes fold
// into one fleet view. The operation is per canonical name —
// counter-sum, gauge-by-policy, bucket-wise histogram add — and, for the
// policies that are themselves commutative monoids (sum/max/min), the
// whole merge is associative, permutation-invariant, and has the empty
// snapshot as identity (property tests in tests/fleet_test.cc).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vizndp::obs {

enum class GaugeMergePolicy { kSum, kMax, kMin };

struct MergeOptions {
  // Picks the merge policy per gauge *base* name (labels stripped);
  // null = sum everything. Sums are right for occupancy gauges
  // (inflight, parked, mem-in-use); maxima for clocks.
  std::function<GaugeMergePolicy(const std::string& base)> gauge_policy;
};

// Merges per-source snapshots into one, keyed by canonical name and
// sorted by it (so input order never shows in the output). Counters sum;
// gauges follow the policy; histograms add bucket-wise when bounds match
// (on a bounds mismatch the first-merged shape wins and the conflicting
// series is dropped — mixed-version fleets degrade, they don't throw).
// Exemplars keep the worst observation; window_seconds takes the max.
// A kind conflict under one name keeps the first-merged kind.
std::vector<MetricSnapshot> MergeSnapshots(
    const std::vector<std::vector<MetricSnapshot>>& sources,
    const MergeOptions& options = {});

// Folds one extra label into every canonical name ("x{a=b}" + node=2 ->
// "x{a=b,node=2}"), for fleet expositions that must keep per-node series
// distinguishable (the prom output of `vizndp_tool top`).
std::vector<MetricSnapshot> WithLabel(std::vector<MetricSnapshot> snapshot,
                                      const std::string& key,
                                      const std::string& value);

// The fleet default: the two process clocks (wall time, uptime) take
// the max across nodes; every other gauge this tree exports is an
// occupancy and sums.
GaugeMergePolicy DefaultFleetGaugePolicy(const std::string& base);

}  // namespace vizndp::obs
