#include "cluster/fleet_scraper.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "obs/windowed.h"

namespace vizndp::cluster {

namespace {

std::string NodeTag(int node) { return std::to_string(node); }

// Counter families the per-node error ratio is computed over: dispatch
// errors plus overload sheds, against everything dispatched.
constexpr const char* kErrorFamilies[] = {"rpc_errors_total",
                                          "rpc_busy_rejected_total"};

// Sums one counter family (all label series) in a live snapshot.
double SumFamily(const std::vector<obs::MetricSnapshot>& snapshot,
                 const std::string& family) {
  double sum = 0;
  std::string base;
  obs::Labels labels;
  for (const obs::MetricSnapshot& s : snapshot) {
    if (s.kind != obs::MetricSnapshot::Kind::kCounter) continue;
    obs::ParseCanonicalName(s.name, &base, &labels);
    if (base == family) sum += s.value;
  }
  return sum;
}

// Same over a previous sweep's canonical-name -> value map.
double SumFamilyPrev(const std::map<std::string, double>& counters,
                     const std::string& family) {
  double sum = 0;
  std::string base;
  obs::Labels labels;
  for (const auto& [name, value] : counters) {
    obs::ParseCanonicalName(name, &base, &labels);
    if (base == family) sum += value;
  }
  return sum;
}

}  // namespace

std::vector<obs::SloObjective> DefaultFleetObjectives(double p99_ms,
                                                      double max_error_ratio,
                                                      double window_s) {
  std::vector<obs::SloObjective> out;
  obs::SloObjective latency;
  latency.name = "select-p99";
  latency.latency_histogram = "ndp_select_seconds";
  latency.latency_threshold_s = p99_ms / 1e3;
  latency.max_bad_ratio = 0.01;
  latency.short_window_s = window_s;
  latency.long_window_s = 5 * window_s;
  latency.budget_window_s = 60 * window_s;
  out.push_back(std::move(latency));
  obs::SloObjective avail;
  avail.name = "availability";
  avail.error_counter = "fleet_scrape_failed_total";
  avail.total_counter = "fleet_scrape_total";
  avail.max_bad_ratio = max_error_ratio;
  avail.short_window_s = window_s;
  avail.long_window_s = 5 * window_s;
  avail.budget_window_s = 60 * window_s;
  out.push_back(std::move(avail));
  return out;
}

FleetScraper::FleetScraper(std::vector<std::shared_ptr<ndp::NdpClient>> nodes,
                           FleetScraperOptions options)
    : nodes_(std::move(nodes)),
      options_(std::move(options)),
      slo_(options_.objectives),
      prev_counters_(nodes_.size()),
      prev_mono_(nodes_.size(), 0.0),
      slow_(nodes_.size(), false) {
  VIZNDP_CHECK_MSG(!nodes_.empty(), "fleet scraper needs nodes");
  for (size_t i = 0; i < nodes_.size(); ++i) {
    slow_audits_.emplace_back(
        obs::DefaultRegistry(), "cluster_slow_node_total",
        obs::Labels{{"node", NodeTag(static_cast<int>(i))}},
        "cluster.slow_node");
  }
}

std::shared_ptr<const FleetScraper::FleetSnapshot>
FleetScraper::ScrapeOnce() {
  std::lock_guard sweep_lk(scrape_mu_);
  auto snap = std::make_shared<FleetSnapshot>();
  snap->epoch = ++epoch_;
  snap->wall_s = obs::WallTimeSeconds();
  snap->mono_s = obs::ProcessUptimeSeconds();

  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeSample ns;
    ns.node = static_cast<int>(i);
    const obs::Labels node_label = {{"node", NodeTag(ns.node)}};
    metrics_.GetCounter("fleet_scrape_total", node_label).Increment();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      ns.metrics = nodes_[i]->ScrapeMetrics();
      ns.health = nodes_[i]->Health();
      ns.reachable = true;
    } catch (const std::exception&) {
      ns.reachable = false;
    }
    ns.scrape_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    metrics_
        .GetWindowedHistogram("fleet_scrape_seconds", obs::LatencyBounds(),
                              node_label)
        .Observe(ns.scrape_seconds);
    if (!ns.reachable) {
      metrics_.GetCounter("fleet_scrape_failed_total", node_label)
          .Increment();
    } else {
      snap->reachable++;
      if (ns.health.window_present) {
        ns.window_p50 = ns.health.window_p50;
        ns.window_p95 = ns.health.window_p95;
        ns.window_p99 = ns.health.window_p99;
        ns.window_count = ns.health.window_count;
      }
      // Rates and the error ratio: deltas against this node's previous
      // sweep, clamped at zero so a restart (counter reset) reads as
      // quiet, not as a negative storm.
      const double dt = snap->mono_s - prev_mono_[i];
      std::map<std::string, double> counters;
      for (const obs::MetricSnapshot& s : ns.metrics) {
        if (s.kind == obs::MetricSnapshot::Kind::kCounter) {
          counters[s.name] = s.value;
        }
      }
      if (prev_mono_[i] > 0 && dt > 0) {
        for (const auto& [name, value] : counters) {
          const auto prev = prev_counters_[i].find(name);
          const double before =
              prev == prev_counters_[i].end() ? 0.0 : prev->second;
          ns.rates[name] = std::max(0.0, value - before) / dt;
        }
        double derr = 0;
        for (const char* family : kErrorFamilies) {
          derr += std::max(0.0, SumFamily(ns.metrics, family) -
                                    SumFamilyPrev(prev_counters_[i], family));
        }
        const double dtotal =
            std::max(0.0, SumFamily(ns.metrics, "rpc_requests_total") -
                              SumFamilyPrev(prev_counters_[i],
                                            "rpc_requests_total"));
        ns.error_ratio = dtotal > 0 ? derr / dtotal : 0;
      }
      prev_counters_[i] = std::move(counters);
      prev_mono_[i] = snap->mono_s;
    }
    snap->nodes.push_back(std::move(ns));
  }

  // Slow-node outliers: each node's windowed p95 against the fleet
  // median. The node's own select window is the primary signal; the
  // scrape RTT window stands in when the node serves too little traffic
  // to have one (and catches network-path slowness the node cannot see
  // from inside).
  std::vector<double> signals(nodes_.size(), 0.0);
  std::vector<double> population;
  for (const NodeSample& ns : snap->nodes) {
    if (!ns.reachable) continue;
    double signal = 0;
    if (ns.window_count >= options_.slow_min_samples) {
      signal = ns.window_p95;
    } else {
      const obs::MetricSnapshot rtt =
          metrics_
              .GetWindowedHistogram("fleet_scrape_seconds",
                                    obs::LatencyBounds(),
                                    {{"node", NodeTag(ns.node)}})
              .WindowSnapshot();
      if (rtt.count >= options_.slow_min_samples) {
        signal = obs::SnapshotQuantile(rtt, 0.95);
      }
    }
    signals[static_cast<size_t>(ns.node)] = signal;
    if (signal > 0) population.push_back(signal);
  }
  double median = 0;
  if (population.size() >= 2) {
    std::sort(population.begin(), population.end());
    median = population[population.size() / 2];
  }
  for (NodeSample& ns : snap->nodes) {
    const size_t i = static_cast<size_t>(ns.node);
    const bool now_slow = ns.reachable && median > 0 && signals[i] > 0 &&
                          signals[i] > options_.slow_factor * median;
    if (now_slow && !slow_[i]) {
      // Edge-triggered: one counter increment and one journal event per
      // transition into slow.
      std::ostringstream detail;
      detail << "node=" << ns.node << " p95_s=" << signals[i]
             << " fleet_median_s=" << median;
      slow_audits_[i].Record(detail.str());
    }
    slow_[i] = now_slow;
    ns.slow = now_slow;
  }

  // Fleet merge: the scraper's own registry plus every reachable node,
  // so scrape failures are first-class error events for the SLO layer.
  std::vector<std::vector<obs::MetricSnapshot>> sources;
  sources.push_back(metrics_.Snapshot());
  for (const NodeSample& ns : snap->nodes) {
    if (ns.reachable) sources.push_back(ns.metrics);
  }
  obs::MergeOptions merge_options;
  merge_options.gauge_policy = obs::DefaultFleetGaugePolicy;
  snap->merged = obs::MergeSnapshots(sources, merge_options);

  snap->slo = slo_.Evaluate(snap->merged, snap->mono_s);
  return snap;
}

namespace {

// Fleet-merged windowed select quantiles, or zeros while cold.
struct FleetWindow {
  std::uint64_t count = 0;
  double seconds = 0, p50 = 0, p95 = 0, p99 = 0;
};

FleetWindow MergedWindow(const FleetScraper::FleetSnapshot& snapshot) {
  FleetWindow w;
  if (const obs::MetricSnapshot* m = obs::FindMetric(
          snapshot.merged, obs::WindowedName("ndp_select_seconds"))) {
    w.count = m->count;
    w.seconds = m->window_seconds;
    w.p50 = obs::SnapshotQuantile(*m, 0.50);
    w.p95 = obs::SnapshotQuantile(*m, 0.95);
    w.p99 = obs::SnapshotQuantile(*m, 0.99);
  }
  return w;
}

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

std::string FleetSnapshotJson(const FleetScraper::FleetSnapshot& snapshot) {
  std::ostringstream out;
  // Full double precision: consumers diff wall_s between two snapshots
  // to compute rates, and six significant digits would round an epoch
  // timestamp to the nearest ~thousand seconds.
  out << std::setprecision(15);
  out << "{\"epoch\":" << snapshot.epoch << ",\"wall_s\":" << snapshot.wall_s
      << ",\"mono_s\":" << snapshot.mono_s
      << ",\"reachable\":" << snapshot.reachable
      << ",\"nodes\":" << snapshot.nodes.size() << ",\"per_node\":[";
  bool first = true;
  for (const FleetScraper::NodeSample& ns : snapshot.nodes) {
    if (!first) out << ",";
    first = false;
    out << "{\"node\":" << ns.node
        << ",\"reachable\":" << (ns.reachable ? "true" : "false")
        << ",\"scrape_s\":" << ns.scrape_seconds;
    if (ns.reachable) {
      out << ",\"draining\":" << (ns.health.draining ? "true" : "false")
          << ",\"inflight\":" << ns.health.inflight
          << ",\"mem_in_use\":" << ns.health.mem_in_use
          << ",\"mem_limit\":" << ns.health.mem_limit
          << ",\"node_id\":" << ns.health.node_id
          << ",\"view_epoch\":" << ns.health.view_epoch
          << ",\"uptime_s\":" << ns.health.uptime_s
          << ",\"error_ratio\":" << ns.error_ratio
          << ",\"slow\":" << (ns.slow ? "true" : "false");
      if (ns.health.window_present) {
        out << ",\"window\":{\"seconds\":" << ns.health.window_seconds
            << ",\"count\":" << ns.window_count << ",\"p50_s\":" << ns.window_p50
            << ",\"p95_s\":" << ns.window_p95 << ",\"p99_s\":" << ns.window_p99
            << "}";
      }
      if (ns.health.scrub_present) {
        out << ",\"scrub\":{\"running\":"
            << (ns.health.scrub_running ? "true" : "false")
            << ",\"passes\":" << ns.health.scrub_passes
            << ",\"corrupt_found\":" << ns.health.scrub_corrupt_found
            << ",\"quarantined\":" << ns.health.scrub_quarantined << "}";
      }
    }
    out << "}";
  }
  const FleetWindow fleet = MergedWindow(snapshot);
  out << "],\"fleet_window\":{\"seconds\":" << fleet.seconds
      << ",\"count\":" << fleet.count << ",\"p50_s\":" << fleet.p50
      << ",\"p95_s\":" << fleet.p95 << ",\"p99_s\":" << fleet.p99
      << "},\"slo\":[";
  first = true;
  for (const obs::SloStatus& s : snapshot.slo) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << obs::JsonEscape(s.name)
        << "\",\"budget_remaining\":" << s.budget_remaining
        << ",\"burn_short\":" << s.burn_short
        << ",\"burn_long\":" << s.burn_long
        << ",\"total_events\":" << s.total_events
        << ",\"alerting\":" << (s.alerting ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

std::string FleetSnapshotProm(const FleetScraper::FleetSnapshot& snapshot) {
  // Per-node series carry node="<i>"; the scraper's own families
  // (fleet_scrape_*) already label by node and pass through from the
  // merge untouched, since no node exports them.
  std::vector<obs::MetricSnapshot> all;
  for (const FleetScraper::NodeSample& ns : snapshot.nodes) {
    if (!ns.reachable) continue;
    std::vector<obs::MetricSnapshot> labeled =
        obs::WithLabel(ns.metrics, "node", NodeTag(ns.node));
    all.insert(all.end(), std::make_move_iterator(labeled.begin()),
               std::make_move_iterator(labeled.end()));
  }
  std::string base;
  obs::Labels labels;
  for (const obs::MetricSnapshot& s : snapshot.merged) {
    obs::ParseCanonicalName(s.name, &base, &labels);
    if (base.rfind("fleet_scrape", 0) == 0) all.push_back(s);
  }
  return obs::SnapshotToProm(all);
}

std::string FleetSnapshotText(const FleetScraper::FleetSnapshot& snapshot) {
  std::ostringstream out;
  out << "fleet epoch " << snapshot.epoch << "  reachable "
      << snapshot.reachable << "/" << snapshot.nodes.size() << std::fixed
      << std::setprecision(1) << "  wall " << snapshot.wall_s << "\n";
  out << std::left << std::setw(5) << "NODE" << std::setw(7) << "STATE"
      << std::right << std::setw(7) << "EPOCH" << std::setw(7) << "INFL"
      << std::setw(7) << "MEM%" << std::setw(9) << "P50ms" << std::setw(9)
      << "P95ms" << std::setw(9) << "P99ms" << std::setw(8) << "ERR%"
      << std::setw(7) << "SCRUB" << "\n";
  for (const FleetScraper::NodeSample& ns : snapshot.nodes) {
    out << std::left << std::setw(5) << ns.node;
    const char* state = !ns.reachable  ? "down"
                        : ns.slow      ? "slow"
                        : ns.health.draining ? "drain"
                                             : "ok";
    out << std::setw(7) << state << std::right;
    if (!ns.reachable) {
      out << std::setw(7) << "-" << std::setw(7) << "-" << std::setw(7) << "-"
          << std::setw(9) << "-" << std::setw(9) << "-" << std::setw(9) << "-"
          << std::setw(8) << "-" << std::setw(7) << "-" << "\n";
      continue;
    }
    out << std::setw(7) << ns.health.view_epoch << std::setw(7)
        << ns.health.inflight;
    if (ns.health.mem_limit > 0) {
      out << std::setw(6) << std::setprecision(0)
          << 100.0 * static_cast<double>(ns.health.mem_in_use) /
                 static_cast<double>(ns.health.mem_limit)
          << "%";
    } else {
      out << std::setw(7) << "-";
    }
    out << std::setprecision(2);
    if (ns.health.window_present && ns.window_count > 0) {
      out << std::setw(9) << Ms(ns.window_p50) << std::setw(9)
          << Ms(ns.window_p95) << std::setw(9) << Ms(ns.window_p99);
    } else {
      out << std::setw(9) << "-" << std::setw(9) << "-" << std::setw(9) << "-";
    }
    out << std::setw(7) << std::setprecision(2) << 100.0 * ns.error_ratio
        << "%";
    if (ns.health.scrub_present) {
      out << std::setw(6) << "q" << ns.health.scrub_quarantined;
    } else {
      out << std::setw(7) << "-";
    }
    out << "\n";
  }
  const FleetWindow fleet = MergedWindow(snapshot);
  out << std::left << std::setw(5) << "fleet" << std::setw(7) << ""
      << std::right << std::setw(7) << "-" << std::setw(7) << "-"
      << std::setw(7) << "-" << std::setprecision(2);
  if (fleet.count > 0) {
    out << std::setw(9) << Ms(fleet.p50) << std::setw(9) << Ms(fleet.p95)
        << std::setw(9) << Ms(fleet.p99);
  } else {
    out << std::setw(9) << "-" << std::setw(9) << "-" << std::setw(9) << "-";
  }
  out << std::setw(8) << "-" << std::setw(7) << "-" << "\n";
  for (const obs::SloStatus& s : snapshot.slo) {
    out << "slo " << s.name << ": budget " << std::setprecision(1)
        << 100.0 * s.budget_remaining << "%  burn " << std::setprecision(2)
        << s.burn_short << "/" << s.burn_long << "  "
        << (s.alerting ? "ALERT" : "ok") << "\n";
  }
  return out.str();
}

}  // namespace vizndp::cluster
