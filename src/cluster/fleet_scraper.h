// Fleet-wide metric aggregation: one synchronous sweep that its caller
// paces (`vizndp_tool top` sleeps --interval-ms between sweeps, the
// chaos harness sweeps at fixed points of a schedule). A sweep pulls
// ndp.metrics + ndp.health from every node over dedicated per-node
// channels (the HealthMonitor discipline, never the data path),
// computes per-node counter rates since the previous sweep, merges the
// per-node snapshots into one fleet view (obs/merge.h), evaluates the
// SLO tracker against it, and returns the whole thing as an
// epoch-stamped immutable FleetSnapshot. `vizndp_tool top` renders
// these; scripts consume the FleetSnapshotJson/FleetSnapshotProm forms.
//
// Two control loops close here:
//   - SLO tracking: the embedded SloTracker burns against the merged
//     view, so scrape failures count as availability errors.
//   - slow-node outlier detection: a node whose windowed p95 (its own
//     ndp_select_seconds_window, or the scrape RTT when the node serves
//     too little to have one) exceeds slow_factor x the fleet median is
//     flagged — edge-triggered cluster_slow_node_total{node} +
//     "cluster.slow_node" journal pair, cleared symmetrically.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ndp/ndp_client.h"
#include "obs/audit.h"
#include "obs/merge.h"
#include "obs/slo.h"

namespace vizndp::cluster {

struct FleetScraperOptions {
  // Slow-node rule: windowed p95 > slow_factor x fleet median p95, with
  // at least slow_min_samples observations behind the node's window.
  double slow_factor = 3.0;
  std::uint64_t slow_min_samples = 8;
  // Objectives handed to the embedded SloTracker; empty = no SLOs.
  std::vector<obs::SloObjective> objectives;
};

// Default fleet objectives for `vizndp_tool top` and the chaos harness:
// pre-filter p99 <= p99_ms, and scrape availability (failed scrapes /
// attempted scrapes) <= max_error_ratio, both with `window_s`-scaled
// burn windows so tests and short chaos schedules converge quickly.
std::vector<obs::SloObjective> DefaultFleetObjectives(
    double p99_ms = 250.0, double max_error_ratio = 0.02,
    double window_s = 30.0);

class FleetScraper {
 public:
  struct NodeSample {
    int node = -1;
    bool reachable = false;
    double scrape_seconds = 0;  // RPC round-trip cost of this scrape
    ndp::NdpClient::HealthReport health;          // valid iff reachable
    std::vector<obs::MetricSnapshot> metrics;     // raw node scrape
    // Counter rates (events/second since the previous sweep), keyed by
    // canonical name; empty on the first sweep and while unreachable.
    std::map<std::string, double> rates;
    // Windowed pre-filter quantiles as the node reported them.
    double window_p50 = 0, window_p95 = 0, window_p99 = 0;
    std::uint64_t window_count = 0;
    // rpc error fraction since the previous sweep.
    double error_ratio = 0;
    bool slow = false;  // flagged by the outlier rule this sweep
  };

  struct FleetSnapshot {
    std::uint64_t epoch = 0;  // one per sweep, monotonic
    double wall_s = 0;
    double mono_s = 0;
    std::vector<NodeSample> nodes;
    // MergeSnapshots over every reachable node + the scraper's own
    // registry (scrape counters, per-node RTT windows), fleet policy.
    std::vector<obs::MetricSnapshot> merged;
    std::vector<obs::SloStatus> slo;
    int reachable = 0;
  };

  // `nodes[i]` must talk to fleet node i on its own dedicated channel
  // with a finite call_timeout (scraping a dead node must fail fast,
  // not hang the sweep).
  explicit FleetScraper(std::vector<std::shared_ptr<ndp::NdpClient>> nodes,
                        FleetScraperOptions options = {});

  FleetScraper(const FleetScraper&) = delete;
  FleetScraper& operator=(const FleetScraper&) = delete;

  // One synchronous sweep; concurrent calls run one at a time, since
  // rates and the slow-node edge compare against the previous sweep.
  // The scraper's own series (fleet_scrape_total{node},
  // fleet_scrape_failed_total{node}, windowed fleet_scrape_seconds{node})
  // are merged into every snapshot, so the availability objective in
  // DefaultFleetObjectives sees scrape failures as error events.
  std::shared_ptr<const FleetSnapshot> ScrapeOnce();

 private:
  std::vector<std::shared_ptr<ndp::NdpClient>> nodes_;
  FleetScraperOptions options_;
  obs::Registry metrics_;
  obs::SloTracker slo_;

  std::mutex scrape_mu_;  // serializes ScrapeOnce (prev-sweep state)
  std::uint64_t epoch_ = 0;
  std::vector<std::map<std::string, double>> prev_counters_;
  std::vector<double> prev_mono_;   // per-node last-scrape time, 0 = none
  std::vector<bool> slow_;          // edge-trigger state per node
  std::vector<obs::Audit> slow_audits_;  // cluster_slow_node_total{node}
};

// Renderers shared by `vizndp_tool top` and tests.
std::string FleetSnapshotJson(const FleetScraper::FleetSnapshot& snapshot);
// Merged Prometheus exposition: every node's series with a node="<i>"
// label, the scraper's own registry unlabeled, one # TYPE per family.
std::string FleetSnapshotProm(const FleetScraper::FleetSnapshot& snapshot);
// The dashboard table (one header + one row per node + a fleet row).
std::string FleetSnapshotText(const FleetScraper::FleetSnapshot& snapshot);

}  // namespace vizndp::cluster
