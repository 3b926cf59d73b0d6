#include "cluster/health_monitor.h"

#include <string>
#include <utility>

#include "common/error.h"
#include "net/retry.h"
#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vizndp::cluster {

// Probes and view changes are journal-only records, not error paths.
const obs::Audit kRejoin("cluster_rejoin_total", "cluster.rejoin");

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kLive: return "live";
    case NodeState::kSuspect: return "suspect";
    case NodeState::kDead: return "dead";
    case NodeState::kRejoining: return "rejoining";
  }
  return "?";
}

std::string FleetView::ToString() const {
  std::string out;
  for (size_t i = 0; i < states.size(); ++i) {
    if (i > 0) out += ",";
    out += NodeStateName(states[i]);
  }
  return out;
}

HealthMonitor::HealthMonitor(
    std::vector<std::shared_ptr<ndp::NdpClient>> probes,
    HealthMonitorOptions options)
    : probes_(std::move(probes)),
      options_(options),
      cells_(probes_.size()) {
  VIZNDP_CHECK_MSG(!probes_.empty(), "health monitor needs probe clients");
  VIZNDP_CHECK_MSG(options_.suspect_after >= 1 && options_.dead_after >= 1 &&
                       options_.rejoin_after >= 1,
                   "health monitor thresholds must be >= 1");
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::SetViewSink(ViewSink sink) {
  std::lock_guard lk(mu_);
  sink_ = std::move(sink);
}

bool HealthMonitor::Advance(NodeCell& cell, bool healthy,
                            const HealthMonitorOptions& options) {
  const NodeState before = cell.state;
  switch (cell.state) {
    case NodeState::kLive:
      if (healthy) {
        if (cell.suspicion > 0) --cell.suspicion;
      } else if (++cell.suspicion >= options.suspect_after) {
        cell.state = NodeState::kSuspect;
      }
      break;
    case NodeState::kSuspect:
      if (healthy) {
        // Decay: one clean probe does not fully absolve a node that
        // failed several — it climbs back the way it fell.
        if (--cell.suspicion <= 0) {
          cell.suspicion = 0;
          cell.state = NodeState::kLive;
        }
      } else if (++cell.suspicion >= options.dead_after) {
        cell.state = NodeState::kDead;
      }
      break;
    case NodeState::kDead:
      if (healthy) {
        cell.state = NodeState::kRejoining;
        cell.healthy_streak = 1;
        if (cell.healthy_streak >= options.rejoin_after) {
          cell.state = NodeState::kLive;
          cell.suspicion = 0;
        }
      }
      break;
    case NodeState::kRejoining:
      if (healthy) {
        if (++cell.healthy_streak >= options.rejoin_after) {
          cell.state = NodeState::kLive;
          cell.suspicion = 0;
        }
      } else {
        // One bad probe mid-rejoin restarts the gate: flapping nodes
        // never make it back into placement.
        cell.state = NodeState::kDead;
        cell.healthy_streak = 0;
        cell.suspicion = options.dead_after;
      }
      break;
  }
  return cell.state != before;
}

bool HealthMonitor::ProbeOnce() {
  std::lock_guard probe_lk(probe_mu_);
  obs::Span sweep("cluster.probe");
  obs::Registry& reg = obs::DefaultRegistry();
  const std::uint64_t epoch = view() != nullptr ? view()->epoch : 0;
  bool changed = false;
  for (size_t i = 0; i < probes_.size(); ++i) {
    bool healthy = false;
    std::uint64_t node_id = 0;
    try {
      const ndp::NdpClient::HealthReport h = probes_[i]->Health(epoch);
      healthy = !h.draining;  // a draining node is leaving: treat as down
      node_id = h.node_id;
    } catch (const Error&) {
      healthy = false;  // unreachable / timed out / shed
    }
    reg.GetCounter("cluster_probe_total",
                   {{"result", healthy ? "ok" : "fail"}})
        .Increment();

    NodeCell& cell = cells_[i];
    const NodeState before = cell.state;
    if (healthy && node_id != 0) {
      if (cell.identity != 0 && node_id != cell.identity &&
          NodeUsable(cell.state)) {
        // The node restarted between two probes without ever looking
        // dead. It is up but fresh (empty caches, possibly mid-warmup):
        // walk it through the rejoin gate like any other returner.
        cell.state = NodeState::kRejoining;
        cell.healthy_streak = 0;
        cell.suspicion = 0;
      }
      cell.identity = node_id;
    }
    Advance(cell, healthy, options_);

    // Journal the probes that carry information: failures of a node not
    // yet given up on, and successes of a node not fully trusted. The
    // healthy steady state stays quiet.
    const bool interesting = healthy ? before != NodeState::kLive
                                     : before != NodeState::kDead;
    if (interesting) {
      obs::GlobalEventLog().Append(
          "cluster.probe", "server=" + std::to_string(i) +
                               " result=" + (healthy ? "ok" : "fail") +
                               " state=" + NodeStateName(cell.state));
    }
    if (cell.state != before) {
      changed = true;
      reg.GetCounter("cluster_node_state_changes_total",
                     {{"to", NodeStateName(cell.state)}})
          .Increment();
      if (cell.state == NodeState::kLive &&
          (before == NodeState::kDead || before == NodeState::kRejoining)) {
        kRejoin.Record("server=" + std::to_string(i));
      }
    }
  }
  if (changed) Publish();
  return changed;
}

void HealthMonitor::Publish() {
  auto next = std::make_shared<FleetView>();
  next->states.reserve(cells_.size());
  for (const NodeCell& cell : cells_) next->states.push_back(cell.state);
  ViewSink sink;
  {
    std::lock_guard lk(mu_);
    next->epoch = ++epoch_;
    view_ = next;
    sink = sink_;
  }
  obs::DefaultRegistry().GetGauge("cluster_view_epoch")
      .Set(static_cast<double>(next->epoch));
  obs::GlobalEventLog().Append(
      "cluster.view_change",
      "epoch=" + std::to_string(next->epoch) + " states=" + next->ToString());
  if (sink) sink(next);
}

std::shared_ptr<const FleetView> HealthMonitor::view() const {
  std::lock_guard lk(mu_);
  return view_;
}

bool HealthMonitor::running() const {
  std::lock_guard lk(run_mu_);
  return running_;
}

std::chrono::microseconds HealthMonitor::JitteredPeriod(
    std::uint64_t tick) const {
  const auto base =
      std::chrono::duration_cast<std::chrono::microseconds>(options_.period);
  // Seeded jitter: uniform in [1 - j, 1 + j] as a pure function of
  // (seed, tick), so a fixed-seed run sleeps the same schedule every
  // time and distinct monitors decorrelate.
  const std::uint64_t r = net::MixBits(options_.seed ^ (tick * 0x9E3779B97F4A7C15ull));
  const double u = static_cast<double>(r >> 11) / 9007199254740992.0;  // [0,1)
  const double scale = 1.0 + options_.jitter_frac * (2.0 * u - 1.0);
  auto out = std::chrono::microseconds(
      static_cast<std::int64_t>(static_cast<double>(base.count()) * scale));
  return out.count() > 0 ? out : std::chrono::microseconds(1);
}

void HealthMonitor::Start() {
  {
    std::lock_guard lk(run_mu_);
    if (running_) return;
    running_ = true;
  }
  {
    // Epoch 1: everyone starts live; the first sweep corrects that
    // within one period if reality disagrees.
    std::lock_guard probe_lk(probe_mu_);
    Publish();
  }
  thread_ = std::thread([this] { Loop(); });
}

void HealthMonitor::Stop() {
  {
    std::lock_guard lk(run_mu_);
    if (!running_) return;
    running_ = false;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthMonitor::Loop() {
  std::uint64_t tick = 0;
  for (;;) {
    {
      std::unique_lock lk(run_mu_);
      run_cv_.wait_for(lk, JitteredPeriod(++tick),
                       [this] { return !running_; });
      if (!running_) return;
    }
    ProbeOnce();
  }
}

}  // namespace vizndp::cluster
