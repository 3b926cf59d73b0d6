// Seeded chaos harness for the self-healing serving tier: drives a
// ClusterTestbed + HealthMonitor through randomized schedules of
// kill / restart / delay / corrupt / busy faults — plus disk faults
// against the shared store (transient EIO storms sized to the retry
// ladder, slow-disk windows) — mid-request-stream, and checks the
// tier's contract after every fetch:
//
//   1. geometry bit-identical to the pre-chaos single-server oracle
//      (the paper's invariant: degradation may cost time, never bits);
//   2. fleet-view epochs monotone;
//   3. the one-counter-one-event audit: every counter family in the
//      obs::Audit catalog moved exactly as many times as its journal
//      events (failover, hedge, rescue, rejoin, store retry, ...);
//   4. no parked-hedge leaks (cluster_hedge_parked drains to zero when
//      the schedule's client is gone);
//   5. a restarted node is observed serving traffic again;
//   6. a full bit-rot round trip per schedule: rot planted at rest is
//      quarantined by every node's scrubber, a clean re-Put serves
//      through the quarantine-skip path bit-identically, and the next
//      scrub pass re-admits the brick on every node;
//   7. the observability plane closes the loop: a FleetScraper on its
//      own per-node channels sweeps through the step-0 kill, whose
//      failed scrapes must burn the availability SLO (slo.burn_alert
//      fires), and after the recovery tail good sweeps must age the
//      burst out of the budget window (alert clears, budget restored).
//
// Determinism: every schedule decision comes from FuzzRng(seed, index),
// so `vizndp_tool chaos --seed S` replays the same fault sequence — a
// CI failure reproduces locally byte-for-byte. (Races inside a schedule
// are real; the *faults* are not random between runs.)
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vizndp::testing {

struct ChaosOptions {
  std::uint64_t seed = 1;
  int schedules = 20;
  // Fault steps per schedule; steps 0 and 1 are always a kill and the
  // matching restart (the headline path must appear in every schedule),
  // the rest draw from {kill, restart, delay, corrupt, busy, quiet,
  // store_eio, store_slow}.
  int steps = 8;
  // Gateway retry ladder on every node; EIO storms are sized to at most
  // store_retry_attempts-1 consecutive failures so in-place healing is
  // guaranteed (even if one op's retries drain the whole storm).
  int store_retry_attempts = 4;
  int fetches_per_step = 2;
  int servers = 3;
  int replicas = 2;
  int n = 16;                  // dataset edge (n^3 grid)
  std::int32_t brick_edge = 8;
  std::chrono::milliseconds probe_period{20};
  std::chrono::milliseconds call_timeout{2000};
  double hedge_ms = 10;  // fixed hedge so parked-loser reaping exercises
  // Chunked-reply coverage: every other chaotic fetch goes through the
  // streaming path with this many bricks per chunk, and each schedule
  // ends with two streaming drills (a client cancel that must be
  // accounted exactly once, and a chunk-boundary kill that must resume
  // from its cursor on a replica, bit-identically). 0 disables both.
  std::int64_t stream_chunk_bricks = 2;
  bool verbose = false;  // per-schedule progress on stdout
};

struct ChaosReport {
  int schedules = 0;
  std::uint64_t fetches = 0;
  // Faults actually applied (deterministic per seed).
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t delays = 0;
  std::uint64_t corrupts = 0;
  std::uint64_t busies = 0;
  std::uint64_t store_eios = 0;   // transient EIO storms scripted
  std::uint64_t store_slows = 0;  // slow-disk windows scripted
  // Healing observed.
  std::uint64_t rejoins = 0;          // cluster.rejoin events journaled
  std::uint64_t rejoined_served = 0;  // restarted nodes serving again
  std::uint64_t rot_roundtrips = 0;   // quarantine->repair->readmit cycles
  std::uint64_t view_changes = 0;
  // Observability-plane events journaled (audited 1:1 with counters).
  std::uint64_t slo_burn_alerts = 0;
  std::uint64_t slo_burn_clears = 0;
  std::uint64_t slow_nodes = 0;
  // Streaming-path coverage: chunked fetches that matched the oracle,
  // cursor resumes journaled, and cancels accounted on a server.
  std::uint64_t stream_fetches = 0;
  std::uint64_t stream_resumes = 0;
  std::uint64_t stream_cancels = 0;
  // Invariant violations; empty = the run passed.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

ChaosReport RunChaos(const ChaosOptions& options);

}  // namespace vizndp::testing
