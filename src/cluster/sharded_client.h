// Scatter-gather NDP serving: one FetchSparseField fans out as
// brick-restricted sub-requests to N storage nodes, each holding a
// replica of the dataset, and the partial selections merge back into a
// single sparse field bit-identical to the one-server path.
//
// Tail-latency control (the reason this tier exists): each sub-request
// is *hedged* — if a shard's primary replica has not answered within a
// delay derived from the observed sub-fetch latency distribution, the
// same request launches on the next replica and the first success wins.
// The loser is abandoned (synchronous RPCs cannot be cancelled) and its
// thread reaped asynchronously, so one slow or dead node costs one hedge
// delay, not a timeout.
//
// Failure ladder, in order, for each sub-request:
//   1. primary replica          (per the ShardMap chain)
//   2. remaining replicas       (hedge or sequential failover)
//   3. unrestricted rescue      (whole-dataset fetch from any live node)
//   4. caller's baseline path   (NdpContourSource::SetFallback, as ever)
// Geometry stays bit-identical at every rung: all rungs compute the same
// selection invariant over the same stored values.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fleet_view.h"
#include "cluster/shard_map.h"
#include "ndp/ndp_client.h"

namespace vizndp::cluster {

struct ShardedClientOptions {
  // Hedge policy. Negative disables hedging; positive is a fixed delay
  // in milliseconds; zero (default) adapts: the delay is the
  // hedge_quantile of cluster_subfetch_seconds once min_hedge_samples
  // observations exist, hedge_floor_ms while the histogram is cold.
  double hedge_ms = 0;
  double hedge_quantile = 0.95;
  double hedge_floor_ms = 25.0;
  std::uint64_t min_hedge_samples = 16;
  // How long a SetHedgeHint value stays authoritative before the delay
  // falls back to this client's own latency window.
  double hedge_hint_ttl_ms = 10000.0;
};

// Drop-in NdpFetcher over a fleet of NDP servers. Every server must
// hold a full replica of each dataset it may be asked about (the
// testbed and vizndp_tool load datasets on every node; see shard_map.h).
//
// Thread-safety: FetchSparseField may be called concurrently; internal
// per-server clients serialize their RPCs.
class ShardedNdpClient : public ndp::NdpFetcher {
 public:
  ShardedNdpClient(std::vector<std::shared_ptr<ndp::NdpClient>> servers,
                   int replicas, ShardedClientOptions options = {});
  // Joins any hedge losers still in flight (bounded by the per-call
  // timeout configured on the underlying clients).
  ~ShardedNdpClient() override;

  // Scatter-gather fetch: one sub-fetch per shard of the plan (a brick
  // partition, or the whole key when the array is unbricked), each
  // delivering into one shared field. Stats are the order-independent
  // merge of the per-shard selects (ndp::AddLoadStats); selected_points
  // is the *deduplicated* count (shard halos overlap on brick
  // boundaries).
  contour::SparseField FetchSparseField(
      const std::string& key, const std::string& array,
      const std::vector<double>& isovalues, grid::UniformGeometry* geometry,
      ndp::NdpLoadStats* stats = nullptr) override;

  // Streaming mode (chunk_bricks > 0): each shard sub-request becomes a
  // chunked stream scattered into the shared field as chunks arrive.
  // Mid-stream recovery gets a deeper ladder than the per-node resume:
  // when a node's resume budget is exhausted the stream hops to the
  // next replica in the chain carrying its cursor, so a node killed at
  // chunk k costs only the chunks in flight, not the shard. Streaming
  // sub-fetches fail over sequentially instead of hedging — a hedge
  // would ship every chunk twice, the exact cost streaming exists to
  // avoid. Propagates the options to the per-server clients.
  void SetStream(const ndp::StreamOptions& options);
  const ndp::StreamOptions& stream() const { return stream_; }

  // Test hook: treat `server` as suspect without a probe.
  void MarkSuspect(int server, bool suspect = true);

  // Installs a membership snapshot (normally called by a HealthMonitor
  // view sink). Each FetchSparseField snapshots the current view once
  // and plans over its usable nodes only: dead/rejoining nodes drop out
  // of partitions and chains, and their bricks re-spread across the
  // survivors. A live verdict also clears the node's local suspect bit;
  // nullptr (or a view from a different fleet size) restores the static
  // all-nodes placement. Never holds a lock across an RPC: the view is
  // swapped atomically and read-only afterwards.
  void SetFleetView(std::shared_ptr<const FleetView> view);
  std::shared_ptr<const FleetView> fleet_view() const;

  // Fleet-wide windowed sub-fetch tail (seconds), normally pushed by a
  // cluster::FleetScraper after each sweep. While fresh (hedge_hint_ttl_
  // ms) it overrides the process-local latency window in HedgeDelay —
  // a hedging client benefits from latency every node observed, not
  // just the shards it happened to draw. <= 0 clears the hint.
  void SetHedgeHint(double seconds);

  // The adaptive hedge delay the next sub-fetch would use (nullopt =
  // hedging disabled). Public so tests and dashboards can read the
  // policy without racing a fetch.
  std::optional<std::chrono::microseconds> HedgeDelay() const;

  const ShardMap& shard_map() const { return map_; }
  int server_count() const { return static_cast<int>(servers_.size()); }

  // Dataset layout (ndp.info), cached per key — datasets are immutable.
  ndp::NdpClient::FileInfo Info(const std::string& key);

 private:
  // One replica attempt's outcome, filled in by its worker thread.
  struct Slot {
    bool done = false;
    int server = -1;
    std::optional<ndp::PartialFetch> result;  // engaged iff success
    std::exception_ptr error;                 // set iff failure
  };
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Slot> slots;
  };

  // Shared scatter target of one fetch: shard workers deliver into it as
  // their data arrives (SparseField::Scatter is order/duplicate-
  // invariant, so interleaving is safe). The first delivery fixes the
  // grid; a shard that disagrees is a mixed-replica error.
  struct Merge {
    std::mutex mu;
    std::optional<contour::SparseField> field;
    ndp::StreamHeader header;

    void Deliver(const ndp::StreamHeader& from,
                 const ndp::DecodedSelection& selection);
  };

  // One shard's slice (`only_bricks` nullptr = the whole dataset, for
  // unbricked arrays), delivered into `merge`. One-shot: a hedged race
  // over the replica chain (HedgedFetch), whose winner is then delivered.
  // Streamed: the chain is walked in sequence, carrying the accumulator
  // (cursor) across hops. Throws the last replica's error once the
  // chain is exhausted. `eligible` is the fetch's view snapshot (empty =
  // all servers).
  ndp::StreamAccumulator SubFetch(int shard, const std::string& key,
                                  const std::string& array,
                                  const std::vector<double>& isovalues,
                                  const std::vector<std::int64_t>* only_bricks,
                                  const std::vector<bool>& eligible,
                                  Merge& merge);

  // Hedged, failing-over one-shot fetch of a slice over `chain`.
  ndp::PartialFetch HedgedFetch(int shard, const std::vector<int>& chain,
                                const std::string& key,
                                const std::string& array,
                                const std::vector<double>& isovalues,
                                const std::vector<std::int64_t>* only_bricks);

  // Replica chain for `shard` over the eligible servers, with suspect
  // servers demoted to the back (skips counted and journaled).
  std::vector<int> LiveChain(int shard, const std::vector<bool>* eligible);

  // Usable-server mask of `view` (all-true when the view is null, from
  // a different fleet size, or marks nobody usable).
  std::vector<bool> Eligibility(
      const std::shared_ptr<const FleetView>& view) const;

  // Moves still-running attempt threads to pending_ and drops finished
  // ones; called as each race resolves and from the destructor. The
  // parked set is bounded by kMaxParked: over the cap, Park blocks on
  // the oldest losers (bounded by the per-call timeout) instead of
  // accumulating threads without limit. The cluster_hedge_parked gauge
  // tracks the set's size.
  void Park(std::vector<std::future<void>>&& futures);
  void Reap(bool wait);

  static constexpr size_t kMaxParked = 64;

  std::vector<std::shared_ptr<ndp::NdpClient>> servers_;
  ShardMap map_;
  ShardedClientOptions options_;
  ndp::StreamOptions stream_;
  obs::WindowedHistogram& subfetch_seconds_;
  obs::Gauge& parked_gauge_;
  std::atomic<double> hedge_hint_seconds_{0};
  std::atomic<std::int64_t> hedge_hint_at_us_{0};

  mutable std::mutex view_mu_;
  std::shared_ptr<const FleetView> view_;

  std::mutex suspect_mu_;
  std::vector<bool> suspect_;

  std::mutex info_mu_;
  std::map<std::string, ndp::NdpClient::FileInfo> info_cache_;

  std::mutex pending_mu_;
  std::vector<std::future<void>> pending_;  // abandoned hedge losers
};

}  // namespace vizndp::cluster
