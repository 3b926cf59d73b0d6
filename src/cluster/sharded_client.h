// Scatter-gather NDP serving: one FetchSparseField fans out as
// brick-restricted sub-requests to N storage nodes, each holding a
// replica of the dataset, and the partial selections merge back into a
// single sparse field bit-identical to the one-server path.
//
// Tail-latency control (the reason this tier exists): each sub-request
// is *hedged* — if a shard's primary replica has delivered no data
// within a delay derived from the observed sub-fetch latency
// distribution, the same request launches on the next replica, and the
// first to deliver a data chunk wins. A losing stream is cancelled with
// the cancel frame at its next chunk; a losing one-shot call cannot be
// cancelled, so its thread is reaped asynchronously. Either way one slow
// or dead node costs one hedge delay, not a timeout.
//
// Failure ladder, in order, for each sub-request:
//   1. primary replica          (per the ShardMap chain)
//   2. remaining replicas       (hedge, failover, or a stream's hop
//                                from its cursor)
//   3. unrestricted rescue      (whole-dataset fetch from any live node)
//   4. caller's baseline path   (NdpContourSource::SetFallback, as ever)
// Geometry stays bit-identical at every rung: all rungs compute the same
// selection invariant over the same stored values.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
  // in milliseconds; zero (default) adapts (see HedgeDelay).
  double hedge_ms = 0;
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
  // chunk k costs only the chunks in flight, not the shard. A stream
  // hedges only until its first data chunk, so it never ships a chunk
  // twice. Propagates the options to the per-server clients.
  void SetStream(const ndp::StreamOptions& options);

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
  // cluster::FleetScraper after each sweep. While fresh (kHedgeHintTtl)
  // it overrides the process-local latency window in HedgeDelay —
  // a hedging client benefits from latency every node observed, not
  // just the shards it happened to draw. <= 0 clears the hint.
  void SetHedgeHint(double seconds);

  // The hedge delay the next sub-fetch would use (nullopt = hedging
  // disabled). Public so tests and dashboards can read the policy
  // without racing a fetch. With hedge_ms 0 it adapts: the
  // kHedgeQuantile of cluster_subfetch_seconds once kMinHedgeSamples
  // observations exist, never below kHedgeFloorMs (the delay while the
  // histogram is cold).
  std::optional<std::chrono::microseconds> HedgeDelay() const;
  static constexpr double kHedgeQuantile = 0.95;
  static constexpr double kHedgeFloorMs = 25.0;
  static constexpr std::uint64_t kMinHedgeSamples = 16;
  // How long a SetHedgeHint value stays authoritative before the delay
  // falls back to this client's own latency window.
  static constexpr std::chrono::milliseconds kHedgeHintTtl{10000};

  const ShardMap& shard_map() const { return map_; }
  int server_count() const { return static_cast<int>(servers_.size()); }

  // Dataset layout (ndp.info), cached per key — datasets are immutable.
  ndp::NdpClient::FileInfo Info(const std::string& key);

 private:
  // One sub-fetch's replica walk, shared with its attempts' worker
  // threads, so a losing attempt that outlives SubFetch touches only
  // this object, its own copy of the request and its replica's client.
  // `mu` guards every field but an attempt's `acc`, which only its
  // thread writes until it is done.
  struct Walk {
    struct Attempt {
      int server = -1;
      ndp::StreamAccumulator acc;
      bool done = false;
      bool refused = false;  // lost the race: its deliver returned false
      std::exception_ptr error = nullptr;  // set iff it failed
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Attempt> attempts;  // a deque keeps addresses stable
    // The first attempt to deliver a data chunk (or to finish with
    // none), then each hop that continues its stream. Only the winner
    // delivers; every other attempt's deliver returns false.
    Attempt* winner = nullptr;
    std::chrono::steady_clock::time_point won_at;  // what HedgeDelay adapts to
    std::uint64_t finished = 0;  // attempts done; each one wakes the walk

    // Makes `a` the winner if nobody has won yet, else marks it refused;
    // true iff it is the winner.
    bool Claim(Attempt* a);
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
  // unbricked arrays), in the shape `stream` asks for, delivered into
  // `merge` by the one replica walk over the shard's chain: its race,
  // failover and hop rules are DESIGN.md §10's. Each attempt runs
  // NdpClient::StreamSelect on one replica, on its own thread, with its
  // own accumulator. Throws the last error once no replica is left, or
  // at once for an application error. `eligible` is the fetch's view
  // snapshot (empty = all servers).
  ndp::StreamAccumulator SubFetch(int shard, const std::string& key,
                                  const std::string& array,
                                  const std::vector<double>& isovalues,
                                  const std::vector<std::int64_t>* only_bricks,
                                  const std::vector<bool>& eligible,
                                  const ndp::StreamOptions& stream,
                                  Merge& merge);

  // Replica chain for `shard` over the eligible servers, with suspect
  // servers demoted to the back (skips counted and journaled).
  std::vector<int> LiveChain(int shard, const std::vector<bool>* eligible);

  // Usable-server mask of `view` (all-true when the view is null, from
  // a different fleet size, or marks nobody usable).
  std::vector<bool> Eligibility(
      const std::shared_ptr<const FleetView>& view) const;

  // Adds `futures` to the parked set of attempt threads, then joins
  // every finished one (all of them when `wait`, as the destructor
  // does). The set is bounded by kMaxParked: over the cap, Park blocks
  // on the oldest losers (bounded by the per-call timeout) instead of
  // accumulating threads without limit. The cluster_hedge_parked gauge
  // tracks the set's size.
  void Park(std::vector<std::future<void>> futures, bool wait = false);

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
  std::vector<std::future<void>> pending_;  // hedge losers still running
};

}  // namespace vizndp::cluster
