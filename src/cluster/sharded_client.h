// Scatter-gather NDP serving: one FetchSparseField fans out as
// brick-restricted sub-requests to N storage nodes, each holding a
// replica of the dataset, and the partial selections merge back into a
// single sparse field bit-identical to the one-server path.
//
// Tail-latency control (the reason this tier exists): each sub-request
// is *hedged* — if a shard's primary replica has delivered no data
// within a delay derived from how long earlier walks took to their win
// (see HedgeDelay), the same request launches on the next replica, and
// the first to deliver a data chunk wins. A losing stream is cancelled
// with the cancel frame at its next chunk, and a loser that fails before
// its first chunk is not resumed; a losing one-shot call cannot be
// cancelled, so its thread is reaped asynchronously. Either way one slow
// or dead node costs one hedge delay, not a timeout.
//
// Failure ladder, in order, for each sub-request:
//   1. primary replica          (per the ShardMap chain)
//   2. remaining replicas       (hedge, failover, or a stream's hop
//                                from its cursor)
//   3. unrestricted rescue      (whole-dataset fetch, servers 0..N-1
//                                in turn)
//   4. caller's baseline path   (NdpContourSource::SetFallback, as ever)
// Geometry stays bit-identical at every rung: all rungs compute the same
// selection invariant over the same stored values.
#pragma once

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

  // The hedge delay the next sub-fetch would use (nullopt = hedging
  // disabled). Public so tests can read the policy without racing a
  // fetch. A positive hedge_ms is the delay. With hedge_ms 0 it adapts
  // to cluster_subfetch_seconds, the time each walk took to its win (a
  // stream's first data chunk), which is the race the delay times: the
  // kHedgeQuantile of the sliding window once it holds kMinHedgeSamples
  // wins, else of the cumulative series once that does, and never below
  // kHedgeFloorMs (the delay while both are cold).
  std::optional<std::chrono::microseconds> HedgeDelay() const;
  static constexpr double kHedgeQuantile = 0.95;
  static constexpr double kHedgeFloorMs = 25.0;
  static constexpr std::uint64_t kMinHedgeSamples = 16;

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
    // Whether `a` may still resume, asked on its own thread: only once
    // its stream has a header, and then while nobody has won or `a` is
    // the winner. An attempt that fails before its header (a dead node)
    // fails over as a one-shot attempt does, and a loser that fails
    // before its first chunk ends there.
    bool Wants(const Attempt* a);
  };

  // Shared scatter target of one fetch: shard workers deliver into it as
  // their data arrives (SparseField::Scatter is order/duplicate-
  // invariant, so interleaving is safe). The first header adopted builds
  // the field, outside the decode and scatter spans; a shard whose grid
  // differs is a mixed-replica error.
  struct Merge {
    std::mutex mu;
    std::optional<contour::SparseField> field;
    ndp::StreamHeader header;

    void Adopt(const ndp::StreamHeader& from);
    void Deliver(const ndp::StreamHeader& from,
                 const ndp::DecodedSelection& selection);

   private:
    void AdoptLocked(const ndp::StreamHeader& from);
  };

  // One shard's slice (`only_bricks` nullptr = the whole dataset, for
  // unbricked arrays), in the shape `stream` asks for, delivered into
  // `merge` by the one replica walk over the shard's chain: its race,
  // failover and hop rules are DESIGN.md §10's. Each attempt runs
  // NdpClient::StreamSelect on one replica, on its own thread, with its
  // own accumulator. Throws the last error once no replica is left, or
  // at once for an application error.
  ndp::StreamAccumulator SubFetch(int shard, const std::string& key,
                                  const std::string& array,
                                  const std::vector<double>& isovalues,
                                  const std::vector<std::int64_t>* only_bricks,
                                  const ndp::StreamOptions& stream,
                                  Merge& merge);

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

  std::mutex info_mu_;
  std::map<std::string, ndp::NdpClient::FileInfo> info_cache_;

  std::mutex pending_mu_;
  std::vector<std::future<void>> pending_;  // hedge losers still running
};

}  // namespace vizndp::cluster
