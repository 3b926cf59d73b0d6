#include "cluster/sharded_client.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/error.h"
#include "obs/audit.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace vizndp::cluster {

namespace {

// One audit per rung of the failover ladder (DESIGN.md §10).
const obs::Audit kFailover("cluster_failover_total", "cluster.failover");
const obs::Audit kHedge("ndp_hedge_launched_total", "cluster.hedge");
const obs::Audit kHedgeWon("ndp_hedge_won_total", "cluster.hedge_won");
const obs::Audit kHedgeLost("ndp_hedge_lost_total", "cluster.hedge_lost");
const obs::Audit kStreamResume("ndp_stream_resume_total", "ndp.stream_resume");
const obs::Audit kUnrestrictedFallback("cluster_unrestricted_fallback_total",
                                       "cluster.unrestricted_fallback");
const obs::Audit kRescueFailed("cluster_rescue_failed_total",
                               "cluster.rescue_failed");

std::string ShardTag(int shard) { return std::to_string(shard); }

obs::WindowedHistogram& SubfetchHistogram() {
  return obs::DefaultRegistry().GetWindowedHistogram(
      "cluster_subfetch_seconds", obs::LatencyBounds());
}

// A server-reported application error (bad key or array; BusyError
// excepted, that is admission control) fails identically on every
// replica, so it propagates instead of failing over.
bool IsApplicationError(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const BusyError&) {
    return false;
  } catch (const RpcError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

ShardedNdpClient::ShardedNdpClient(
    std::vector<std::shared_ptr<ndp::NdpClient>> servers, int replicas,
    ShardedClientOptions options)
    : servers_(std::move(servers)),
      map_(static_cast<int>(servers_.size()), replicas),
      options_(options),
      subfetch_seconds_(SubfetchHistogram()),
      parked_gauge_(
          obs::DefaultRegistry().GetGauge("cluster_hedge_parked")) {
  VIZNDP_CHECK_MSG(!servers_.empty(), "sharded client needs servers");
}

ShardedNdpClient::~ShardedNdpClient() { Park({}, /*wait=*/true); }

ndp::NdpClient::FileInfo ShardedNdpClient::Info(const std::string& key) {
  {
    std::lock_guard lk(info_mu_);
    const auto it = info_cache_.find(key);
    if (it != info_cache_.end()) return it->second;
  }
  // Any node can answer (every node fronts the same store); try the
  // key's home chain first, then walk the rest of the fleet.
  std::vector<int> order = map_.ReplicaChain(map_.ShardOfKey(key));
  for (int sv = 0; sv < server_count(); ++sv) {
    if (std::find(order.begin(), order.end(), sv) == order.end()) {
      order.push_back(sv);
    }
  }
  std::exception_ptr last;
  for (const int sv : order) {
    try {
      ndp::NdpClient::FileInfo info =
          servers_[static_cast<size_t>(sv)]->Info(key);
      std::lock_guard lk(info_mu_);
      return info_cache_.emplace(key, std::move(info)).first->second;
    } catch (const Error&) {
      if (IsApplicationError(std::current_exception())) throw;
      last = std::current_exception();
    }
  }
  std::rethrow_exception(last);
}

void ShardedNdpClient::SetStream(const ndp::StreamOptions& options) {
  stream_ = options;
  for (const std::shared_ptr<ndp::NdpClient>& s : servers_) {
    s->SetStream(options);
  }
}

std::optional<std::chrono::microseconds> ShardedNdpClient::HedgeDelay()
    const {
  if (options_.hedge_ms < 0) return std::nullopt;
  double ms = options_.hedge_ms;
  if (ms == 0) {
    // Adaptive: hedge at the tail of what a walk normally takes to its
    // win, so the backup fires only for genuinely slow replicas. The
    // sliding window first, then the cumulative series, and the floor
    // while both are cold.
    ms = kHedgeFloorMs;
    const obs::MetricSnapshot window = subfetch_seconds_.WindowSnapshot();
    if (window.count >= kMinHedgeSamples) {
      ms = std::max(kHedgeFloorMs,
                    1e3 * obs::SnapshotQuantile(window, kHedgeQuantile));
    } else if (subfetch_seconds_.cumulative().count() >= kMinHedgeSamples) {
      ms = std::max(kHedgeFloorMs,
                    1e3 * obs::HistogramQuantile(
                              subfetch_seconds_.cumulative(), kHedgeQuantile));
    }
  }
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
}

void ShardedNdpClient::Park(std::vector<std::future<void>> futures,
                            bool wait) {
  std::vector<std::future<void>> join;
  {
    std::lock_guard lk(pending_mu_);
    for (std::future<void>& f : futures) pending_.push_back(std::move(f));
    std::vector<std::future<void>> keep;
    for (std::future<void>& f : pending_) {
      const bool ready =
          f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      (wait || ready ? join : keep).push_back(std::move(f));
    }
    // Bound the parked set: past the cap, the oldest losers get joined
    // instead of accumulating threads without limit.
    while (keep.size() > kMaxParked) {
      join.push_back(std::move(keep.front()));
      keep.erase(keep.begin());
    }
    pending_ = std::move(keep);
    parked_gauge_.Set(static_cast<double>(pending_.size()));
  }
  // Join outside the lock; each join is bounded by the per-call timeout
  // on the underlying clients.
  for (std::future<void>& f : join) f.get();
}

void ShardedNdpClient::Merge::Deliver(const ndp::StreamHeader& from,
                                     const ndp::DecodedSelection& selection) {
  std::lock_guard lk(mu);
  if (!field.has_value()) {
    header = from;
    field.emplace(from.dims, from.dtype);
  } else if (!ndp::SameGrid(header, from)) {
    throw Error("shards disagree on dataset shape — mixed replicas?");
  }
  field->Scatter(selection.ids, selection.values);
}

bool ShardedNdpClient::Walk::Wants(const Attempt* a) {
  if (!a->acc.got_header) return false;
  std::lock_guard lk(mu);
  return winner == nullptr || winner == a;
}

bool ShardedNdpClient::Walk::Claim(Attempt* a) {
  std::lock_guard lk(mu);
  if (winner == nullptr) {
    winner = a;
    won_at = std::chrono::steady_clock::now();
  }
  a->refused = winner != a;
  return !a->refused;
}

ndp::StreamAccumulator ShardedNdpClient::SubFetch(
    int shard, const std::string& key, const std::string& array,
    const std::vector<double>& isovalues,
    const std::vector<std::int64_t>* only_bricks,
    const ndp::StreamOptions& stream, Merge& merge) {
  const std::vector<int> chain = map_.ReplicaChain(shard);
  obs::DefaultRegistry()
      .GetCounter("cluster_subfetch_total", {{"shard", ShardTag(shard)}})
      .Increment();
  obs::Span span("cluster.shard" + ShardTag(shard));
  const auto start = std::chrono::steady_clock::now();

  auto walk = std::make_shared<Walk>();
  std::vector<std::future<void>> threads;
  // Worker threads own copies of the request, and inherit the caller's
  // trace context so their spans and the server-side spans they trigger
  // nest under this sub-fetch.
  std::optional<std::vector<std::int64_t>> bricks;
  if (only_bricks != nullptr) bricks = *only_bricks;
  const obs::TraceContext parent_ctx = obs::CurrentTraceContext();
  const auto tag = [&](int server) {
    return "shard=" + ShardTag(shard) + " server=" + std::to_string(server);
  };

  // Starts `server` from `acc`; the caller holds walk->mu. Only the
  // winner touches `merge`, and SubFetch returns only once its winner
  // is done, so a loser left running never reaches the dead fetch.
  const auto launch = [&](int server, ndp::StreamAccumulator acc) {
    Walk::Attempt* a =
        &walk->attempts.emplace_back(Walk::Attempt{server, std::move(acc)});
    threads.push_back(std::async(
        std::launch::async,
        [walk, a, client = servers_[static_cast<size_t>(server)], key, array,
         isovalues, bricks, parent_ctx, &merge] {
          std::optional<obs::ScopedTraceContext> scope;
          if (parent_ctx.valid()) scope.emplace(parent_ctx);
          std::exception_ptr error;
          try {
            client->StreamSelect(
                key, array, isovalues, bricks.has_value() ? &*bricks : nullptr,
                a->acc,
                [&](ndp::DecodedSelection&& sel) {
                  if (!walk->Claim(a)) return false;
                  merge.Deliver(a->acc.header, sel);
                  return true;
                },
                {}, [&] { return walk->Wants(a); });
          } catch (...) {
            error = std::current_exception();
          }
          if (error == nullptr) walk->Claim(a);  // wins if no chunk came
          std::lock_guard lk(walk->mu);
          a->done = true;
          a->error = error;
          ++walk->finished;
          walk->cv.notify_all();
        }));
    return a;
  };
  // A hop prefers an untried replica or a refused loser's (it is alive)
  // to one whose attempt still runs undelivered (the hop would queue
  // behind it on that node's client), and never takes a failed one.
  const auto rank = [&](int server) {
    int r = 0;  // 0 preferred, 1 last resort, 2 never
    for (const Walk::Attempt& a : walk->attempts) {
      if (a.server != server) continue;
      if (a.error != nullptr) return 2;
      if (!a.done && !a.refused) r = 1;
    }
    return r;
  };

  const std::optional<std::chrono::microseconds> hedge_delay = HedgeDelay();
  ndp::StreamAccumulator fresh;
  fresh.stream = stream;
  std::unique_lock lk(walk->mu);
  size_t next = 0;  // the chain's first replica not yet started
  launch(chain[next++], fresh);
  const Walk::Attempt* hedge = nullptr;
  bool raced = false;
  std::exception_ptr error;
  for (;;) {
    const std::uint64_t seen = walk->finished;
    const auto changed = [&] { return walk->finished != seen; };
    Walk::Attempt* winner = walk->winner;
    if (winner != nullptr && !raced) {
      raced = true;
      if (hedge != nullptr) {
        (winner == hedge ? kHedgeWon : kHedgeLost).Record(tag(winner->server));
      }
    }
    if (winner != nullptr && winner->done) {
      if (winner->error == nullptr) break;
      // Hop: the winner died after delivering, so a replica continues
      // its stream from the cursor instead of starting over.
      const auto to =
          std::min_element(chain.begin(), chain.end(),
                           [&](int x, int y) { return rank(x) < rank(y); });
      if (IsApplicationError(winner->error) || rank(*to) == 2) {
        error = winner->error;
        break;
      }
      kFailover.Record(tag(*to));
      kStreamResume.Record("key=" + key +
                           " cursor=" + std::to_string(winner->acc.cursor) +
                           " server=" + std::to_string(*to));
      walk->winner = launch(*to, winner->acc);
    } else if (winner == nullptr &&
               std::all_of(walk->attempts.begin(), walk->attempts.end(),
                           [](const Walk::Attempt& a) { return a.done; })) {
      // Every attempt failed before a win: fail over afresh.
      const std::exception_ptr last = walk->attempts.back().error;
      if (IsApplicationError(last) || next >= chain.size()) {
        error = last;
        break;
      }
      kFailover.Record(tag(chain[next]));
      launch(chain[next++], fresh);
    } else if (winner == nullptr && hedge == nullptr &&
               hedge_delay.has_value() && next < chain.size()) {
      // A win does not wake the walk: the timer just finds it.
      if (!walk->cv.wait_for(lk, *hedge_delay, changed) &&
          walk->winner == nullptr) {
        kHedge.Record(tag(chain[next]));
        hedge = launch(chain[next++], fresh);
      }
    } else {
      walk->cv.wait(lk, changed);
    }
  }
  ndp::StreamAccumulator result;
  if (error == nullptr) result = std::move(walk->winner->acc);
  const std::chrono::duration<double> to_win = walk->won_at - start;
  lk.unlock();
  // Hand attempts still in flight to the reaper; what they touch stays
  // alive through the shared Walk until they finish.
  Park(std::move(threads));
  if (error != nullptr) std::rethrow_exception(error);
  subfetch_seconds_.Observe(to_win.count());
  return result;
}

contour::SparseField ShardedNdpClient::FetchSparseField(
    const std::string& key, const std::string& array,
    const std::vector<double>& isovalues, grid::UniformGeometry* geometry,
    ndp::NdpLoadStats* stats) {
  std::optional<obs::ScopedTraceContext> root;
  if (obs::GlobalTracer().enabled() && !obs::CurrentTraceContext().valid()) {
    root.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  obs::Span total_span("cluster.fetch");
  Park({});

  // One snapshot of the reply shape per fetch.
  const ndp::StreamOptions stream = stream_;

  // Placement needs the brick decomposition; an unbricked array cannot
  // be sub-divided and routes whole to its rendezvous owner — as does an
  // array the catalog doesn't know, which the home server rejects with
  // its canonical application error.
  const ndp::NdpClient::FileInfo info = Info(key);
  const ndp::NdpClient::FileInfo::Array* meta = info.Find(array);
  std::vector<std::pair<int, std::vector<std::int64_t>>> plan;
  const bool whole_key = meta == nullptr || meta->brick_count == 0;
  if (whole_key) {
    plan.emplace_back(map_.ShardOfKey(key), std::vector<std::int64_t>{});
  } else {
    std::vector<std::vector<std::int64_t>> slices =
        map_.Partition(key, meta->brick_count);
    for (int s = 0; s < static_cast<int>(slices.size()); ++s) {
      if (!slices[static_cast<size_t>(s)].empty()) {
        plan.emplace_back(s, std::move(slices[static_cast<size_t>(s)]));
      }
    }
  }

  // Scatter: one concurrent sub-fetch per shard slice, each delivering
  // into the shared merge. Gather is a barrier for the stats.
  Merge merge;
  const obs::TraceContext parent_ctx = obs::CurrentTraceContext();
  std::vector<std::future<ndp::StreamAccumulator>> futures;
  futures.reserve(plan.size());
  for (const auto& [shard, bricks] : plan) {
    const std::vector<std::int64_t>* restriction =
        whole_key ? nullptr : &bricks;
    futures.push_back(std::async(
        std::launch::async,
        [this, shard = shard, &key, &array, &isovalues, restriction,
         parent_ctx, &stream, &merge]() {
          std::optional<obs::ScopedTraceContext> scope;
          if (parent_ctx.valid()) scope.emplace(parent_ctx);
          return SubFetch(shard, key, array, isovalues, restriction, stream,
                          merge);
        }));
  }

  std::vector<ndp::StreamAccumulator> selects;
  selects.reserve(plan.size() + 1);
  std::exception_ptr shard_failure;
  for (std::future<ndp::StreamAccumulator>& f : futures) {
    try {
      selects.push_back(f.get());
    } catch (const Error&) {
      if (IsApplicationError(std::current_exception())) throw;
      shard_failure = std::current_exception();
    }
  }

  if (shard_failure != nullptr) {
    // Rung 3: some shard exhausted its replica chain. Any single live
    // node can still serve the *whole* dataset (every node is a full
    // replica), so trade the bandwidth win for availability before
    // falling back to the caller's baseline path. The whole-dataset
    // selection re-covers what other shards already delivered; the
    // duplicate-invariant Scatter absorbs that.
    kUnrestrictedFallback.Record("key=" + key);
    bool rescued = false;
    for (int sv = 0; sv < server_count(); ++sv) {
      try {
        obs::Span rescue_span("cluster.rescue");
        ndp::StreamAccumulator acc;
        acc.stream = stream;
        servers_[static_cast<size_t>(sv)]->StreamSelect(
            key, array, isovalues, nullptr, acc,
            [&](ndp::DecodedSelection&& sel) {
              merge.Deliver(acc.header, sel);
              return true;
            });
        selects.push_back(std::move(acc));
        rescued = true;
        break;
      } catch (const Error& e) {
        // Swallowed on purpose — the next server in the order is the
        // answer — but audited so a fetch that exhausts every rescue
        // rung leaves a per-server trail of what refused it.
        kRescueFailed.Record("server=" + std::to_string(sv) +
                             " error=" + e.what());
      }
    }
    if (!rescued) std::rethrow_exception(shard_failure);
  }

  // A select with no straddling brick delivers nothing; its header still
  // names the grid.
  for (const ndp::StreamAccumulator& acc : selects) {
    if (merge.field.has_value()) break;
    if (acc.got_header) {
      merge.header = acc.header;
      merge.field.emplace(acc.header.dims, acc.header.dtype);
    }
  }
  VIZNDP_CHECK_MSG(merge.field.has_value(), "sharded fetch produced no field");
  if (geometry != nullptr) *geometry = merge.header.geometry;

  if (stats != nullptr) {
    *stats = ndp::NdpLoadStats{};
    stats->trace_id = obs::CurrentTraceContext().trace_id;
    for (const ndp::StreamAccumulator& acc : selects) {
      ndp::AddLoadStats(acc, *stats);
    }
    stats->selected_points =
        static_cast<std::uint64_t>(merge.field->ValidCount());
    total_span.End();
    stats->client_s = total_span.ElapsedSeconds();
  }
  return std::move(*merge.field);
}

}  // namespace vizndp::cluster
