#include "cluster/sharded_client.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/error.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace vizndp::cluster {

namespace {

std::string ShardTag(int shard) { return std::to_string(shard); }

obs::WindowedHistogram& SubfetchHistogram() {
  return obs::DefaultRegistry().GetWindowedHistogram(
      "cluster_subfetch_seconds", obs::LatencyBounds());
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
          obs::DefaultRegistry().GetGauge("cluster_hedge_parked")),
      suspect_(servers_.size(), false) {
  VIZNDP_CHECK_MSG(!servers_.empty(), "sharded client needs servers");
}

ShardedNdpClient::~ShardedNdpClient() {
  Reap(/*wait=*/true);
  parked_gauge_.Set(0);
}

void ShardedNdpClient::MarkSuspect(int server, bool suspect) {
  std::lock_guard lk(suspect_mu_);
  suspect_.at(static_cast<size_t>(server)) = suspect;
}

void ShardedNdpClient::SetFleetView(std::shared_ptr<const FleetView> view) {
  {
    std::lock_guard lk(view_mu_);
    view_ = view;
  }
  if (view == nullptr || view->states.size() != servers_.size()) return;
  // The monitor's verdict supersedes ad-hoc suspicion: nodes it calls
  // live are trusted again, nodes it calls suspect stay demoted.
  std::lock_guard lk(suspect_mu_);
  for (size_t i = 0; i < suspect_.size(); ++i) {
    if (view->states[i] == NodeState::kLive) suspect_[i] = false;
    if (view->states[i] == NodeState::kSuspect) suspect_[i] = true;
  }
}

std::shared_ptr<const FleetView> ShardedNdpClient::fleet_view() const {
  std::lock_guard lk(view_mu_);
  return view_;
}

std::vector<bool> ShardedNdpClient::Eligibility(
    const std::shared_ptr<const FleetView>& view) const {
  std::vector<bool> eligible(servers_.size(), true);
  if (view == nullptr || view->states.size() != servers_.size()) {
    return eligible;
  }
  int usable = 0;
  for (size_t i = 0; i < servers_.size(); ++i) {
    eligible[i] = NodeUsable(view->states[i]);
    if (eligible[i]) ++usable;
  }
  // An all-dead view must not make a fetch unroutable — plan over
  // everyone and let the transports report the truth.
  if (usable == 0) eligible.assign(servers_.size(), true);
  return eligible;
}

ndp::NdpClient::FileInfo ShardedNdpClient::Info(const std::string& key) {
  {
    std::lock_guard lk(info_mu_);
    const auto it = info_cache_.find(key);
    if (it != info_cache_.end()) return it->second;
  }
  // Any node can answer (every node fronts the same store); try the
  // key's home chain first, then walk the rest of the fleet. Health
  // bookkeeping is left to actual fetch attempts — a metadata probe
  // bouncing off a busy node is not evidence worth demoting it over.
  const std::vector<bool> eligible = Eligibility(fleet_view());
  std::vector<int> order = LiveChain(map_.ShardOfKey(key, &eligible),
                                     &eligible);
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
    } catch (const BusyError&) {
      last = std::current_exception();
    } catch (const RpcError&) {
      throw;  // the server answered: bad key is bad on every replica
    } catch (const Error&) {
      last = std::current_exception();
    }
  }
  std::rethrow_exception(last);
}

std::vector<int> ShardedNdpClient::LiveChain(
    int shard, const std::vector<bool>* eligible) {
  const std::vector<int> chain = map_.ReplicaChain(shard, eligible);
  std::vector<int> live;
  std::vector<int> demoted;
  {
    std::lock_guard lk(suspect_mu_);
    for (const int sv : chain) {
      (suspect_[static_cast<size_t>(sv)] ? demoted : live).push_back(sv);
    }
  }
  for (const int sv : demoted) {
    obs::DefaultRegistry().GetCounter("cluster_draining_skips_total")
        .Increment();
    obs::GlobalEventLog().Append(
        "cluster.draining_skip",
        "shard=" + ShardTag(shard) + " server=" + std::to_string(sv));
    live.push_back(sv);  // still last-resort usable: demoted, not dropped
  }
  return live;
}

void ShardedNdpClient::SetStream(const ndp::StreamOptions& options) {
  stream_ = options;
  for (const std::shared_ptr<ndp::NdpClient>& s : servers_) {
    s->SetStream(options);
  }
}

void ShardedNdpClient::SetHedgeHint(double seconds) {
  hedge_hint_seconds_.store(seconds, std::memory_order_relaxed);
  hedge_hint_at_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

std::optional<std::chrono::microseconds> ShardedNdpClient::HedgeDelay()
    const {
  if (options_.hedge_ms < 0) return std::nullopt;
  double ms = options_.hedge_ms;
  if (ms == 0) {
    // Adaptive: hedge at the tail of what sub-fetches normally take, so
    // the backup fires only for genuinely slow replicas. Preference
    // order: a fresh fleet-wide windowed p95 pushed by a FleetScraper
    // (it sees every node, not just the shards this client drew), then
    // this client's own sliding window, then the cumulative series, and
    // the floor while everything is cold.
    ms = options_.hedge_floor_ms;
    const double hint = hedge_hint_seconds_.load(std::memory_order_relaxed);
    const std::int64_t hint_at =
        hedge_hint_at_us_.load(std::memory_order_relaxed);
    const std::int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const bool hint_fresh =
        hint > 0 && hint_at > 0 &&
        now_us - hint_at <
            1000 * static_cast<std::int64_t>(options_.hedge_hint_ttl_ms);
    if (hint_fresh) {
      ms = std::max(options_.hedge_floor_ms, 1e3 * hint);
    } else {
      const obs::MetricSnapshot window = subfetch_seconds_.WindowSnapshot();
      if (window.count >= options_.min_hedge_samples) {
        ms = std::max(
            options_.hedge_floor_ms,
            1e3 * obs::SnapshotQuantile(window, options_.hedge_quantile));
      } else if (subfetch_seconds_.cumulative().count() >=
                 options_.min_hedge_samples) {
        ms = std::max(options_.hedge_floor_ms,
                      1e3 * obs::HistogramQuantile(
                                subfetch_seconds_.cumulative(),
                                options_.hedge_quantile));
      }
    }
  }
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
}

void ShardedNdpClient::Park(std::vector<std::future<void>>&& futures) {
  std::vector<std::future<void>> overflow;
  {
    std::lock_guard lk(pending_mu_);
    for (std::future<void>& f : futures) {
      if (!f.valid()) continue;
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        f.get();  // worker bodies never throw; this just releases state
      } else {
        pending_.push_back(std::move(f));
      }
    }
    futures.clear();
    // Bound the parked set: past the cap, the oldest losers get joined
    // instead of accumulating threads without limit.
    while (pending_.size() > kMaxParked) {
      overflow.push_back(std::move(pending_.front()));
      pending_.erase(pending_.begin());
    }
    parked_gauge_.Set(static_cast<double>(pending_.size()));
  }
  // Join the overflow outside the lock; each join is bounded by the
  // per-call timeout on the underlying clients.
  for (std::future<void>& f : overflow) f.get();
}

void ShardedNdpClient::Reap(bool wait) {
  std::vector<std::future<void>> grabbed;
  {
    std::lock_guard lk(pending_mu_);
    grabbed.swap(pending_);
  }
  std::vector<std::future<void>> keep;
  for (std::future<void>& f : grabbed) {
    if (!f.valid()) continue;
    if (wait ||
        f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      f.get();
    } else {
      keep.push_back(std::move(f));
    }
  }
  {
    std::lock_guard lk(pending_mu_);
    for (std::future<void>& f : keep) pending_.push_back(std::move(f));
    parked_gauge_.Set(static_cast<double>(pending_.size()));
  }
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

ndp::PartialFetch ShardedNdpClient::HedgedFetch(
    int shard, const std::vector<int>& chain, const std::string& key,
    const std::string& array, const std::vector<double>& isovalues,
    const std::vector<std::int64_t>* only_bricks) {
  obs::Registry& reg = obs::DefaultRegistry();
  auto state = std::make_shared<Race>();
  state->slots.resize(chain.size());
  std::vector<std::future<void>> attempts;

  // Worker threads inherit the caller's trace context so their spans and
  // the server-side spans they trigger nest under this sub-fetch.
  const obs::TraceContext parent_ctx = obs::CurrentTraceContext();
  const std::vector<std::int64_t> bricks_copy =
      only_bricks != nullptr ? *only_bricks : std::vector<std::int64_t>{};
  const bool restricted = only_bricks != nullptr;

  auto launch = [&](size_t slot_idx) {
    const int sv = chain[slot_idx];
    state->slots[slot_idx].server = sv;
    std::shared_ptr<ndp::NdpClient> client =
        servers_[static_cast<size_t>(sv)];
    attempts.push_back(std::async(
        std::launch::async,
        [this, state, slot_idx, sv, client, key, array, isovalues,
         bricks_copy, restricted, parent_ctx]() {
          std::optional<obs::ScopedTraceContext> scope;
          if (parent_ctx.valid()) scope.emplace(parent_ctx);
          std::optional<ndp::PartialFetch> result;
          std::exception_ptr error;
          try {
            result = client->FetchPartial(
                key, array, isovalues, restricted ? &bricks_copy : nullptr);
          } catch (const BusyError&) {
            // An overloaded node is the one health signal an attempt
            // sees directly; demote it for subsequent chains.
            MarkSuspect(sv, true);
            error = std::current_exception();
          } catch (...) {
            error = std::current_exception();
          }
          std::lock_guard lk(state->mu);
          Slot& slot = state->slots[slot_idx];
          slot.result = std::move(result);
          slot.error = error;
          slot.done = true;
          state->cv.notify_all();
        }));
  };

  const std::optional<std::chrono::microseconds> hedge_delay = HedgeDelay();
  size_t next = 0;
  launch(next++);
  bool hedge_fired = false;
  size_t hedge_slot = 0;

  ndp::PartialFetch result;
  int winner = -1;
  {
    std::unique_lock lk(state->mu);
    for (;;) {
      size_t done = 0;
      std::exception_ptr last_error;
      for (size_t i = 0; i < next; ++i) {
        const Slot& slot = state->slots[i];
        if (!slot.done) continue;
        ++done;
        if (slot.result.has_value() && winner < 0) {
          winner = static_cast<int>(i);
        }
        if (slot.error != nullptr) last_error = slot.error;
      }
      if (winner >= 0) {
        result = std::move(*state->slots[static_cast<size_t>(winner)].result);
        break;
      }
      if (done == next) {
        // Every launched attempt failed. A server-reported application
        // error (bad key/array — BusyError excepted, that's admission
        // control) would fail identically on every replica: propagate.
        try {
          std::rethrow_exception(last_error);
        } catch (const BusyError&) {
        } catch (const RpcError&) {
          throw;
        } catch (...) {
        }
        if (next >= chain.size()) std::rethrow_exception(last_error);
        lk.unlock();
        reg.GetCounter("cluster_failover_total").Increment();
        obs::GlobalEventLog().Append(
            "cluster.failover", "shard=" + ShardTag(shard) + " server=" +
                                    std::to_string(chain[next]));
        launch(next++);
        lk.lock();
        continue;
      }
      // Something is still running. Fire the hedge once its delay
      // elapses with no resolution; otherwise just wait for progress.
      const size_t seen = done;
      auto progressed = [&] {
        size_t now_done = 0;
        for (size_t i = 0; i < next; ++i) {
          if (state->slots[i].done) ++now_done;
        }
        return now_done > seen;
      };
      if (!hedge_fired && hedge_delay.has_value() && next < chain.size()) {
        if (!state->cv.wait_for(lk, *hedge_delay, progressed)) {
          hedge_fired = true;
          hedge_slot = next;
          lk.unlock();
          reg.GetCounter("ndp_hedge_launched_total").Increment();
          obs::GlobalEventLog().Append(
              "cluster.hedge", "shard=" + ShardTag(shard) + " server=" +
                                   std::to_string(chain[next]));
          launch(next++);
          lk.lock();
        }
        continue;
      }
      state->cv.wait(lk, progressed);
    }
  }

  if (hedge_fired) {
    const bool hedge_won = winner == static_cast<int>(hedge_slot);
    reg.GetCounter(hedge_won ? "ndp_hedge_won_total" : "ndp_hedge_lost_total")
        .Increment();
    obs::GlobalEventLog().Append(
        hedge_won ? "cluster.hedge_won" : "cluster.hedge_lost",
        "shard=" + ShardTag(shard) + " server=" +
            std::to_string(state->slots[static_cast<size_t>(winner)].server));
  }

  // Hand losers still in flight to the reaper; their slots stay alive
  // through the shared Race until the worker finishes.
  Park(std::move(attempts));
  return result;
}

ndp::StreamAccumulator ShardedNdpClient::SubFetch(
    int shard, const std::string& key, const std::string& array,
    const std::vector<double>& isovalues,
    const std::vector<std::int64_t>* only_bricks,
    const std::vector<bool>& eligible, Merge& merge) {
  const std::vector<int> chain =
      LiveChain(shard, eligible.empty() ? nullptr : &eligible);
  obs::Registry& reg = obs::DefaultRegistry();
  reg.GetCounter("cluster_subfetch_total", {{"shard", ShardTag(shard)}})
      .Increment();
  obs::Span span("cluster.shard" + ShardTag(shard));

  if (stream_.chunk_bricks == 0) {
    ndp::PartialFetch won =
        HedgedFetch(shard, chain, key, array, isovalues, only_bricks);
    span.End();
    subfetch_seconds_.Observe(span.ElapsedSeconds());
    obs::Span merge_span("cluster.merge");
    // A slice with no straddling brick ships no chunk: nothing to merge.
    if (won.acc.chunks > 0) merge.Deliver(won.acc.header, won.selection);
    return std::move(won.acc);
  }

  ndp::StreamAccumulator acc;
  acc.streamed = true;
  const auto deliver = [&](ndp::DecodedSelection&& sel) {
    merge.Deliver(acc.header, sel);
  };
  std::exception_ptr last;
  for (size_t i = 0; i < chain.size(); ++i) {
    const int sv = chain[i];
    if (i > 0) {
      reg.GetCounter("cluster_failover_total").Increment();
      obs::GlobalEventLog().Append(
          "cluster.failover",
          "shard=" + ShardTag(shard) + " server=" + std::to_string(sv));
      if (acc.got_header) {
        // The hop continues a started stream from its cursor — a
        // mid-stream resume on a different data copy, the recovery rung
        // the per-node resume budget cannot provide.
        reg.GetCounter("ndp_stream_resume_total").Increment();
        obs::GlobalEventLog().Append(
            "ndp.stream_resume",
            "key=" + key + " cursor=" + std::to_string(acc.cursor) +
                " server=" + std::to_string(sv));
      }
    }
    try {
      servers_[static_cast<size_t>(sv)]->StreamSelect(
          key, array, isovalues, only_bricks, acc, deliver);
      span.End();
      subfetch_seconds_.Observe(span.ElapsedSeconds());
      return acc;
    } catch (const BusyError&) {
      MarkSuspect(sv, true);
      last = std::current_exception();
    } catch (const RpcError&) {
      throw;  // application error: identical on every replica
    } catch (const Error&) {
      last = std::current_exception();
    }
  }
  std::rethrow_exception(last);
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
  Reap(/*wait=*/false);

  // One membership snapshot per fetch: placement, chains, and the
  // rescue rung below all answer to the same view, and no lock is held
  // once it is taken.
  const std::vector<bool> eligible = Eligibility(fleet_view());

  // Placement needs the brick decomposition; an unbricked array cannot
  // be sub-divided and routes whole to its rendezvous owner — as does an
  // array the catalog doesn't know, which the home server rejects with
  // its canonical application error.
  const ndp::NdpClient::FileInfo info = Info(key);
  const ndp::NdpClient::FileInfo::Array* meta = info.Find(array);
  std::vector<std::pair<int, std::vector<std::int64_t>>> plan;
  const bool whole_key = meta == nullptr || meta->brick_count == 0;
  if (whole_key) {
    plan.emplace_back(map_.ShardOfKey(key, &eligible),
                      std::vector<std::int64_t>{});
  } else {
    std::vector<std::vector<std::int64_t>> slices =
        map_.Partition(key, meta->brick_count, &eligible);
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
        std::launch::async, [this, shard = shard, &key, &array, &isovalues,
                             restriction, parent_ctx, &eligible, &merge]() {
          std::optional<obs::ScopedTraceContext> scope;
          if (parent_ctx.valid()) scope.emplace(parent_ctx);
          return SubFetch(shard, key, array, isovalues, restriction, eligible,
                          merge);
        }));
  }

  std::vector<ndp::StreamAccumulator> selects;
  selects.reserve(plan.size() + 1);
  std::exception_ptr shard_failure;
  for (std::future<ndp::StreamAccumulator>& f : futures) {
    try {
      selects.push_back(f.get());
    } catch (const BusyError&) {
      shard_failure = std::current_exception();
    } catch (const RpcError&) {
      throw;  // application error: identical on every replica
    } catch (const Error&) {
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
    obs::DefaultRegistry().GetCounter("cluster_unrestricted_fallback_total")
        .Increment();
    obs::GlobalEventLog().Append("cluster.unrestricted_fallback",
                                 "key=" + key);
    bool rescued = false;
    // Usable nodes first; the rest only as a last resort (the view may
    // be stale, and a "dead" node that answers is better than no data).
    std::vector<int> rescue_order;
    for (int pass = 0; pass < 2; ++pass) {
      for (int sv = 0; sv < server_count(); ++sv) {
        if (eligible[static_cast<size_t>(sv)] == (pass == 0)) {
          rescue_order.push_back(sv);
        }
      }
    }
    for (const int sv : rescue_order) {
      if (rescued) break;
      try {
        obs::Span rescue_span("cluster.rescue");
        ndp::StreamAccumulator acc;
        acc.streamed = stream_.chunk_bricks > 0;
        servers_[static_cast<size_t>(sv)]->StreamSelect(
            key, array, isovalues, nullptr, acc,
            [&](ndp::DecodedSelection&& sel) {
              merge.Deliver(acc.header, sel);
            });
        selects.push_back(std::move(acc));
        rescued = true;
      } catch (const Error& e) {
        // Swallowed on purpose — the next server in the order is the
        // answer — but journaled so a fetch that exhausts every rescue
        // rung leaves a per-server trail of what refused it.
        obs::GlobalEventLog().Append(
            "cluster.rescue_failed",
            "server=" + std::to_string(sv) + " error=" + e.what());
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
