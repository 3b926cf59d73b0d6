#include "testing/chaos.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_util/testbed.h"
#include "cluster/fleet_scraper.h"
#include "cluster/sharded_client.h"
#include "common/error.h"
#include "compress/codec.h"
#include "contour/polydata.h"
#include "io/vnd_format.h"
#include "ndp/bricked_select.h"
#include "obs/audit.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/impact.h"
#include "testing/fuzz.h"

namespace vizndp::testing {
namespace {

const std::vector<double> kIsos = {0.2, 0.5};
constexpr const char* kKey = "chaos.vnd";

enum class Fault {
  kKill,
  kRestart,
  kDelay,
  kCorrupt,
  kBusy,
  kQuiet,
  kStoreEio,
  kStoreSlow,
};

void StoreDataset(storage::ObjectStore& store, const std::string& bucket,
                  const ChaosOptions& options) {
  sim::ImpactConfig cfg;
  cfg.n = options.n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(options.brick_edge);
  writer.WriteToStore(store, bucket, kKey);
}

std::uint64_t CounterValue(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

// Every counter family in the process registry, summed across its label
// series: the SLO counters label by objective ({slo=...}), the slow-node
// counter by node and the rpc client's by method, so the audit compares
// whole families, not one series.
std::map<std::string, std::uint64_t> CounterFamilies() {
  std::map<std::string, std::uint64_t> sums;
  std::string base;
  obs::Labels labels;
  for (const obs::MetricSnapshot& s : obs::DefaultRegistry().Snapshot()) {
    if (s.kind != obs::MetricSnapshot::Kind::kCounter) continue;
    obs::ParseCanonicalName(s.name, &base, &labels);
    sums[base] += static_cast<std::uint64_t>(s.value + 0.5);
  }
  return sums;
}

// Availability objective the chaos scraper runs under: one dead node of
// three yields a 1/3 bad ratio per sweep, far above every threshold,
// while the windows are small enough that a recovery tail of good
// sweeps clears the alert and refills the budget within seconds.
obs::SloObjective ChaosAvailabilityObjective() {
  obs::SloObjective avail;
  avail.name = "availability";
  avail.error_counter = "fleet_scrape_failed_total";
  avail.total_counter = "fleet_scrape_total";
  avail.max_bad_ratio = 0.02;
  avail.short_window_s = 0.25;
  avail.long_window_s = 1.0;
  avail.budget_window_s = 2.5;
  avail.short_burn_threshold = 5;
  avail.long_burn_threshold = 2;
  return avail;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream os;
  os << "chaos: schedules=" << schedules << " fetches=" << fetches
     << " kills=" << kills << " restarts=" << restarts << " delays=" << delays
     << " corrupts=" << corrupts << " busies=" << busies
     << " store_eios=" << store_eios << " store_slows=" << store_slows
     << " rejoined_served=" << rejoined_served
     << " rot_roundtrips=" << rot_roundtrips << " slo_burn_alerts=" << slo_burn_alerts
     << " slo_burn_clears=" << slo_burn_clears << " slow_nodes=" << slow_nodes
     << " stream_fetches=" << stream_fetches
     << " stream_resumes=" << stream_resumes
     << " stream_cancels=" << stream_cancels
     << " violations=" << violations.size();
  return os.str();
}

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosReport report;
  obs::EventLog& journal = obs::GlobalEventLog();

  for (int sched = 0; sched < options.schedules; ++sched) {
    // Fresh journal per schedule so CountSince never loses events to the
    // ring (sequence numbers keep climbing across Clear).
    journal.Clear();
    const std::uint64_t base_seq = journal.LastSeq();
    std::map<std::string, std::uint64_t> counter_base = CounterFamilies();

    auto violate = [&](int step, const std::string& what) {
      report.violations.push_back("schedule " + std::to_string(sched) +
                                  " step " + std::to_string(step) + ": " +
                                  what);
    };

    // Every schedule decision comes from this rng alone, and the state it
    // consults (alive/busy bookkeeping) is driver-side and deterministic,
    // so a seed replays the same fault sequence exactly.
    FuzzRng rng(options.seed * 0x9E3779B97F4A7C15ull +
                static_cast<std::uint64_t>(sched));

    std::vector<bool> was_restarted(static_cast<size_t>(options.servers),
                                    false);
    auto phase_t0 = std::chrono::steady_clock::now();
    auto phase = [&](const char* name) {
      if (!options.verbose) return;
      const auto now = std::chrono::steady_clock::now();
      std::fprintf(stderr, "chaos:   phase %-12s %6.2fs\n", name,
                   std::chrono::duration<double>(now - phase_t0).count());
      phase_t0 = now;
    };
    {
      bench_util::ClusterTestbedConfig config;
      config.servers = options.servers;
      config.replicas = options.replicas;
      config.client_options.call_timeout = options.call_timeout;
      config.sharded.hedge_ms = options.hedge_ms;
      config.store_retry.max_attempts = options.store_retry_attempts;
      bench_util::ClusterTestbed cluster(config);
      StoreDataset(cluster.store(), cluster.bucket(), options);

      // The oracle: one healthy node's full pipeline, fetched before any
      // fault. Every chaotic fetch must reproduce it bit for bit.
      const contour::PolyData reference =
          cluster.server_client(0)->Contour(kKey, "v02", kIsos);

      // The observability plane rides along on its own per-node scrape
      // channels (never the data path). The harness sweeps at controlled
      // points, so every SLO evaluation is schedule-deterministic.
      std::vector<std::shared_ptr<ndp::NdpClient>> scrape_clients;
      for (int i = 0; i < options.servers; ++i) {
        scrape_clients.push_back(cluster.NewNodeClient(i));
      }
      cluster::FleetScraperOptions fleet_opts;
      fleet_opts.objectives = {ChaosAvailabilityObjective()};
      cluster::FleetScraper scraper(std::move(scrape_clients), fleet_opts);

      phase("setup");
      // Two warm sweeps: SLO deltas need a previous cumulative snapshot.
      scraper.ScrapeOnce();
      scraper.ScrapeOnce();

      // Every other fetch goes through the chunked-reply path, so every
      // fault kind also lands on streams — which must hold the exact
      // same contract: degraded latency, never degraded bits.
      ndp::StreamOptions stream_on;
      stream_on.chunk_bricks = options.stream_chunk_bricks;
      std::uint64_t fetch_index = 0;
      auto check_fetch_mode = [&](int step, bool streaming) {
        cluster.sharded_client()->SetStream(streaming ? stream_on
                                                      : ndp::StreamOptions{});
        const auto fetch_start = std::chrono::steady_clock::now();
        try {
          const contour::PolyData got =
              cluster.sharded_client()->Contour(kKey, "v02", kIsos);
          ++report.fetches;
          if (streaming) ++report.stream_fetches;
          if (!got.GeometricallyEquals(reference, 0.0)) {
            violate(step, "geometry differs from single-server oracle");
          }
        } catch (const Error& e) {
          violate(step, std::string("fetch failed: ") + e.what());
          if (options.verbose) {
            // The journal holds the per-server trail of what refused this
            // fetch (failovers, rescue refusals) — print the tail.
            const auto events = journal.Events();
            const size_t n = events.size();
            for (size_t i = n > 12 ? n - 12 : 0; i < n; ++i) {
              std::fprintf(stderr, "chaos:     journal %s %s\n",
                           events[i].name.c_str(), events[i].detail.c_str());
            }
          }
        }
        if (options.verbose) {
          const double s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - fetch_start)
                               .count();
          if (s > 0.25) {
            std::fprintf(stderr, "chaos:   slow fetch step %d: %.2fs\n", step,
                         s);
          }
        }
      };
      auto check_fetch = [&](int step) {
        check_fetch_mode(step, options.stream_chunk_bricks > 0 &&
                                   (fetch_index++ % 2 == 1));
      };

      int busy_node = -1;  // node currently shedding selects, or -1
      auto alive_count = [&] {
        int n = 0;
        for (int i = 0; i < options.servers; ++i) n += cluster.alive(i);
        return n;
      };
      auto pick_alive = [&]() -> int {
        std::vector<int> up;
        for (int i = 0; i < options.servers; ++i) {
          if (cluster.alive(i)) up.push_back(i);
        }
        return up[static_cast<size_t>(rng.Below(up.size()))];
      };

      for (int step = 0; step < options.steps; ++step) {
        if (busy_node >= 0) {  // overload clears after one step
          cluster.rpc_server(busy_node).memory_budget().SetLimit(0);
          busy_node = -1;
        }

        Fault fault;
        if (step == 0) {
          fault = Fault::kKill;  // every schedule exercises the headline
        } else if (step == 1) {
          fault = Fault::kRestart;  // ...kill -> restart -> serves again
        } else {
          fault = static_cast<Fault>(rng.Below(8));
        }

        const auto fault_start = std::chrono::steady_clock::now();
        switch (fault) {
          case Fault::kKill: {
            // Keep at least one non-busy live node, or every fetch rung
            // (including the unrestricted rescue) legitimately fails and
            // the availability invariant means nothing.
            if (busy_node >= 0 || alive_count() < 2) break;
            const int victim = pick_alive();
            cluster.KillServer(victim);
            ++report.kills;
            break;
          }
          case Fault::kRestart: {
            std::vector<int> down;
            for (int i = 0; i < options.servers; ++i) {
              if (!cluster.alive(i)) down.push_back(i);
            }
            if (down.empty()) break;
            const int node =
                down[static_cast<size_t>(rng.Below(down.size()))];
            cluster.RestartServer(node);
            was_restarted[static_cast<size_t>(node)] = true;
            ++report.restarts;
            break;
          }
          case Fault::kDelay: {
            // Finite script: the next 1-3 replies on one data channel
            // stall past the hedge delay, then the channel heals.
            const int node = pick_alive();
            const size_t frames = 1 + rng.Below(3);
            const auto hold = std::chrono::microseconds(
                static_cast<std::int64_t>(1000 + rng.Below(14000)));
            cluster.fault(node).ScriptReceive(std::vector<net::FaultAction>(
                frames, net::FaultAction::Delay(hold)));
            ++report.delays;
            break;
          }
          case Fault::kCorrupt: {
            // Truncation breaks the msgpack envelope, so the client sees
            // a typed decode failure and fails over. (A BitFlip would
            // mostly land in the selection payload, which now carries a
            // CRC-32 in both reply shapes, so it too would fail typed;
            // scheduling flips is left for a later change.)
            const int node = pick_alive();
            cluster.fault(node).ScriptReceive(
                {net::FaultAction::Truncate(rng.Below(48))});
            ++report.corrupts;
            break;
          }
          case Fault::kBusy: {
            if (alive_count() < 2) break;
            busy_node = pick_alive();
            cluster.rpc_server(busy_node).memory_budget().SetLimit(1);
            ++report.busies;
            break;
          }
          case Fault::kQuiet:
            break;
          case Fault::kStoreEio: {
            // Transient EIO storm on the shared store's read path, sized
            // so even one op's retries can drain it without exhausting
            // the ladder: the gateway heals in place and the fetch below
            // never notices (store_retry_total moves, geometry does not).
            const size_t frames = 1 + rng.Below(static_cast<size_t>(
                                          options.store_retry_attempts - 1));
            cluster.store_fault().Script(
                storage::StoreOp::kRead,
                std::vector<storage::StoreFaultAction>(
                    frames, storage::StoreFaultAction::Eio()));
            ++report.store_eios;
            break;
          }
          case Fault::kStoreSlow: {
            // Slow-disk window: the next few reads stall, modeling a
            // device in an internal GC pause. Purely latency — nothing
            // to heal, geometry unaffected.
            const size_t frames = 1 + rng.Below(4);
            const auto hold = std::chrono::microseconds(
                static_cast<std::int64_t>(200 + rng.Below(3000)));
            cluster.store_fault().Script(
                storage::StoreOp::kRead,
                std::vector<storage::StoreFaultAction>(
                    frames, storage::StoreFaultAction::Delay(hold)));
            ++report.store_slows;
            break;
          }
        }
        if (options.verbose) {
          const double s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - fault_start)
                               .count();
          static const char* kFaultNames[] = {
              "kill", "restart",   "delay",     "corrupt",
              "busy", "quiet",     "store_eio", "store_slow"};
          std::fprintf(stderr, "chaos:   sched %d step %d: %s (%.2fs)\n",
                       sched, step, kFaultNames[static_cast<int>(fault)], s);
        }

        if (step == 0 && options.servers >= 2) {
          // Kill -> burn: the dead node's failed scrapes are availability
          // bad events (1/3 of each sweep), so a burst of sweeps inside
          // the short window must page exactly once (edge-triggered).
          for (int sweep = 0; sweep < 6; ++sweep) {
            scraper.ScrapeOnce();
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
          }
          if (journal.CountSince("slo.burn_alert", base_seq) == 0) {
            violate(step, "step-0 kill never fired slo.burn_alert");
          }
        }

        for (int f = 0; f < options.fetches_per_step; ++f) check_fetch(step);
      }

      phase("steps");
      // Recovery tail: heal everything and restart every dead node.
      if (busy_node >= 0) {
        cluster.rpc_server(busy_node).memory_budget().SetLimit(0);
        busy_node = -1;
      }
      for (int i = 0; i < options.servers; ++i) {
        // Drop unconsumed delay/corrupt scripts (a slice that routed no
        // traffic never drained them) so the checks below measure the
        // healed fleet, not a stale fault.
        cluster.fault(i).ScriptSend({});
        cluster.fault(i).ScriptReceive({});
      }
      // Same for unconsumed disk-fault scripts on the shared store.
      cluster.store_fault().ClearFaults();
      for (int i = 0; i < options.servers; ++i) {
        if (!cluster.alive(i)) {
          cluster.RestartServer(i);
          was_restarted[static_cast<size_t>(i)] = true;
          ++report.restarts;
        }
      }

      // The healed fleet must restore the error budget: with every node
      // serving again, good sweeps age the kill burst out of the budget
      // window, the alert clears, and budget_remaining returns to 1.
      {
        const auto slo_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        bool restored = false;
        while (!restored && std::chrono::steady_clock::now() < slo_deadline) {
          const auto snap = scraper.ScrapeOnce();
          restored = !snap->slo.empty() && !snap->slo[0].alerting &&
                     snap->slo[0].budget_remaining >= 0.999;
          if (!restored) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }
        if (!restored) {
          violate(options.steps, "slo budget never restored after restart");
        }
        if (journal.CountSince("slo.burn_alert", base_seq) > 0 &&
            journal.CountSince("slo.burn_clear", base_seq) == 0) {
          violate(options.steps, "slo alert never cleared after restart");
        }
      }

      // Bit-rot round trip: flip one bit at rest in a brick every fetch
      // needs. Every node reads the one shared store, so no replica has
      // a clean copy: the read path's CRC check must catch the rot
      // (corrupt_brick_total moves) and the fetch must fail typed with
      // CorruptDataError, never return geometry. After a clean re-Put
      // the next fetch must match the oracle with no CRC failure.
      {
        const int rot_step = options.steps + 1;
        const io::VndReader probe_reader(cluster.LocalGateway().Open(kKey));
        const io::VndHeader& header = probe_reader.header();
        const io::ArrayMeta* meta = header.Find("v02");
        std::int64_t rot_brick = -1;
        if (meta != nullptr && meta->bricks.has_value()) {
          const ndp::BrickPlan plan =
              ndp::PlanBricks(header.dims, *meta, kIsos);
          if (!plan.bricks.empty()) rot_brick = plan.bricks.front();
        }
        if (rot_brick < 0) {
          violate(rot_step, "no isovalue-straddling brick to rot");
        } else {
          const io::BrickEntry& entry =
              meta->bricks->entries[static_cast<size_t>(rot_brick)];
          const Bytes clean = cluster.store().Get(cluster.bucket(), kKey);
          Bytes rotted = clean;
          const std::uint64_t victim =
              header.blob_base + meta->offset + entry.offset +
              rng.Below(entry.stored_size);
          rotted[static_cast<size_t>(victim)] ^=
              static_cast<Byte>(1u << rng.Below(8));
          cluster.store().Put(cluster.bucket(), kKey, ByteSpan(rotted));

          const size_t violations_before = report.violations.size();
          const std::uint64_t corrupt_before =
              CounterValue("corrupt_brick_total");
          try {
            cluster.sharded_client()->Contour(kKey, "v02", kIsos);
            violate(rot_step, "fetch over a rotted brick returned geometry");
          } catch (const CorruptDataError&) {
            // The typed outcome: no node has a clean copy.
          } catch (const Error& e) {
            violate(rot_step, std::string("rotted fetch threw ") + e.what());
          }
          if (CounterValue("corrupt_brick_total") == corrupt_before) {
            violate(rot_step, "no CRC check caught the planted rot");
          }

          // Repair: re-Put the clean image on the running fleet.
          cluster.store().Put(cluster.bucket(), kKey, ByteSpan(clean));
          const std::uint64_t corrupt_healed =
              CounterValue("corrupt_brick_total");
          check_fetch(rot_step);
          if (CounterValue("corrupt_brick_total") != corrupt_healed) {
            violate(rot_step, "the re-Put brick still failed its CRC");
          }
          if (report.violations.size() == violations_before) {
            ++report.rot_roundtrips;
          }
        }
      }
      phase("rot");

      // A restarted node must be *serving* again: fetch through the
      // sharded client (its slice may be empty for this key), then
      // directly, and require the fresh incarnation's select counter to
      // move.
      check_fetch(options.steps);
      for (int i = 0; i < options.servers; ++i) {
        if (!was_restarted[static_cast<size_t>(i)]) continue;
        auto served = [&] {
          return cluster.ndp_server(i)
                     .metrics()
                     .GetCounter("ndp_select_requests_total")
                     .value() > 0;
        };
        if (!served()) {
          try {
            ndp::StreamAccumulator acc;
            cluster.server_client(i)->StreamSelect(
                kKey, "v02", kIsos, nullptr, acc,
                [](ndp::DecodedSelection&&) { return true; });
          } catch (const Error& e) {
            violate(options.steps, "restarted node " + std::to_string(i) +
                                       " unusable after restart: " + e.what());
          }
        }
        if (served()) {
          ++report.rejoined_served;
        } else {
          violate(options.steps, "restarted node " + std::to_string(i) +
                                     " never served a select");
        }
      }

      // Streaming recovery drills — the chunked-reply contract under
      // chaos: every started stream completes bit-identically, resumes
      // from its cursor, or is accounted cancelled.
      if (options.stream_chunk_bricks > 0) {
        const int drill_step = options.steps + 2;
        // (a) Client cancel: accounted exactly once, where it is
        // detected (the serving node's counter) and in the journal.
        // Audited over this restart-free window because restarts reset
        // per-server registries, which the catalog audit cannot cover.
        {
          auto cancelled_sum = [&] {
            std::uint64_t sum = 0;
            for (int i = 0; i < options.servers; ++i) {
              sum += cluster.ndp_server(i)
                         .metrics()
                         .GetCounter("ndp_stream_cancelled_total")
                         .value();
            }
            return sum;
          };
          const std::shared_ptr<ndp::NdpClient> direct =
              cluster.server_client(pick_alive());
          const std::uint64_t cancels_before = cancelled_sum();
          const std::uint64_t cancel_seq = journal.LastSeq();
          bool landed = false;
          // Every store read of the drill waits 30 ms, so the server
          // reads the third brick long after the client queued its
          // cancel at the second data chunk, and that chunk's Emit finds
          // it. Without the wait a short stream can emit every chunk
          // before the cancel frame lands. No other store fault is live
          // here: the recovery tail cleared them all.
          cluster.store_fault().Script(
              storage::StoreOp::kRead,
              {storage::StoreFaultAction::Delay(std::chrono::milliseconds(30))},
              /*loop_last=*/true);
          // acc.cancelled says which way a stream went, so a lost race
          // would just rerun the drill.
          for (int attempt = 0; attempt < 3 && !landed; ++attempt) {
            ndp::StreamAccumulator acc;
            acc.stream.chunk_bricks = 1;  // maximize boundaries
            try {
              // Cancels at the second data chunk.
              direct->StreamSelect(kKey, "v02", kIsos, nullptr, acc,
                                   [&](ndp::DecodedSelection&&) {
                                     return acc.chunks == 0;
                                   });
              landed = acc.cancelled;
            } catch (const Error& e) {
              violate(drill_step,
                      std::string("cancel drill fetch failed: ") + e.what());
              break;
            }
          }
          cluster.store_fault().ClearFaults();
          const std::uint64_t cancel_delta = cancelled_sum() - cancels_before;
          const size_t cancel_events =
              journal.CountSince("ndp.stream_cancel", cancel_seq);
          if (!landed) {
            violate(drill_step, "cancel drill never landed mid-stream");
          } else if (cancel_delta == 0) {
            violate(drill_step, "cancelled stream not accounted on server");
          }
          if (cancel_delta != cancel_events) {
            violate(drill_step,
                    "audit: ndp_stream_cancelled_total=" +
                        std::to_string(cancel_delta) +
                        " but ndp.stream_cancel events=" +
                        std::to_string(cancel_events));
          }
          report.stream_cancels += cancel_delta;
        }
        // (b) Chunk-boundary kill: sever one node's data channel at the
        // first chunk boundary of a sharded stream. The cursor must
        // resume (same node is permanently down, so on a replica) and
        // the merged geometry must still match the oracle bit for bit.
        // The victim is whichever node delivers the first data chunk —
        // a pre-picked node can't work, because progress only fires for
        // data chunks and a shard slice with no straddling bricks
        // streams zero of them, leaving the kill unarmed. This drill
        // runs last for a reason: fault-layer disconnects are
        // permanent, and nothing touches the severed channel again
        // before teardown.
        {
          std::atomic<bool> armed{true};
          for (int i = 0; i < options.servers; ++i) {
            cluster.server_client(i)->SetStreamProgress(
                [&, i](const ndp::StreamProgress&) {
                  if (armed.exchange(false)) {
                    cluster.fault(i).ScriptReceive(
                        {net::FaultAction::Disconnect()});
                  }
                });
          }
          const std::uint64_t resumes_before =
              CounterValue("ndp_stream_resume_total");
          check_fetch_mode(drill_step, /*streaming=*/true);
          for (int i = 0; i < options.servers; ++i) {
            cluster.server_client(i)->SetStreamProgress({});
          }
          if (CounterValue("ndp_stream_resume_total") == resumes_before) {
            violate(drill_step,
                    "chunk-boundary kill never produced a stream resume");
          }
        }
      }

      phase("recovery");
    }  // testbed destroyed: every serve loop and hedge loser joined
    phase("teardown");

    // Audit: with all threads quiesced, every counter family in the
    // obs::Audit catalog moved in lockstep with its journal events...
    std::map<std::string, std::uint64_t> journaled;  // family -> events
    for (const auto& [event, family] : obs::AuditCatalog()) {
      journaled[family] += journal.CountSince(event, base_seq);
    }
    std::map<std::string, std::uint64_t> counter_now = CounterFamilies();
    for (const auto& [family, events] : journaled) {
      const std::uint64_t delta = counter_now[family] - counter_base[family];
      if (delta != events) {
        violate(-1, "audit: " + family + "=" + std::to_string(delta) +
                        " but its events=" + std::to_string(events));
      }
    }
    report.stream_resumes += journal.CountSince("ndp.stream_resume", base_seq);
    report.slo_burn_alerts += journal.CountSince("slo.burn_alert", base_seq);
    report.slo_burn_clears += journal.CountSince("slo.burn_clear", base_seq);
    report.slow_nodes += journal.CountSince("cluster.slow_node", base_seq);
    // ...and no hedge loser outlived its client.
    const double parked =
        obs::DefaultRegistry().GetGauge("cluster_hedge_parked").value();
    if (parked != 0) {
      violate(-1, "audit: cluster_hedge_parked=" + std::to_string(parked) +
                      " after testbed teardown");
    }

    ++report.schedules;
    if (options.verbose) {
      std::printf("chaos: schedule %d/%d done (violations=%zu)\n", sched + 1,
                  options.schedules, report.violations.size());
      std::fflush(stdout);
    }
  }
  return report;
}

}  // namespace vizndp::testing
