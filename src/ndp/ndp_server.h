// Storage-side half of the split pipeline (Fig. 10): a partial VTK
// pipeline — source (VND reader over the *local* gateway) plus pre-filter
// (interesting-point selection) — exposed over RPC. The client-side
// post-filter talks to this via NdpClient.
//
// Observability: every request emits phase spans into the process
// tracer — one-shot: ndp.read around the batch's read and scan, then
// ndp.pack around its encode; streamed: one ndp.stream.chunk per batch;
// codec.decompress:* and, for an unbricked array, ndp.select.scan nest
// inside — and maintains counters for bytes in/out, selected points,
// and bricks skipped in metrics(). Bind() additionally exposes
// the node's telemetry over the wire: ndp.metrics scrapes the metric
// registries and ndp.health reports what the node is doing. A sampled
// request's spans go back to the client on its own reply (the rpc
// layer's piggyback), so no RPC drains the span buffer.
//
// Integrity: the pre-filter verifies per-brick CRCs and re-reads a
// failing brick once (see bricked_select.h). A brick that stays corrupt
// fails the request with CorruptDataError, and store failures with
// IoError; both cross the wire typed, so the client can fail over to a
// replica or degrade to its baseline pipeline.
#pragma once

#include <atomic>

#include "ndp/protocol.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "rpc/server.h"
#include "storage/file_gateway.h"
#include "storage/scrubber.h"

namespace vizndp::ndp {

// Random 64-bit server-incarnation id. Every NdpServer construction
// mints a fresh one, so a health prober that sees the id change knows
// the process (or server object) behind the endpoint restarted even if
// it never caught the endpoint down.
std::uint64_t MintNodeId();

class NdpServer {
 public:
  // `gateway` should be local to the storage node (that is the point);
  // it must outlive the server.
  explicit NdpServer(storage::FileGateway gateway)
      : gateway_(std::move(gateway)), node_id_(MintNodeId()) {
    // Anchor the process uptime clock now, so the first metrics scrape
    // reports time-since-serving-started, not time-since-first-scrape.
    obs::ProcessUptimeSeconds();
  }

  // This incarnation's identity, reported in every ndp.health reply.
  std::uint64_t node_id() const { return node_id_; }

  // Highest cluster view epoch any health prober has mentioned (probes
  // piggyback their view epoch as the optional first ndp.health param);
  // echoed back in health replies so operators can spot a prober whose
  // view lags the fleet.
  std::uint64_t seen_view_epoch() const {
    return seen_view_epoch_.load(std::memory_order_relaxed);
  }

  // Optional decompressed-memory budget (usually the owning
  // rpc::Server's). When set, each brick batch reserves the slab bytes
  // of its bricks while it is read, scanned and shipped; an exhausted
  // budget sheds the request with BusyError before any read happens.
  // Must outlive the server.
  void SetMemoryBudget(rpc::MemoryBudget* budget) { mem_budget_ = budget; }

  // Optional quarantine set maintained by a storage::Scrubber. When set,
  // the bricked pre-filter skips known-corrupt bricks straight to their
  // recovery re-read instead of prepaying a doomed read+decompress (see
  // bricked_select.h). Must outlive the server.
  void SetQuarantine(const storage::QuarantineSet* quarantine) {
    quarantine_ = quarantine;
  }

  // Optional scrubber whose status is surfaced in ndp.health replies
  // (passes, bricks checked, corrupt found, current quarantine size).
  // Must outlive the server.
  void SetScrubber(const storage::Scrubber* scrubber) {
    scrubber_ = scrubber;
  }

  // Registers ndp.select, ndp.info, ndp.stats, ndp.metrics and
  // ndp.health on `server`.
  void Bind(rpc::Server& server);

  // Handler core, exposed for tests: selects interesting points of
  // request.array for its isovalues one brick batch at a time (see
  // bricked_select.h; an unbricked array is a one-brick index), building
  // both reply shapes from one StreamHeader and one StreamChunk per
  // batch (protocol.h). One-shot (no stream map, or no `sink`): the plan
  // is one batch, returned as the terminal summary with the "header" map
  // and, when a brick straddles, the "chunk" map. Streamed: emits the
  // header, then a data chunk per batch of chunk_bricks bricks above
  // resume_after, into `sink`, and returns the terminal summary.
  //
  // Each batch reserves only its own slab bytes and releases them once
  // it has been shipped, so a stream pins one batch at a time. Shedding
  // (BusyError) can only happen at the first batch, before anything is
  // emitted; a later reservation failure waits briefly and then fails
  // with a plain (resumable, never `!busy:`) error. A cancel observed on
  // the sink abandons remaining batches (ndp_stream_cancelled_total /
  // ndp.stream_cancel).
  //
  // A brick restriction is the sub-request half of the scatter-gather
  // protocol (see src/cluster/). Corrupt bricks and store failures cross
  // the wire typed on every request; restricted ones are also counted
  // (ndp_restricted_corrupt_total / ndp.restricted_corrupt,
  // ndp_restricted_io_total / ndp.restricted_io) because their recovery
  // is the client's replica failover.
  msgpack::Value Select(const SelectRequest& request,
                        rpc::StreamSink* sink = nullptr);

  msgpack::Value Info(const std::string& key);

  // Near-data array statistics: min/max and a value histogram computed on
  // the storage node (the interactive front end uses these to suggest
  // contour values without ever moving the array). For brick-indexed
  // arrays the min/max comes straight from the header index.
  msgpack::Value Stats(const std::string& key, const std::string& array,
                       int bins);

  // Pre-filter metrics: ndp_select_requests_total, ndp_bytes_in_total,
  // ndp_bytes_out_total, ndp_selected_points_total,
  // ndp_bricks_skipped_total, ndp_stats_index_fastpath_total, ...
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

 private:
  storage::FileGateway gateway_;
  rpc::MemoryBudget* mem_budget_ = nullptr;
  const storage::QuarantineSet* quarantine_ = nullptr;
  const storage::Scrubber* scrubber_ = nullptr;
  obs::Registry metrics_;
  obs::Audit stream_cancel_{metrics_, "ndp_stream_cancelled_total", {},
                            "ndp.stream_cancel"};
  obs::Audit restricted_corrupt_{metrics_, "ndp_restricted_corrupt_total", {},
                                 "ndp.restricted_corrupt"};
  obs::Audit restricted_io_{metrics_, "ndp_restricted_io_total", {},
                            "ndp.restricted_io"};
  std::uint64_t node_id_;
  std::atomic<std::uint64_t> seen_view_epoch_{0};
};

}  // namespace vizndp::ndp
