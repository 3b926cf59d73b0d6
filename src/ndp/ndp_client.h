// Client-side half of the split pipeline: issues the pre-filter RPC,
// reconstructs the sparse field, and runs the post-filter (sparse
// marching cubes). Produces geometry identical to the traditional
// full-read pipeline — see tests/ndp_test.cc for the proof-by-test.
#pragma once

#include <chrono>
#include <memory>
#include <optional>

#include "contour/polydata.h"
#include "contour/sparse_field.h"
#include "ndp/protocol.h"
#include "net/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/algorithm.h"
#include "rpc/client.h"
#include "storage/file_gateway.h"

namespace vizndp::ndp {

// Fault-tolerance knobs for the NDP client path. All NDP RPCs are pure
// reads, so every call is marked idempotent and retried per `retry`.
struct NdpClientOptions {
  // Per-RPC deadline; 0 blocks forever (the pre-fault-tolerance default).
  std::chrono::milliseconds call_timeout{0};
  // Retry schedule applied to the underlying rpc::Client at construction.
  net::RetryPolicy retry{};
};

// Streaming-fetch knobs (protocol.h stream shape). chunk_bricks == 0
// asks for the one-shot reply (the stream's single batch); > 0 asks the
// server for per-brick-batch chunk frames, delivered as they arrive.
struct StreamOptions {
  std::int64_t chunk_bricks = 0;
  // Per-chunk progress deadline: how long the stream may sit with no
  // frame before the call fails typed (StreamStallError — distinct from
  // the overall call deadline, which still applies). 0 = no per-chunk
  // deadline.
  std::chrono::milliseconds chunk_timeout{0};
  // Mid-stream recovery budget against one node: how many times a fetch
  // re-issues the call with resume_after=<cursor> after a timeout /
  // stall / closed peer before the error propagates (and, under
  // ShardedNdpClient, the stream hops to the next replica).
  int max_resumes = 4;
};

// Live progress of one streaming fetch, delivered per chunk to
// NdpClient::SetStreamProgress (vizndp_tool's progress line).
struct StreamProgress {
  std::uint64_t chunks = 0;
  std::int64_t bricks_done = 0;
  std::int64_t stream_bricks = 0;  // from the header; 0 until it arrives
  std::uint64_t points = 0;        // shipped (incl. ghost duplicates)
  std::uint64_t resumes = 0;
};
using StreamProgressFn = std::function<void(const StreamProgress&)>;

// One select's state across resume attempts and (in the sharded
// client) replica hops. Both reply shapes feed it the same way: a
// one-shot reply is a header, one data chunk and a terminal. The cursor
// is the resume token of a stream: chunks already delivered are never
// re-requested, and the order/duplicate-invariant SparseField::Scatter
// makes re-delivered ghost points harmless, so any mix of nodes
// reconstructs the same field.
struct StreamAccumulator {
  std::int64_t cursor = -1;  // last brick id delivered
  // The shape and resume budget asked for (chunk_bricks 0 = one-shot),
  // fixed across resumes and hops: the only stream setting a select
  // reads, so a select that outlives its caller never races SetStream.
  StreamOptions stream;
  bool got_header = false;
  bool cancelled = false;  // the server acknowledged a stream's cancel
  StreamHeader header;     // first attempt's header (authoritative)
  std::uint64_t chunks = 0;
  std::uint64_t resumes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t shipped_points = 0;  // incl. ghost duplicates
  std::int64_t bricks_done = 0;
  double decode_s = 0;
  double scatter_s = 0;
  // Server-side accounting, summed over the terminal summaries (absent
  // after a cancel: the stream never finished).
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::int64_t bricks_read = 0;
  double server_read_s = 0;
  double server_select_s = 0;

  bool streamed() const { return stream.chunk_bricks > 0; }
};

// Per-phase accounting of one NDP data load (the paper's "data load
// time" for NDP runs = read + decompress + filter + transfer).
struct NdpLoadStats {
  std::uint64_t stored_bytes = 0;    // compressed bytes read on the server
  std::uint64_t raw_bytes = 0;       // decompressed array size
  std::uint64_t payload_bytes = 0;   // selection payload shipped to client
  std::uint64_t selected_points = 0;
  std::uint64_t total_points = 0;
  // Brick-indexed arrays only: how much of the array the server touched.
  std::int64_t bricks_total = 0;
  std::int64_t bricks_read = 0;
  // Client-side phase timings, populated from obs::Span measurements
  // (the same spans that feed the trace buffer when tracing is on).
  // Measured on the server as busy time summed over a batch's parts,
  // so they can exceed the server's wall time.
  double server_read_s = 0;    // incl. decompress
  double server_select_s = 0;
  double client_s = 0;         // RPC round trip + decode + scatter
  double client_decode_s = 0;  // payload decode ("ndp.decode" spans)
  double client_scatter_s = 0; // sparse-field scatter ("ndp.scatter" spans)
  // True when the NDP path was unreachable and NdpContourSource served
  // this load through the baseline full-array read instead.
  bool used_fallback = false;
  // Reply-shape accounting: a one-shot load is one chunk.
  bool streamed = false;
  std::uint64_t stream_chunks = 0;
  std::uint64_t stream_resumes = 0;
  // Distributed trace this load ran under (0 when tracing was off); the
  // key into the merged timeline and the event journal.
  std::uint64_t trace_id = 0;

  double Selectivity() const {
    return total_points == 0 ? 0.0
                             : static_cast<double>(selected_points) /
                                   static_cast<double>(total_points);
  }
};

// What NdpContourSource (and any other consumer of the split pipeline)
// actually needs from "the NDP path": a sparse field plus load stats.
// NdpClient fetches it from one storage node; cluster::ShardedNdpClient
// scatter-gathers it from many. Both produce bit-identical fields, so
// pipelines are oblivious to the cluster topology behind them.
class NdpFetcher {
 public:
  virtual ~NdpFetcher() = default;

  // Runs the pre-filter remotely and reconstructs the sparse field.
  // Grid geometry comes back in the reply. `stats` may be null.
  virtual contour::SparseField FetchSparseField(
      const std::string& key, const std::string& array,
      const std::vector<double>& isovalues, grid::UniformGeometry* geometry,
      NdpLoadStats* stats = nullptr) = 0;

  // Full NDP contour: fetch + post-filter in one call.
  contour::PolyData Contour(const std::string& key, const std::string& array,
                            const std::vector<double>& isovalues,
                            NdpLoadStats* stats = nullptr);
};

// Adds one select's accounting to `stats`: the one place load stats are
// filled from the wire. Counts and bytes sum; the server phase times
// take the max, because a sharded fetch's selects run in parallel.
// selected_points is left to the caller, who deduplicates in the field.
void AddLoadStats(const StreamAccumulator& acc, NdpLoadStats& stats);

class NdpClient : public NdpFetcher {
 public:
  explicit NdpClient(std::shared_ptr<rpc::Client> client,
                     std::string bucket = "data",
                     const NdpClientOptions& options = {});

  // Streaming mode: chunk_bricks > 0 turns FetchSparseField into a
  // chunked fetch with mid-stream recovery (see StreamSelect).
  void SetStream(const StreamOptions& options) { stream_ = options; }

  // Per-chunk progress callback (streaming fetches only), after each
  // delivered chunk. Called on the fetch thread; keep it cheap.
  void SetStreamProgress(StreamProgressFn fn) { progress_ = std::move(fn); }

  // Each data chunk's decoded selection, handed over by StreamSelect
  // inside an "ndp.scatter" span: the payload's runs and its value block
  // in place, for SparseField::Scatter by runs. The accumulator's header
  // has always arrived by the first call. Returning false is the one way
  // to cancel a select, and leaves the chunk uncounted: a stream sends
  // the cancel frame and drains to its terminal, a one-shot reply's
  // remaining maps are dropped.
  using StreamDeliverFn = std::function<bool(DecodedSelection&&)>;
  // Called once, when the first header arrives, before any delivery and
  // outside the decode and scatter spans: where a caller builds what it
  // scatters into.
  using StreamHeaderFn = std::function<void(const StreamHeader&)>;
  // Asked before each resume, never per chunk: false means the caller
  // does not want this node to continue the select, so its error
  // propagates instead of resuming here. The replica walk says false
  // when a hedge walk has a different winner, and when the stream has no
  // header yet: a node that never answered is failed over, not redialed.
  using StreamWantedFn = std::function<bool()>;

  // One ndp.select against this node, optionally restricted to
  // `only_bricks` (sorted brick ids; nullptr = the whole array), in the
  // shape acc.stream asks for, fed into `acc`: both shapes' header and
  // data maps go through one StreamDecoder, each data chunk is decoded
  // and delivered, and the terminal summary is added to the
  // accumulator. A stream recovers mid-flight: on TimeoutError /
  // StreamStallError / PeerClosedError / TransientIoError it re-issues
  // the call with resume_after=<cursor> (ndp_stream_resume_total /
  // ndp.stream_resume per attempt, up to acc.stream.max_resumes), so
  // chunks already delivered are never refetched. Other errors (a CRC
  // mismatch is CorruptDataError), an exhausted resume budget, any error
  // once `deliver` has refused a chunk or `wanted` has said no (the
  // caller cancelled, so a failed drain is not resumed), and any error
  // of a one-shot call (the rpc client's retry policy covers those)
  // propagate; ShardedNdpClient then hops to the next replica with the
  // same accumulator.
  void StreamSelect(const std::string& key, const std::string& array,
                    const std::vector<double>& isovalues,
                    const std::vector<std::int64_t>* only_bricks,
                    StreamAccumulator& acc, const StreamDeliverFn& deliver,
                    const StreamHeaderFn& on_header = {},
                    const StreamWantedFn& wanted = {});

  // Runs the pre-filter remotely and reconstructs the sparse field.
  // Grid geometry comes back in the reply. `stats` may be null.
  contour::SparseField FetchSparseField(const std::string& key,
                                        const std::string& array,
                                        const std::vector<double>& isovalues,
                                        grid::UniformGeometry* geometry,
                                        NdpLoadStats* stats = nullptr) override;

  // Near-data array statistics (ndp.stats): only the histogram crosses
  // the network, never the array.
  struct ArrayStats {
    double min = 0;
    double max = 0;
    std::uint64_t count = 0;
    std::vector<std::uint64_t> histogram;  // uniform bins over [min, max]

    double BinLow(size_t bin) const {
      return min + (max - min) * static_cast<double>(bin) /
                       static_cast<double>(histogram.size());
    }
  };

  ArrayStats Stats(const std::string& key, const std::string& array,
                   int bins = 64);

  // ndp.info scrape: dims plus per-array layout, including the brick
  // decomposition a sharded client partitions over (brick_count 0 =
  // monolithic blob, no sub-request sharding possible for that array).
  // Every key is required: a reply missing one throws.
  struct FileInfo {
    grid::Dims dims;
    struct Array {
      std::string name;
      std::uint64_t raw_size = 0;
      std::uint64_t stored_size = 0;
      std::int64_t brick_count = 0;
      std::int32_t brick_edge = 0;
    };
    std::vector<Array> arrays;

    const Array* Find(const std::string& name) const {
      for (const Array& a : arrays) {
        if (a.name == name) return &a;
      }
      return nullptr;
    }
  };
  FileInfo Info(const std::string& key);

  // Scrapes the storage node's metric registries over the ndp.metrics
  // RPC. Use obs::FindMetric to pick out individual samples.
  std::vector<obs::MetricSnapshot> ScrapeMetrics();

  // Same scrape rendered server-side ("text", "json", or "prom" —
  // Prometheus exposition), for dashboards that want bytes, not values.
  std::string ScrapeMetricsFormatted(const std::string& format);

  // ndp.health scrape: what the storage node is doing right now. Every
  // key is required: a reply missing one throws.
  struct HealthReport {
    bool draining = false;
    std::int64_t inflight = 0;
    std::uint64_t mem_in_use = 0;
    std::uint64_t mem_limit = 0;
    struct Request {
      std::string method;
      std::uint64_t trace_id = 0;
      std::uint64_t age_us = 0;
    };
    std::vector<Request> requests;
    // Clock stamps.
    double wall_s = 0;
    double uptime_s = 0;
    // Sliding-window latency summary of the node's pre-filter
    // (ndp_select_seconds_window).
    double window_seconds = 0;
    std::uint64_t window_count = 0;
    double window_p50 = 0;
    double window_p95 = 0;
    double window_p99 = 0;
  };
  HealthReport Health();

 private:
  rpc::CallOptions CallOpts() const {
    return rpc::CallOptions{options_.call_timeout, /*idempotent=*/true};
  }

  // One call attempt, either reply shape, feeding the accumulator from
  // its current cursor; throws on any failure (StreamSelect resumes
  // streams).
  void StreamSelectOnce(const std::string& key, const std::string& array,
                        const std::vector<double>& isovalues,
                        const std::vector<std::int64_t>* only_bricks,
                        StreamAccumulator& acc, const StreamDeliverFn& deliver,
                        const StreamHeaderFn& on_header);

  // Feeds one header or data map, of either reply shape, through
  // `decoder` (StreamDecoder::Feed, the only path from wire bytes to
  // chunk data) into the accumulator: a data chunk is decoded inside an
  // "ndp.decode" span, delivered inside an "ndp.scatter" span, and
  // reported as progress. Returns false when the deliver asked to stop.
  bool AcceptMap(StreamAccumulator& acc, StreamDecoder& decoder,
                 msgpack::Value map, const StreamDeliverFn& deliver,
                 const StreamHeaderFn& on_header) const;

  std::shared_ptr<rpc::Client> client_;
  std::string bucket_;
  NdpClientOptions options_;
  StreamOptions stream_;
  StreamProgressFn progress_;
};

// Quantile-based contour-value suggestions from near-data statistics.
std::vector<double> SuggestIsovalues(const NdpClient::ArrayStats& stats,
                                     int k);

// Pipeline source producing the NDP contour as PolyData, so split
// pipelines compose with ordinary sinks (Fig. 10's client half).
//
// With SetFallback, the source degrades gracefully: when the NDP path is
// unreachable after the client's retries (timeout, peer gone, corrupt
// frames — anything but a server-reported application error), it reads
// the full array through the given gateway and contours it locally,
// producing geometry identical to the NDP path. Each degradation
// increments ndp_fallback_total in obs::DefaultRegistry() and sets
// NdpLoadStats::used_fallback.
class NdpContourSource final : public pipeline::Algorithm {
 public:
  // Accepts any fetcher: a single-node NdpClient or a
  // cluster::ShardedNdpClient — the pipeline shape is identical.
  NdpContourSource(std::shared_ptr<NdpFetcher> client, std::string key,
                   std::string array, std::vector<double> isovalues)
      : client_(std::move(client)),
        key_(std::move(key)),
        array_(std::move(array)),
        isovalues_(std::move(isovalues)) {}

  void SetKey(std::string key) {
    key_ = std::move(key);
    Modified();
  }
  void SetIsovalues(std::vector<double> isovalues) {
    isovalues_ = std::move(isovalues);
    Modified();
  }

  // Enables the baseline full-read fallback. The gateway's underlying
  // ObjectStore must outlive this source.
  void SetFallback(storage::FileGateway gateway) {
    fallback_.emplace(std::move(gateway));
    Modified();
  }

  const NdpLoadStats& last_stats() const { return stats_; }

  std::string Name() const override { return "NdpContourSource(" + key_ + ")"; }
  int InputPortCount() const override { return 0; }

 protected:
  pipeline::DataObjectPtr Execute(
      const std::vector<pipeline::DataObjectPtr>& inputs) override;

 private:
  contour::PolyData BaselineContour();

  std::shared_ptr<NdpFetcher> client_;
  std::string key_;
  std::string array_;
  std::vector<double> isovalues_;
  std::optional<storage::FileGateway> fallback_;
  NdpLoadStats stats_;
};

}  // namespace vizndp::ndp
