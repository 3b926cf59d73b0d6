// RPC server: named handlers dispatched over any Transport. Mirrors
// rpclib's `server.bind(name, fn)` model. Handler exceptions are caught
// and returned to the caller as RPC errors rather than killing the server.
//
// Every server owns an obs::Registry: Dispatch maintains a per-method
// request count, error count, and latency histogram (plus the unlabeled
// rpc_requests_total behind requests_served()), and emits one
// "rpc.dispatch:<method>" span per request on the "server" trace track.
//
// Overload control: SetOptions can cap concurrent in-flight requests and
// hand out a byte budget for decompressed working memory. A request that
// would exceed either cap is *shed before its handler runs* — the caller
// gets a BusyError-prefixed reply it can always retry — and Stop() turns
// the server into a draining one: in-flight requests finish (bounded by
// the drain deadline), everything new is shed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "msgpack/value.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace vizndp::rpc {

// Per-server robustness knobs: one poisoned request (oversized frame,
// undecodable garbage, or a handler that blows its deadline) is counted,
// the connection is dropped, and the dispatch thread survives to serve
// the next connection.
struct ServerOptions {
  // Largest request frame Dispatch will touch; larger frames close the
  // connection (rpc_oversize_frames_total).
  std::uint64_t max_frame_bytes = 1ull << 30;
  // Budget for one handler run; 0 disables. A handler cannot be
  // preempted, but an overrun is reported to the caller as an RPC error
  // instead of a silently slow reply (rpc_deadline_exceeded_total).
  std::chrono::milliseconds request_deadline{0};
  // Admission control: maximum concurrently executing handlers; 0 means
  // unlimited. The excess request is shed with a retryable busy reply
  // before its handler runs (rpc_busy_rejected_total).
  int max_inflight = 0;
  // Byte budget for decompressed working memory, enforced through
  // memory_budget() by handlers that reserve before allocating
  // (NdpServer reserves each request's raw array size); 0 = unlimited.
  std::uint64_t mem_budget_bytes = 0;
  // How long Stop() waits for in-flight handlers before giving up.
  std::chrono::milliseconds drain_deadline{5000};
};

// Tracks reservations of a shared byte budget (decompressed brick
// memory). Lock-free; over-budget reservations fail instead of blocking,
// so the caller can shed the request as retryable-busy rather than queue
// unbounded work.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  void SetLimit(std::uint64_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }
  std::uint64_t limit() const {
    return limit_.load(std::memory_order_relaxed);
  }
  std::uint64_t in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }

  // Gauge mirroring in_use(), e.g. rpc_mem_budget_used_bytes. Optional;
  // must outlive the budget.
  void SetGauge(obs::Gauge* gauge) { gauge_ = gauge; }

  // False when the reservation would exceed the limit (limit 0 always
  // admits but still tracks usage, so the gauge stays meaningful).
  bool TryReserve(std::uint64_t bytes);
  void Release(std::uint64_t bytes);

  // RAII reservation: throws BusyError when the budget cannot admit
  // `bytes`, releases on destruction.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(MemoryBudget& budget, std::uint64_t bytes);
    ~Reservation();

    Reservation(Reservation&& other) noexcept;
    Reservation& operator=(Reservation&& other) noexcept;
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;

   private:
    MemoryBudget* budget_ = nullptr;
    std::uint64_t bytes_ = 0;
  };

 private:
  std::atomic<std::uint64_t> limit_{0};
  std::atomic<std::uint64_t> in_use_{0};
  obs::Gauge* gauge_ = nullptr;
};

// Outbound side of one streaming reply (protocol.h: chunk frames
// [2, msgid, map] followed by one ordinary terminal response). Handed to
// handlers bound with BindStreaming; the dispatcher owns the concrete
// sink and ties it to the request's transport and msgid.
class StreamSink {
 public:
  virtual ~StreamSink() = default;

  // Sends one chunk frame. Returns false when the stream is dead — the
  // client sent a cancel frame or the connection closed — after which
  // the handler must stop producing and return promptly (its return
  // value is replaced by a cancelled terminal response).
  virtual bool Emit(const msgpack::Value& chunk) = 0;

  // True once a cancel frame or peer-close has been observed. Checked by
  // handlers between expensive batches to abandon work early.
  virtual bool Cancelled() const = 0;

  std::uint64_t chunks_emitted() const { return chunks_emitted_; }

 protected:
  std::uint64_t chunks_emitted_ = 0;
};

class Server {
 public:
  Server();

  using Handler = std::function<msgpack::Value(const msgpack::Array& params)>;
  // Streaming handler: `sink` is null when the request arrived through a
  // transport-less Dispatch (in-proc tests, old front ends) — the
  // handler must then answer monolithically, exactly like a Handler.
  using StreamingHandler = std::function<msgpack::Value(
      const msgpack::Array& params, StreamSink* sink)>;

  void SetOptions(const ServerOptions& options);
  const ServerOptions& options() const { return options_; }

  void Bind(const std::string& method, Handler handler);

  // Binds a method that may stream its reply. Whether it actually
  // streams is the handler's choice per request (ndp.select streams only
  // when the params carry a stream map), so one binding serves old
  // monolithic clients and new streaming ones.
  void BindStreaming(const std::string& method, StreamingHandler handler);

  // Serves one connection until the peer closes or the server stops.
  // Runs on the caller's thread; use std::thread for concurrent serving.
  void ServeTransport(net::Transport& transport);

  // Core dispatch: decodes one request frame, runs the handler, returns
  // the encoded response frame. Exposed for tests. Safe to call from
  // many threads at once (that is what the in-flight cap is for).
  Bytes Dispatch(ByteSpan request_frame);

  // Transport-aware dispatch: identical, except a streaming handler gets
  // a live StreamSink that emits chunk frames on `transport` and polls
  // it (non-blocking, between frames) for cancel frames. Returns the
  // terminal response frame, or empty Bytes for a frame that needs no
  // reply (a stray cancel for an already-closed stream). ServeTransport
  // uses this overload; chunk emission happens on the caller's thread,
  // so Send never races the serve loop's Receive.
  Bytes Dispatch(ByteSpan request_frame, net::Transport* transport);

  // Graceful drain: immediately sheds every new request with a busy
  // reply, then waits up to options().drain_deadline for in-flight
  // handlers to finish. Returns true when the server drained fully
  // (false: the deadline passed with handlers still running, counted in
  // rpc_drain_timeouts_total). After Stop, ServeTransport loops exit on
  // their next tick. Idempotent.
  bool Stop();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

  // One currently executing handler, as reported by the ndp.health RPC:
  // which method, since when (GlobalTracer µs), and — when the request
  // carried a trace context — which trace to pull for the full story.
  struct InflightRequest {
    std::string method;
    std::uint64_t trace_id = 0;  // 0 = untraced request
    std::uint64_t start_us = 0;  // admission time, GlobalTracer clock
  };

  // Snapshot of the handlers executing right now (admitted, not shed).
  std::vector<InflightRequest> InflightSnapshot() const;

  // Shared decompressed-memory budget (limit follows
  // options().mem_budget_bytes). Handlers reserve through this before
  // large allocations; see NdpServer::SetMemoryBudget.
  MemoryBudget& memory_budget() { return mem_budget_; }

  // Total dispatches, successful or not (kept from the pre-obs API; now
  // backed by the rpc_requests_total counter in metrics()).
  std::uint64_t requests_served() const { return requests_total_->value(); }

  // Per-server metrics: rpc_requests_total, rpc_errors_total and
  // rpc_dispatch_seconds{method=...}, rpc_unknown_method_total, plus the
  // overload set: rpc_busy_rejected_total, rpc_inflight_requests (gauge),
  // rpc_mem_budget_used_bytes (gauge), rpc_drain_timeouts_total.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

 private:
  // Handler plus its metric handles, resolved once at Bind. Exactly one
  // of handler / streaming is set; three audits share rpc_errors_total.
  struct Bound {
    Bound(obs::Registry& metrics, const obs::Labels& labels);

    Handler handler;
    StreamingHandler streaming;
    obs::Counter* requests;
    obs::WindowedHistogram* latency;
    obs::Audit handler_error;
    obs::Audit corrupt_reply;
    obs::Audit io_reply;
    obs::Audit deadline;
  };

  Bound& BindCommon(const std::string& method);

  std::map<std::string, Bound> handlers_;
  ServerOptions options_;
  obs::Registry metrics_;
  obs::Counter* requests_total_ = &metrics_.GetCounter("rpc_requests_total");
  obs::Gauge* inflight_gauge_ =
      &metrics_.GetGauge("rpc_inflight_requests");
  obs::Audit shed_{metrics_, "rpc_busy_rejected_total", {}, "rpc.shed"};
  obs::Audit unknown_method_{metrics_, "rpc_unknown_method_total", {},
                             "rpc.unknown_method"};
  obs::Audit drain_timeout_{metrics_, "rpc_drain_timeouts_total", {},
                            "rpc.drain_timeout"};
  obs::Audit oversize_frame_{metrics_, "rpc_oversize_frames_total", {},
                             "rpc.oversize_frame"};
  obs::Audit malformed_frame_{metrics_, "rpc_malformed_frames_total", {},
                              "rpc.malformed_frame"};

  std::atomic<int> inflight_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  MemoryBudget mem_budget_;

  // Registry behind InflightSnapshot(); keyed by a private token so two
  // concurrent requests with equal msgids (different connections) don't
  // collide.
  mutable std::mutex inflight_table_mu_;
  std::map<std::uint64_t, InflightRequest> inflight_table_;
  std::uint64_t next_inflight_token_ = 1;
};

// TCP front end: accepts connections on a loopback port and serves each on
// its own thread. Stop() (or destruction) drains the rpc::Server, then
// closes the listener and joins every connection thread.
class TcpRpcServer {
 public:
  // port 0 picks an ephemeral port.
  explicit TcpRpcServer(Server& server, std::uint16_t port = 0);
  ~TcpRpcServer();

  TcpRpcServer(const TcpRpcServer&) = delete;
  TcpRpcServer& operator=(const TcpRpcServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  // Graceful shutdown: drain the server (finish in-flight, shed new,
  // bounded by its drain deadline), stop accepting, join all connection
  // threads. Idempotent; the destructor calls it.
  void Stop();

 private:
  void AcceptLoop();

  Server& server_;
  net::TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex workers_mu_;
};

}  // namespace vizndp::rpc
