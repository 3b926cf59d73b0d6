#include "rpc/server.h"

#include <memory>
#include <optional>
#include <thread>

#include "common/error.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "obs/context.h"
#include "obs/windowed.h"
#include "obs/trace.h"
#include "rpc/protocol.h"
#include "rpc/trace_wire.h"

namespace vizndp::rpc {

namespace {

// How often a serving loop wakes up to notice Server::Stop(). Without a
// tick, a worker blocked in Receive() on an idle connection would pin
// TcpRpcServer::Stop() forever.
constexpr std::chrono::milliseconds kServeTick{50};

// The msgid of a cancel frame; nullopt for any other frame, undecodable
// ones included (the serve loop judges those).
std::optional<std::uint64_t> CancelMsgid(ByteSpan frame) {
  try {
    const msgpack::Value value = msgpack::Decode(frame);
    const auto& fields = value.As<msgpack::Array>();
    if (fields.size() >= 2 && fields[0].AsInt() == kCancelType) {
      return fields[1].AsUint();
    }
  } catch (const Error&) {
  }
  return std::nullopt;
}

// StreamSink bound to one request's transport and msgid. Lives entirely
// on the dispatch thread: the serve loop is parked inside Dispatch while
// the handler runs, so Send/Receive here never race it.
class TransportStreamSink : public StreamSink {
 public:
  TransportStreamSink(net::Transport& transport, std::uint64_t msgid,
                      std::optional<Bytes>& pushback)
      : transport_(transport), msgid_(msgid), pushback_(pushback) {}

  bool Emit(const msgpack::Value& chunk) override {
    PollCancel();
    if (cancelled_ || dead_) return false;
    msgpack::Array frame;
    frame.emplace_back(kChunkType);
    frame.emplace_back(msgid_);
    frame.push_back(chunk);
    try {
      transport_.Send(msgpack::Encode(msgpack::Value(std::move(frame))));
    } catch (const Error&) {
      dead_ = true;  // peer vanished mid-stream: stop producing
      return false;
    }
    ++chunks_emitted_;
    // Give a consumer sharing this core a scheduling slot between
    // chunks. Emitting is much cheaper than consuming, so without the
    // yield a single-core box runs the whole stream — every chunk plus
    // the terminal — before the client thread ever wakes, and a cancel
    // sent after the first chunk can only lose the race. One yield per
    // chunk is noise at the production chunk size.
    std::this_thread::yield();
    return true;
  }

  bool Cancelled() const override { return cancelled_ || dead_; }

  // Non-blocking drain of frames the client pushed while the handler
  // computed a batch. This stream's cancel flips cancelled_, and a stale
  // cancel for an earlier stream is dropped. Any other frame is the
  // client's next request (one it sent after giving up on this stream):
  // it goes to `pushback_`, which the serve loop reads before the
  // transport, and the drain stops there. The already-expired deadline
  // never blocks, and on an idle connection it fires at a frame
  // boundary, so the transport stays framed.
  void PollCancel() {
    if (cancelled_ || dead_ || pushback_.has_value()) return;
    for (;;) {
      Bytes frame;
      try {
        frame = transport_.Receive(std::chrono::steady_clock::now());
      } catch (const TimeoutError&) {
        return;  // nothing waiting
      } catch (const Error&) {
        dead_ = true;  // peer closed mid-stream: abandon remaining work
        return;
      }
      const std::optional<std::uint64_t> cancel = CancelMsgid(frame);
      if (!cancel.has_value()) {
        pushback_ = std::move(frame);
        return;
      }
      if (*cancel == msgid_) {
        cancelled_ = true;
        return;
      }
    }
  }

 private:
  net::Transport& transport_;
  const std::uint64_t msgid_;
  std::optional<Bytes>& pushback_;
  bool cancelled_ = false;
  bool dead_ = false;
};

}  // namespace

bool MemoryBudget::TryReserve(std::uint64_t bytes) {
  const std::uint64_t limit = limit_.load(std::memory_order_relaxed);
  std::uint64_t used = in_use_.load(std::memory_order_relaxed);
  for (;;) {
    if (limit > 0 && (bytes > limit || used > limit - bytes)) return false;
    if (in_use_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      if (gauge_ != nullptr) gauge_->Set(static_cast<double>(used + bytes));
      return true;
    }
  }
}

void MemoryBudget::Release(std::uint64_t bytes) {
  const std::uint64_t before =
      in_use_.fetch_sub(bytes, std::memory_order_acq_rel);
  if (gauge_ != nullptr) gauge_->Set(static_cast<double>(before - bytes));
  Wake();
}

void MemoryBudget::SetLimit(std::uint64_t limit_bytes) {
  limit_.store(limit_bytes, std::memory_order_relaxed);
  Wake();
}

void MemoryBudget::Wake() {
  // Empty critical section: pairs with the predicate check in the
  // Reservation wait, so a release cannot slip between a waiter's
  // check and its wait.
  { std::lock_guard<std::mutex> lock(wait_mu_); }
  wait_cv_.notify_all();
}

MemoryBudget::Reservation::Reservation(MemoryBudget& budget,
                                       std::uint64_t bytes,
                                       std::chrono::milliseconds wait)
    : budget_(&budget), bytes_(bytes) {
  bool admitted = budget.TryReserve(bytes);  // the lock-free fast path
  if (!admitted && wait.count() > 0) {
    std::unique_lock<std::mutex> lock(budget.wait_mu_);
    admitted = budget.wait_cv_.wait_for(
        lock, wait, [&] { return budget.TryReserve(bytes); });
  }
  if (!admitted) {
    budget_ = nullptr;
    throw BusyError("memory budget exhausted (" + std::to_string(bytes) +
                    " bytes requested, " + std::to_string(budget.in_use()) +
                    "/" + std::to_string(budget.limit()) + " in use)");
  }
}

MemoryBudget::Reservation::~Reservation() {
  if (budget_ != nullptr) budget_->Release(bytes_);
}

MemoryBudget::Reservation::Reservation(Reservation&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

MemoryBudget::Reservation& MemoryBudget::Reservation::operator=(
    Reservation&& other) noexcept {
  if (this != &other) {
    if (budget_ != nullptr) budget_->Release(bytes_);
    budget_ = other.budget_;
    bytes_ = other.bytes_;
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

Server::Server() {
  // Scraped at 0 from boot: the fleet's error ratio sums this family.
  metrics_.GetCounter("rpc_busy_rejected_total");
}

void Server::SetOptions(const ServerOptions& options) {
  options_ = options;
  mem_budget_.SetLimit(options.mem_budget_bytes);
  mem_budget_.SetGauge(&metrics_.GetGauge("rpc_mem_budget_used_bytes"));
}

Server::Bound::Bound(obs::Registry& metrics, const obs::Labels& labels)
    : requests(&metrics.GetCounter("rpc_requests_total", labels)),
      // Windowed: scrapes see rpc_dispatch_seconds{method} (cumulative)
      // plus rpc_dispatch_seconds_window{method} for the last ~10 s.
      latency(&metrics.GetWindowedHistogram("rpc_dispatch_seconds",
                                            obs::LatencyBounds(), labels)),
      handler_error(metrics, "rpc_errors_total", labels, "rpc.handler_error"),
      corrupt_reply(metrics, "rpc_errors_total", labels, "rpc.corrupt_reply"),
      io_reply(metrics, "rpc_errors_total", labels, "rpc.io_reply"),
      deadline(metrics, "rpc_deadline_exceeded_total", labels,
               "rpc.deadline") {
  // Scraped at 0 from Bind on, like the request count.
  metrics.GetCounter("rpc_errors_total", labels);
}

Server::Bound& Server::BindCommon(const std::string& method) {
  const auto [it, inserted] = handlers_.try_emplace(
      method, metrics_, obs::Labels{{"method", method}});
  VIZNDP_CHECK_MSG(inserted, "duplicate RPC method '" + method + "'");
  return it->second;
}

void Server::Bind(const std::string& method, Handler handler) {
  BindCommon(method).handler = std::move(handler);
}

void Server::BindStreaming(const std::string& method,
                           StreamingHandler handler) {
  BindCommon(method).streaming = std::move(handler);
}

std::vector<Server::InflightRequest> Server::InflightSnapshot() const {
  std::lock_guard<std::mutex> lock(inflight_table_mu_);
  std::vector<InflightRequest> out;
  out.reserve(inflight_table_.size());
  for (const auto& [token, req] : inflight_table_) out.push_back(req);
  return out;
}

Bytes Server::Dispatch(ByteSpan request_frame) {
  return Dispatch(request_frame, nullptr);
}

Bytes Server::Dispatch(ByteSpan request_frame, Connection* connection) {
  // Receive timestamp for the reply piggyback (this server's clock; the
  // client aligns it with the NTP midpoint — see obs/trace_merge.h).
  const std::uint64_t t_recv = obs::GlobalTracer().NowMicros();
  msgpack::Value request = msgpack::Decode(request_frame);
  const auto& fields = request.As<msgpack::Array>();
  if (!fields.empty() && fields[0].AsInt() == kCancelType) {
    // A cancel frame that outlived its stream (the terminal response was
    // already sent): nothing to do, nothing to answer.
    return Bytes{};
  }
  if (fields.size() < 4 || fields[0].AsInt() != kRequestType) {
    throw RpcError("malformed RPC request");
  }
  const std::uint64_t msgid = fields[1].AsUint();
  const std::string& method = fields[2].As<std::string>();
  const auto& params = fields[3].As<msgpack::Array>();
  // Optional 5th element: the caller's trace context. Old clients send
  // 4-element frames and land here with an invalid (untraced) context;
  // anything malformed degrades to untraced rather than failing the call.
  obs::TraceContext ctx;
  if (fields.size() >= 5) ctx = ContextFromValue(fields[4]);
  std::optional<obs::ScopedTraceContext> trace_scope;
  if (ctx.valid()) trace_scope.emplace(ctx);

  obs::Span span("rpc.dispatch:" + method);
  // Counted before the handler runs so a scrape taken *inside* a handler
  // (ndp.metrics observing itself) sees consistent totals.
  requests_total_->Increment();
  msgpack::Value result;
  std::string error;
  const auto it = handlers_.find(method);
  bool ran_handler = false;
  if (draining_.load(std::memory_order_acquire)) {
    // Shed before the handler runs: the caller can safely retry against
    // another (or restarted) server even for non-idempotent methods.
    error = std::string(kBusyErrorPrefix) + "server draining";
    shed_.Record("reason=draining method=" + method);
  } else if (it == handlers_.end()) {
    error = "unknown method '" + method + "'";
    unknown_method_.Record("method=" + method);
  } else {
    const int now_inflight =
        inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    inflight_gauge_->Set(static_cast<double>(now_inflight));
    if (options_.max_inflight > 0 && now_inflight > options_.max_inflight) {
      error = std::string(kBusyErrorPrefix) + "too many in-flight requests (" +
              std::to_string(options_.max_inflight) + " allowed)";
      shed_.Record("reason=inflight method=" + method);
    } else {
      ran_handler = true;
      it->second.requests->Increment();
      std::uint64_t inflight_token;
      {
        std::lock_guard<std::mutex> lock(inflight_table_mu_);
        inflight_token = next_inflight_token_++;
        inflight_table_.emplace(
            inflight_token, InflightRequest{method, ctx.trace_id, t_recv});
      }
      std::unique_ptr<TransportStreamSink> sink;
      if (connection != nullptr && it->second.streaming) {
        sink = std::make_unique<TransportStreamSink>(
            connection->transport, msgid, connection->pushback);
      }
      try {
        result = it->second.streaming
                     ? it->second.streaming(params, sink.get())
                     : it->second.handler(params);
        if (sink != nullptr && sink->Cancelled()) {
          // The client asked for the abort (or vanished): acknowledge
          // with a typed terminal instead of a half-built result.
          error = std::string(kCancelledErrorPrefix) + "stream cancelled";
          result = msgpack::Value();
        }
      } catch (const BusyError& e) {
        if (sink != nullptr && sink->chunks_emitted() > 0) {
          // Invariant (overload_test pins it): `!busy:` means "the
          // handler never ran, retry blindly". A stream that already
          // emitted chunks has run, so a late budget failure must not
          // masquerade as a shed — it becomes an ordinary handler error.
          // The client sees a plain RpcError, which it does not resume:
          // NdpClient propagates it, and the sharded walk fails the
          // fetch as an application error instead of failing over.
          error = std::string("stream failed mid-flight: ") + e.what();
          it->second.handler_error.Record("method=" + method);
        } else {
          // Resource budget shed inside the handler, before any effect:
          // still always retryable from the client's point of view.
          error = std::string(kBusyErrorPrefix) + e.what();
          shed_.Record("reason=budget method=" + method);
        }
      } catch (const CorruptDataError& e) {
        // Typed so the client can distinguish "your data is bad" (fall
        // back to baseline) from generic handler failure.
        error = std::string(kCorruptErrorPrefix) + e.what();
        it->second.corrupt_reply.Record("method=" + method);
      } catch (const TransientIoError& e) {
        // Typed + ordered before IoError (its base): the client may
        // retry a transient storage failure, never a permanent one.
        error = std::string(kTransientIoErrorPrefix) + e.what();
        it->second.io_reply.Record("method=" + method + " transient=1");
      } catch (const IoError& e) {
        error = std::string(kIoErrorPrefix) + e.what();
        it->second.io_reply.Record("method=" + method);
      } catch (const std::exception& e) {
        error = std::string("handler failed: ") + e.what();
        it->second.handler_error.Record("method=" + method);
      }
      {
        std::lock_guard<std::mutex> lock(inflight_table_mu_);
        inflight_table_.erase(inflight_token);
      }
    }
    const int after = inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    inflight_gauge_->Set(static_cast<double>(after));
    if (after == 0 && draining_.load(std::memory_order_acquire)) {
      // Empty critical section: pairs with the predicate check in Stop()
      // so the last decrement cannot slip between its check and wait.
      { std::lock_guard<std::mutex> lock(drain_mu_); }
      drain_cv_.notify_all();
    }
  }
  span.End();
  if (ran_handler) {
    it->second.latency->Observe(span.ElapsedSeconds());
    // A handler cannot be preempted mid-run, but one that blew its
    // budget must not masquerade as a success: the caller gets a typed
    // error and the overrun is visible in metrics.
    const double deadline_s =
        std::chrono::duration<double>(options_.request_deadline).count();
    if (deadline_s > 0 && error.empty() &&
        span.ElapsedSeconds() > deadline_s) {
      error = "deadline exceeded in '" + method + "'";
      result = msgpack::Value();
      it->second.deadline.Record("method=" + method);
    }
  }

  msgpack::Array response;
  response.emplace_back(kResponseType);
  response.emplace_back(msgid);
  response.emplace_back(error.empty() ? msgpack::Value(msgpack::Nil{})
                                      : msgpack::Value(std::move(error)));
  response.push_back(std::move(result));
  if (ctx.valid()) {
    // Reply piggyback: the server's receive/send timestamps plus this
    // request's spans, *moved* out of the tracer (subtree under the
    // request's ctx span) so a shared in-proc tracer keeps exactly one
    // copy. Busy/error replies carry it too — failed attempts matter
    // most in a trace.
    msgpack::Map piggyback;
    piggyback.emplace_back(msgpack::Value(kPiggybackRecvKey),
                           msgpack::Value(t_recv));
    piggyback.emplace_back(msgpack::Value(kPiggybackSendKey),
                           msgpack::Value(obs::GlobalTracer().NowMicros()));
    piggyback.emplace_back(
        msgpack::Value(kPiggybackSpansKey),
        EventsToValue(obs::GlobalTracer().ExtractSubtree(ctx.trace_id,
                                                         ctx.span_id)));
    response.push_back(msgpack::Value(std::move(piggyback)));
  }
  return msgpack::Encode(msgpack::Value(std::move(response)));
}

bool Server::Stop() {
  draining_.store(true, std::memory_order_release);
  bool drained;
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drained = drain_cv_.wait_for(lock, options_.drain_deadline, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  if (!drained) {
    drain_timeout_.Record(
        "inflight=" +
        std::to_string(inflight_.load(std::memory_order_acquire)));
  }
  stopped_.store(true, std::memory_order_release);
  return drained;
}

void Server::ServeTransport(net::Transport& transport) {
  // Dispatch spans from this thread render on the "server" trace track.
  obs::GlobalTracer().SetThreadTrack("server");
  Connection connection{transport, std::nullopt};
  for (;;) {
    // Checked every round, not only on an idle tick: a peer that sends
    // faster than kServeTick (a 20ms health prober, say) would otherwise
    // keep this loop serving a stopped server forever, and whoever is
    // joining the worker blocks with it.
    if (stopped_.load(std::memory_order_acquire)) {
      transport.Close();
      return;
    }
    Bytes request;
    if (connection.pushback.has_value()) {
      request = std::move(*connection.pushback);
      connection.pushback.reset();
    } else {
      try {
        // Ticked rather than fully blocking so a stopped server's worker
        // threads become joinable even when their connections sit idle.
        request = transport.Receive(net::DeadlineAfter(kServeTick));
      } catch (const TimeoutError&) {
        continue;
      } catch (const Error&) {
        return;  // peer closed
      }
    }
    if (request.size() > options_.max_frame_bytes) {
      // An in-proc peer can bypass the TCP-level frame cap, so enforce it
      // here too; the connection is poisoned, not the server.
      oversize_frame_.Record("bytes=" + std::to_string(request.size()));
      transport.Close();
      return;
    }
    Bytes response;
    try {
      response = Dispatch(request, &connection);
    } catch (const Error&) {
      // Undecodable/malformed frame: drop the connection, keep serving
      // others. Before this guard, one garbage frame killed the thread.
      malformed_frame_.Record();
      transport.Close();
      return;
    }
    if (response.empty()) continue;  // stray cancel frame: no reply owed
    try {
      transport.Send(response);
    } catch (const Error&) {
      return;  // peer vanished between request and reply
    }
  }
}

TcpRpcServer::TcpRpcServer(Server& server, std::uint16_t port)
    : server_(server), listener_(port) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void TcpRpcServer::AcceptLoop() {
  for (;;) {
    net::TransportPtr conn;
    try {
      conn = listener_.Accept();
    } catch (const Error&) {
      return;  // listener torn down
    }
    if (stopping_.load()) {
      return;
    }
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back(
        [this, c = std::shared_ptr<net::Transport>(std::move(conn))] {
          server_.ServeTransport(*c);
        });
  }
}

void TcpRpcServer::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  // Drain first: in-flight handlers finish (bounded by the server's drain
  // deadline), new requests get busy replies, serve loops start exiting.
  server_.Stop();
  stopping_.store(true);
  // Wake the blocking accept() with a throwaway connection.
  try {
    net::TcpConnect("127.0.0.1", listener_.port());
  } catch (const Error&) {
    // Listener already failed; the accept thread has exited.
  }
  accept_thread_.join();
  std::lock_guard<std::mutex> lock(workers_mu_);
  for (std::thread& t : workers_) {
    t.join();
  }
}

TcpRpcServer::~TcpRpcServer() { Stop(); }

}  // namespace vizndp::rpc
