// RPC client: synchronous named calls over a Transport, mirroring
// rpclib's `client.call(name, args...)`, plus the fault-tolerance layer:
// per-call deadlines (TimeoutError), retry with exponential backoff for
// idempotent calls, and stale-reply discarding so a duplicated or
// late-arriving response frame never corrupts a later call.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
#include <string>

#include "msgpack/value.h"
#include "net/retry.h"
#include "net/transport.h"
#include "obs/audit.h"
#include "obs/metrics.h"

namespace vizndp::rpc {

struct CallOptions {
  // Per-call receive deadline; 0 falls back to the client default (whose
  // own 0 means block forever, the pre-fault-tolerance behaviour).
  std::chrono::milliseconds timeout{0};
  // Only idempotent calls may be retried: a retry re-executes the
  // handler, which must be harmless. All NDP reads qualify; writes
  // (store.put) must leave this false.
  bool idempotent = false;
};

class Client {
 public:
  explicit Client(net::TransportPtr transport)
      : transport_(std::move(transport)) {}

  // Default deadline applied when CallOptions.timeout is 0.
  void SetDefaultTimeout(std::chrono::milliseconds timeout) {
    std::lock_guard<std::mutex> lock(mu_);
    default_timeout_ = timeout;
  }

  // Retry schedule for idempotent calls (max_attempts = 1 disables).
  void SetRetryPolicy(const net::RetryPolicy& policy) {
    std::lock_guard<std::mutex> lock(mu_);
    retry_ = policy;
  }

  // Where rpc_retries_total / rpc_timeouts_total / rpc_stale_replies_total
  // land; defaults to obs::DefaultRegistry(). Must outlive the client.
  void SetMetrics(obs::Registry* metrics) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
  }

  // Calls `method` with positional `params`; blocks for the reply.
  // Throws RpcError when the server reports an error or the reply is
  // malformed, TimeoutError when every attempt ran past its deadline,
  // and PeerClosedError when the transport died and retries (if any)
  // were exhausted. Thread-safe (calls are serialized).
  msgpack::Value Call(const std::string& method, msgpack::Array params = {},
                      const CallOptions& options = {});

  // Invoked once per chunk frame with the decoded chunk map. Return
  // false to cancel the stream: the client sends one cancel frame and
  // drains to the terminal response.
  using ChunkCallback = std::function<bool(const msgpack::Value& chunk)>;

  struct StreamCallOptions {
    // Overall deadline for the whole stream (0 = client default).
    std::chrono::milliseconds timeout{0};
    // Progress deadline: the longest wait for the *next* frame before
    // the stream counts as wedged (StreamStallError); 0 disables. Kept
    // distinct from `timeout` — a healthy many-chunk stream may
    // legitimately outlive one monolithic call budget.
    std::chrono::milliseconds chunk_timeout{0};
  };

  // Streaming call (protocol.h chunk frames): blocks until the terminal
  // response, invoking `on_chunk` per chunk. Single attempt by design —
  // mid-stream recovery is the caller's job, because only the caller
  // holds the resume cursor. A server that ignores the stream request
  // simply sends a monolithic response, which is returned with zero
  // chunk callbacks. Throws StreamStallError (chunk_timeout elapsed,
  // overall deadline not yet reached), TimeoutError (overall deadline),
  // or the same typed errors as Call. When the stream ends because
  // `on_chunk` returned false, `*cancelled_out` is set and the returned
  // value is Nil. Thread-safe (serialized with Call).
  msgpack::Value CallStreaming(const std::string& method,
                               msgpack::Array params,
                               const StreamCallOptions& options,
                               const ChunkCallback& on_chunk,
                               bool* cancelled_out = nullptr);

 private:
  msgpack::Value CallOnce(const std::string& method,
                          const msgpack::Array& params,
                          net::Deadline deadline);
  // The audits of this client's error paths, in its registry. Every
  // counter but the stale-reply count is keyed by method.
  obs::Audit MethodAudit(const char* counter, const std::string& method,
                         const char* event) {
    return obs::Audit(metrics(), counter, {{"method", method}}, event);
  }
  obs::Audit StaleReplyAudit() {
    return obs::Audit(metrics(), "rpc_stale_replies_total", {},
                      "rpc.stale_reply");
  }
  obs::Registry& metrics() {
    return metrics_ != nullptr ? *metrics_ : obs::DefaultRegistry();
  }

  std::mutex mu_;
  net::TransportPtr transport_;
  std::uint64_t next_msgid_ = 1;
  std::chrono::milliseconds default_timeout_{0};
  net::RetryPolicy retry_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace vizndp::rpc
