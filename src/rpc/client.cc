#include "rpc/client.h"

#include <algorithm>

#include "common/error.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "rpc/protocol.h"
#include "rpc/trace_wire.h"

namespace vizndp::rpc {

namespace {

std::uint64_t MethodSalt(const std::string& method) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : method) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

std::string EventDetail(const std::string& method, int attempt) {
  return "method=" + method + " attempt=" + std::to_string(attempt);
}

// Folds one attempt's reply piggyback into the local tracer: the server
// spans land clock-aligned on their original tracks, and the two wire
// legs appear as pseudo-spans parented under the attempt span. Malformed
// piggybacks are ignored — trace material must never fail a call.
void MergeReplyPiggyback(const msgpack::Value& piggyback, std::uint64_t t0,
                         std::uint64_t t3, const obs::TraceContext& ctx,
                         obs::Tracer& tracer) {
  if (!piggyback.Is<msgpack::Map>()) return;
  const msgpack::Value* recv = piggyback.Find(kPiggybackRecvKey);
  const msgpack::Value* send = piggyback.Find(kPiggybackSendKey);
  if (recv == nullptr || send == nullptr || !recv->IsInteger() ||
      !send->IsInteger()) {
    return;
  }
  obs::RemoteAttemptTrace attempt;
  attempt.t0_client_send_us = t0;
  attempt.t3_client_recv_us = t3;
  attempt.t1_server_recv_us = recv->AsUint();
  attempt.t2_server_send_us = send->AsUint();
  attempt.has_server_times = true;
  if (const msgpack::Value* spans = piggyback.Find(kPiggybackSpansKey)) {
    attempt.server_events = EventsFromValue(*spans);
  }
  obs::MergeRemoteAttempt(tracer, attempt, ctx.trace_id, ctx.span_id);
}

// Maps a typed-prefix remote error string back to its exception type
// (the inverse of the server's catch ladder; see rpc/protocol.h).
[[noreturn]] void ThrowRemoteError(const std::string& method,
                                   const std::string& remote) {
  if (remote.starts_with(kBusyErrorPrefix)) {
    throw BusyError("server busy calling '" + method +
                    "': " + remote.substr(kBusyErrorPrefix.size()));
  }
  if (remote.starts_with(kCorruptErrorPrefix)) {
    throw CorruptDataError("remote data corruption calling '" + method +
                           "': " +
                           remote.substr(kCorruptErrorPrefix.size()));
  }
  if (remote.starts_with(kTransientIoErrorPrefix)) {
    throw TransientIoError(
        "remote I/O error calling '" + method +
        "': " + remote.substr(kTransientIoErrorPrefix.size()));
  }
  if (remote.starts_with(kIoErrorPrefix)) {
    throw IoError("remote I/O error calling '" + method +
                  "': " + remote.substr(kIoErrorPrefix.size()));
  }
  throw RpcError("remote error calling '" + method + "': " + remote);
}

}  // namespace

// One request and its reply frames. The caller's span is the thread's
// current span, so the ctx sent over the wire parents the server's
// dispatch span under it. Frames with an older msgid are stale leftovers
// (a duplicated frame, a reply that outlived its timed-out attempt, or
// the tail of an abandoned stream) and are discarded rather than treated
// as a protocol violation.
msgpack::Value Client::Exchange(const std::string& method,
                                const msgpack::Array& params,
                                net::Deadline overall,
                                std::chrono::milliseconds chunk_timeout,
                                const ChunkCallback& on_chunk,
                                bool* cancelled) {
  obs::Tracer& tracer = obs::GlobalTracer();
  const std::uint64_t msgid = next_msgid_++;
  msgpack::Array request;
  request.emplace_back(kRequestType);
  request.emplace_back(msgid);
  request.emplace_back(method);
  request.push_back(msgpack::Value(msgpack::Array(params)));
  // Only sampled contexts travel: with tracing off the frame keeps the
  // pre-tracing 4-element shape old servers require.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  const bool traced = ctx.valid() && ctx.sampled;
  if (traced) request.push_back(ContextToValue(ctx));
  const std::uint64_t t0 = tracer.NowMicros();
  transport_->Send(msgpack::Encode(msgpack::Value(std::move(request))));

  bool cancel_sent = false;
  const auto send_cancel = [&] {
    cancel_sent = true;
    msgpack::Array cancel;
    cancel.emplace_back(kCancelType);
    cancel.emplace_back(msgid);
    transport_->Send(msgpack::Encode(msgpack::Value(std::move(cancel))));
  };
  for (;;) {
    // Per-frame deadline: the sooner of the overall deadline and the
    // chunk progress deadline, remembering which one is binding so a
    // wedged stream surfaces as StreamStallError (resumable from the
    // caller's cursor), not a plain timeout.
    net::Deadline frame_deadline = overall;
    bool stall_binding = false;
    if (chunk_timeout.count() > 0) {
      const net::Deadline stall =
          std::chrono::steady_clock::now() + chunk_timeout;
      if (stall < frame_deadline) {
        frame_deadline = stall;
        stall_binding = true;
      }
    }
    Bytes reply;
    try {
      reply = transport_->Receive(frame_deadline);
    } catch (const TimeoutError&) {
      // Abandoned, on either deadline: cancel the stream, so the server
      // stops at its next chunk instead of emitting the rest ahead of
      // this connection's next request. A failed send must not hide the
      // timeout. A plain call has no stream to cancel.
      if (on_chunk && !cancel_sent) {
        try {
          send_cancel();
        } catch (const Error&) {
        }
      }
      if (!stall_binding) throw;
      MethodAudit("rpc_stream_stalls_total", method, "rpc.stream_stall")
          .Record("method=" + method);
      throw StreamStallError("stream '" + method +
                             "' stalled: no frame within " +
                             std::to_string(chunk_timeout.count()) + " ms");
    }
    const std::uint64_t t3 = tracer.NowMicros();
    msgpack::Value response = msgpack::Decode(reply);
    auto& fields = response.AsMutable<msgpack::Array>();
    if (fields.size() < 2) throw RpcError("malformed RPC frame");
    const std::int64_t type = fields[0].AsInt();
    const std::uint64_t got = fields[1].AsUint();
    if (got > msgid) throw RpcError("RPC response msgid mismatch");
    // A call without a chunk callback never gets chunks of its own: any
    // chunk it reads is left over from an abandoned stream.
    if (got < msgid || (type == kChunkType && !on_chunk)) {
      StaleReplyAudit().Record("method=" + method);
      continue;
    }
    if (type == kChunkType) {
      if (fields.size() < 3) throw RpcError("malformed chunk frame");
      if (!cancel_sent && !on_chunk(fields[2])) {
        send_cancel();
        // Keep draining: the terminal frame must be consumed so the
        // connection stays framed for the next call.
      }
      continue;
    }
    if (type != kResponseType || fields.size() < 4) {
      throw RpcError("malformed RPC response");
    }
    // Merge the piggyback *before* error handling: a busy or corrupt
    // reply still cost a round trip, and its server span + wire legs
    // belong in the trace exactly because the attempt failed.
    if (traced && fields.size() >= 5) {
      MergeReplyPiggyback(fields[4], t0, t3, ctx, tracer);
    }
    if (!fields[2].IsNil()) {
      const std::string& remote = fields[2].As<std::string>();
      if (cancel_sent && remote.starts_with(kCancelledErrorPrefix)) {
        // The abort we asked for: an acknowledgement, not an error.
        if (cancelled != nullptr) *cancelled = true;
        return msgpack::Value();
      }
      // Well-known prefixes carry typed errors across the string-only
      // error slot (see rpc/protocol.h).
      ThrowRemoteError(method, remote);
    }
    return std::move(fields[3]);
  }
}

msgpack::Value Client::Call(const std::string& method, msgpack::Array params,
                            const CallOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  // One span per logical call on the "client" trace track; each attempt
  // nests inside it, and the matching server-side "rpc.dispatch:" span
  // nests inside the attempt.
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) tracer.SetThreadTrack("client");
  obs::Span span("rpc.call:" + method, tracer);

  const int attempts =
      options.idempotent ? std::max(retry_.max_attempts, 1) : 1;
  const std::uint64_t salt = MethodSalt(method);

  for (int attempt = 1;; ++attempt) {
    try {
      // Each attempt is a distinct tagged child span of the rpc.call
      // span, so a retried request renders as N attempt boxes, failures
      // included.
      obs::Span attempt_span("rpc.attempt:" + method, tracer);
      return Exchange(method, params, net::DeadlineAfter(options.timeout),
                      std::chrono::milliseconds(0), nullptr, nullptr);
    } catch (const TimeoutError&) {
      MethodAudit("rpc_timeouts_total", method, "rpc.timeout")
          .Record(EventDetail(method, attempt));
      if (attempt >= attempts) {
        throw TimeoutError("rpc call '" + method + "' timed out after " +
                           std::to_string(attempt) + " attempt(s)");
      }
    } catch (const BusyError&) {
      // The server shed the request *before* running the handler, so a
      // retry is safe even for non-idempotent calls; back off and let the
      // overload clear.
      MethodAudit("rpc_busy_total", method, "rpc.busy")
          .Record(EventDetail(method, attempt));
      if (attempt >= std::max(retry_.max_attempts, 1)) throw;
    } catch (const RpcError&) {
      // The server is alive and reported an application error (or sent a
      // malformed reply): retrying would repeat the same failure.
      throw;
    } catch (const CorruptDataError&) {
      // The server already exhausted its own recovery rung (one brick
      // re-read); retrying reads the same bad bytes. Let the caller
      // decide (a replica, or NdpContourSource's baseline path).
      throw;
    } catch (const PeerClosedError&) {
      // Listed before IoError (its base): a closed peer is transport
      // loss, retryable for idempotent calls like any other Error.
      MethodAudit("rpc_transport_errors_total", method, "rpc.transport_error")
          .Record(EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    } catch (const TransientIoError&) {
      // The *remote store* flaked and the server's own retry budget ran
      // out; another attempt reruns the whole server-side ladder, so for
      // idempotent calls it is worth one more backoff cycle.
      MethodAudit("rpc_remote_io_total", method, "rpc.remote_io")
          .Record(EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    } catch (const IoError&) {
      // Permanent remote storage failure (missing object, dead device):
      // a retry rereads the same absence. Never retried.
      throw;
    } catch (const Error&) {
      // Transport-level loss (peer closed, corrupt frame): retryable for
      // idempotent calls. A ReconnectingTransport re-dials underneath.
      MethodAudit("rpc_transport_errors_total", method, "rpc.transport_error")
          .Record(EventDetail(method, attempt));
      if (attempt >= attempts) throw;
    }
    MethodAudit("rpc_retries_total", method, "rpc.retry")
        .Record(EventDetail(method, attempt + 1));
    net::BackoffSleep(retry_, attempt, salt);
  }
}

msgpack::Value Client::CallStreaming(const std::string& method,
                                     msgpack::Array params,
                                     const StreamCallOptions& options,
                                     const ChunkCallback& on_chunk,
                                     bool* cancelled_out) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) tracer.SetThreadTrack("client");
  obs::Span span("rpc.stream:" + method, tracer);
  if (cancelled_out != nullptr) *cancelled_out = false;
  try {
    return Exchange(method, params, net::DeadlineAfter(options.timeout),
                    options.chunk_timeout, on_chunk, cancelled_out);
  } catch (const StreamStallError&) {
    throw;
  } catch (const TimeoutError&) {
    MethodAudit("rpc_timeouts_total", method, "rpc.timeout")
        .Record(EventDetail(method, 1));
    throw TimeoutError("rpc stream '" + method + "' ran past its overall " +
                       "deadline");
  }
}

}  // namespace vizndp::rpc
