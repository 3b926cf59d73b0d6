// msgpack-rpc wire protocol (the format rpclib speaks):
//   request:  [0, msgid, method(str), params(array)]
//   response: [1, msgid, error(nil|str), result]
// Each message is one transport frame.
//
// The error slot is a plain string, so typed errors that must survive
// the wire travel as well-known prefixes: the server prepends one, the
// client strips it and rethrows the matching exception type. Only the
// conditions a caller *acts on differently* get a prefix — busy (always
// retryable: the handler never ran) and corrupt data (never retryable
// against the same store, but eligible for the baseline fallback).
//
// Distributed tracing rides the same frames as OPTIONAL trailing
// elements, so both directions stay backward compatible:
//
//   request:  [0, msgid, method, params, ctx(map)?]
//   response: [1, msgid, error, result, piggyback(map)?]
//
// The ctx map ({"trace_id": u64, "span_id": u64}) is attached only when
// the calling thread carries a *sampled* TraceContext — default traffic
// keeps the original 4-element shape, which is why an old server (which
// rejects any other arity) still interoperates with a new client. A new
// server accepts both arities and simply never sees a ctx from an old
// client. The piggyback map ({"t_recv": µs, "t_send": µs, "spans":
// [...]}) is attached to the reply only when the request carried a ctx:
// t_recv/t_send are the server's receive/send timestamps (its own clock;
// see obs/trace_merge.h for the midpoint alignment) and "spans" are the
// request's server-side spans, *moved* out of the server tracer so a
// shared in-proc tracer never holds duplicates.
#pragma once

#include <cstdint>
#include <string_view>

namespace vizndp::rpc {

inline constexpr std::int64_t kRequestType = 0;
inline constexpr std::int64_t kResponseType = 1;

// Streaming extension (backward compatible: only handlers bound as
// streaming ever emit these, and only when the transport-aware dispatch
// path is in use — a request to an old server never sees them):
//
//   chunk:  [2, msgid, chunk(map)]     server -> client, zero or more,
//                                      all before the closing response
//   cancel: [3, msgid]                 client -> server, at most once
//
// A stream is: chunk* then one ordinary [1, msgid, error, result]
// response — the terminal frame. Reusing the response type for the
// terminal frame keeps every error path (typed prefixes, piggybacked
// trace spans) identical to the monolithic protocol. The chunk map's
// schema belongs to the method (see ndp/protocol.h for ndp.select's);
// the rpc layer treats it as opaque. A cancel frame asks the server to
// stop producing: the server abandons remaining work and closes the
// stream with a terminal error response carrying the cancelled prefix.
// A request frame that arrives while a stream still emits is served
// after that stream's terminal; a client that gives up on a stalled
// stream cancels it first, so that wait ends at the next chunk.
inline constexpr std::int64_t kChunkType = 2;
inline constexpr std::int64_t kCancelType = 3;

inline constexpr std::string_view kBusyErrorPrefix = "!busy: ";
inline constexpr std::string_view kCorruptErrorPrefix = "!corrupt: ";
// Storage I/O failures reported by the remote store, split the same way
// the local storage layer splits them: transient (retrying the same call
// may heal — a flaky device under the remote) vs permanent (missing
// object, dead device; retrying rereads the same failure).
inline constexpr std::string_view kIoErrorPrefix = "!io: ";
inline constexpr std::string_view kTransientIoErrorPrefix = "!io_transient: ";
// Terminal response of a stream the client cancelled: acknowledged, not
// an error the client should surface (it asked for the abort).
inline constexpr std::string_view kCancelledErrorPrefix = "!cancelled: ";

// Keys of the request ctx map.
inline constexpr const char* kCtxTraceIdKey = "trace_id";
inline constexpr const char* kCtxSpanIdKey = "span_id";

// Keys of the response piggyback map.
inline constexpr const char* kPiggybackRecvKey = "t_recv";
inline constexpr const char* kPiggybackSendKey = "t_send";
inline constexpr const char* kPiggybackSpansKey = "spans";

}  // namespace vizndp::rpc
