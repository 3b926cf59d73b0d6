// Error handling used across the library.
//
// Fatal, non-recoverable misuse (corrupt stream, protocol violation,
// out-of-range argument) throws vizndp::Error. Hot paths use
// VIZNDP_CHECK so the failure message carries the failed expression.
#pragma once

#include <stdexcept>
#include <string>

namespace vizndp {

class Error : public std::runtime_error {
 public:
  explicit Error(std::string message) : std::runtime_error(std::move(message)) {}
};

// Corrupt or truncated encoded data (codec, msgpack, RPC framing).
class DecodeError : public Error {
 public:
  using Error::Error;
};

// Stored data failed an integrity check (per-brick or whole-blob CRC,
// size cross-check). Subtypes DecodeError so generic corrupt-input catch
// sites keep working, but stays distinguishable: corruption is
// *recoverable* (re-read the brick, fail over to a replica, fall back
// to the baseline path) where ordinary decode failures are not.
class CorruptDataError : public DecodeError {
 public:
  using DecodeError::DecodeError;
};

// I/O failures from the object store / filesystem layer.
class IoError : public Error {
 public:
  using Error::Error;
};

// An I/O failure expected to heal on retry of the *same* operation
// (EIO from a flaky device, a short read racing a writer, an injected
// transient fault). Subtypes IoError so generic catch sites keep
// working, but the storage retry ladder (FileGateway) catches exactly
// this type and retries with seeded backoff, where a plain IoError is
// permanent — missing object, exhausted retries — and must enter the
// recovery ladder instead.
class TransientIoError : public IoError {
 public:
  using IoError::IoError;
};

// RPC-level failures (unknown method, transport closed, bad reply).
class RpcError : public Error {
 public:
  using Error::Error;
};

// The server shed the request before executing it (admission control:
// too many in-flight requests or the memory budget is exhausted).
// Subtypes RpcError — it *is* a server-reported condition — but unlike
// other RpcErrors it is always safe to retry, even for non-idempotent
// calls, because the handler never ran.
class BusyError : public RpcError {
 public:
  using RpcError::RpcError;
};

// A blocking operation (transport receive, RPC call) ran past its
// deadline. Distinct from PeerClosedError: the peer may still be alive,
// just slow — callers decide whether to retry, reconnect, or fall back.
class TimeoutError : public Error {
 public:
  using Error::Error;
};

// The remote endpoint closed the connection (clean shutdown, EPIPE, or
// ECONNRESET). Subtypes IoError so pre-existing catch sites keep working.
class PeerClosedError : public IoError {
 public:
  using IoError::IoError;
};

// A streaming reply stopped making progress: the per-chunk progress
// deadline elapsed with no new chunk (distinct from the overall call
// deadline — a healthy stream of many chunks may legitimately outlive
// one call timeout). Subtypes TimeoutError so deadline catch sites keep
// working; streaming clients catch exactly this type to resume from the
// last acknowledged cursor instead of restarting the fetch.
class StreamStallError : public TimeoutError {
 public:
  using TimeoutError::TimeoutError;
};

[[noreturn]] void ThrowError(const char* file, int line, const char* expr,
                             const std::string& message);

}  // namespace vizndp

#define VIZNDP_CHECK(expr)                                       \
  do {                                                           \
    if (!(expr)) {                                               \
      ::vizndp::ThrowError(__FILE__, __LINE__, #expr, "");       \
    }                                                            \
  } while (0)

#define VIZNDP_CHECK_MSG(expr, msg)                              \
  do {                                                           \
    if (!(expr)) {                                               \
      ::vizndp::ThrowError(__FILE__, __LINE__, #expr, (msg));    \
    }                                                            \
  } while (0)
