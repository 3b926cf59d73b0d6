#include "storage/file_gateway.h"

#include <algorithm>
#include <functional>

#include "common/error.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vizndp::storage {

namespace {

// Gateway traffic metrics live in the process-default registry: the
// gateway is substrate shared by whatever servers run in this process,
// so there is no obvious per-instance owner to hang a registry off.
obs::Counter& ReadsCounter() {
  static obs::Counter& c =
      obs::DefaultRegistry().GetCounter("gateway_reads_total");
  return c;
}

obs::Counter& BytesCounter() {
  static obs::Counter& c =
      obs::DefaultRegistry().GetCounter("gateway_bytes_read_total");
  return c;
}

const obs::Audit kRetry("store_retry_total", "store.retry");
const obs::Audit kIoError("store_io_error_total", "store.io_error");

// Runs one store op under the retry ladder. TransientIoError retries
// with seeded backoff until the policy's budget runs out, then counts
// once and rethrows (still transient-typed: the failure mode is, even
// if this gateway gave up on it). A permanent IoError counts once and
// propagates immediately — retrying a missing object would only reread
// the same absence.
template <typename F>
auto WithStoreRetry(const net::RetryPolicy& retry, std::uint64_t salt,
                    const char* op, const std::string& key, F&& fn)
    -> decltype(fn()) {
  const int attempts = std::max(retry.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientIoError& e) {
      if (attempt >= attempts) {
        kIoError.Record(std::string("op=") + op + " key=" + key +
                        " attempts=" + std::to_string(attempt) +
                        " transient=1");
        throw;
      }
      kRetry.Record(std::string("op=") + op + " key=" + key +
                    " attempt=" + std::to_string(attempt));
      net::BackoffSleep(retry, attempt, salt);
    } catch (const IoError&) {
      kIoError.Record(std::string("op=") + op + " key=" + key);
      throw;
    }
  }
}

}  // namespace

net::RetryPolicy DefaultStoreRetryPolicy() {
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay = std::chrono::microseconds(200);
  policy.max_delay = std::chrono::microseconds(20'000);
  return policy;
}

GatewayFile::GatewayFile(ObjectStore& store, std::string bucket,
                         std::string key, net::RetryPolicy retry)
    : store_(store),
      bucket_(std::move(bucket)),
      key_(std::move(key)),
      retry_(retry),
      salt_(net::MixBits(std::hash<std::string>{}(key_))) {
  size_ = WithStoreRetry(retry_, salt_, "stat", key_, [&] {
            return store_.Stat(bucket_, key_);
          }).size;
}

Bytes GatewayFile::ReadAt(std::uint64_t offset, std::uint64_t length) const {
  obs::Span span("gateway.read");
  // What a non-faulty store must deliver given the open-time size; a
  // shorter result is a device flake (or a lying Stat) and retries.
  const std::uint64_t expected =
      offset >= size_ ? 0 : std::min(length, size_ - offset);
  Bytes out = WithStoreRetry(retry_, salt_, "range", key_, [&] {
    Bytes got = store_.GetRange(bucket_, key_, offset, length);
    if (got.size() < expected) {
      throw TransientIoError("short read: " + bucket_ + "/" + key_ + " got " +
                             std::to_string(got.size()) + " of " +
                             std::to_string(expected) + " bytes");
    }
    return got;
  });
  ReadsCounter().Increment();
  BytesCounter().Increment(out.size());
  return out;
}

Bytes GatewayFile::ReadAll() const {
  obs::Span span("gateway.read");
  Bytes out = WithStoreRetry(retry_, salt_, "get", key_, [&] {
    Bytes got = store_.Get(bucket_, key_);
    if (got.size() < size_) {
      throw TransientIoError("short read: " + bucket_ + "/" + key_ + " got " +
                             std::to_string(got.size()) + " of " +
                             std::to_string(size_) + " bytes");
    }
    return got;
  });
  ReadsCounter().Increment();
  BytesCounter().Increment(out.size());
  return out;
}

}  // namespace vizndp::storage
