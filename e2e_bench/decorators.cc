#include "decorators.h"

#include <chrono>

namespace vizndp::e2e {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

Bytes CountingStore::Get(const std::string& bucket, const std::string& key) {
  const auto start = Clock::now();
  Bytes out = inner_.Get(bucket, key);
  counters_.busy_ns += NanosSince(start);
  counters_.ops += 1;
  counters_.bytes_read += out.size();
  return out;
}

Bytes CountingStore::GetRange(const std::string& bucket,
                              const std::string& key, std::uint64_t offset,
                              std::uint64_t length) {
  const auto start = Clock::now();
  Bytes out = inner_.GetRange(bucket, key, offset, length);
  counters_.busy_ns += NanosSince(start);
  counters_.ops += 1;
  counters_.bytes_read += out.size();
  return out;
}

storage::ObjectInfo CountingStore::Stat(const std::string& bucket,
                                        const std::string& key) {
  const auto start = Clock::now();
  storage::ObjectInfo out = inner_.Stat(bucket, key);
  counters_.busy_ns += NanosSince(start);
  counters_.ops += 1;
  return out;
}

bool CountingStore::Exists(const std::string& bucket, const std::string& key) {
  const auto start = Clock::now();
  const bool out = inner_.Exists(bucket, key);
  counters_.busy_ns += NanosSince(start);
  counters_.ops += 1;
  return out;
}

std::vector<storage::ObjectInfo> CountingStore::List(
    const std::string& bucket, const std::string& prefix) {
  const auto start = Clock::now();
  std::vector<storage::ObjectInfo> out = inner_.List(bucket, prefix);
  counters_.busy_ns += NanosSince(start);
  counters_.ops += 1;
  return out;
}

void CountingTransport::Send(ByteSpan frame) {
  const auto start = Clock::now();
  inner_->Send(frame);
  counters_.send_ns += NanosSince(start);
  counters_.frames_up += 1;
  counters_.bytes_up += frame.size();
}

Bytes CountingTransport::Receive(net::Deadline deadline) {
  Bytes frame = inner_->Receive(deadline);
  counters_.frames_down += 1;
  counters_.bytes_down += frame.size();
  return frame;
}

}  // namespace vizndp::e2e
