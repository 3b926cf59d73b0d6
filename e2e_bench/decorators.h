// Counting decorators the benchmark wraps around the object store and
// every client-side transport. They measure the storage and net layers
// from outside: ops, bytes and frames are counted where the calls cross
// the layer boundary, and each call is timed with steady_clock. Counters
// are atomics so one set can be shared by many connections (the sharded
// workload sums its three nodes into one set).
#pragma once

#include <atomic>
#include <cstdint>

#include "net/transport.h"
#include "storage/object_store.h"

namespace vizndp::e2e {

struct StoreCounters {
  std::atomic<std::uint64_t> ops{0};        // Get, GetRange, Stat, Exists, List
  std::atomic<std::uint64_t> bytes_read{0}; // returned by Get/GetRange
  std::atomic<std::uint64_t> busy_ns{0};    // time inside those calls

  struct Snapshot {
    std::uint64_t ops = 0, bytes_read = 0, busy_ns = 0;

    Snapshot operator-(const Snapshot& o) const {
      return {ops - o.ops, bytes_read - o.bytes_read, busy_ns - o.busy_ns};
    }
  };
  Snapshot Read() const {
    return {ops.load(), bytes_read.load(), busy_ns.load()};
  }
};

struct NetCounters {
  std::atomic<std::uint64_t> frames_up{0};
  std::atomic<std::uint64_t> frames_down{0};
  std::atomic<std::uint64_t> bytes_up{0};    // client -> server
  std::atomic<std::uint64_t> bytes_down{0};  // server -> client
  std::atomic<std::uint64_t> send_ns{0};     // time inside Send

  struct Snapshot {
    std::uint64_t frames_up = 0, frames_down = 0, bytes_up = 0,
                  bytes_down = 0, send_ns = 0;

    Snapshot operator-(const Snapshot& o) const {
      return {frames_up - o.frames_up, frames_down - o.frames_down,
              bytes_up - o.bytes_up, bytes_down - o.bytes_down,
              send_ns - o.send_ns};
    }
  };
  Snapshot Read() const {
    return {frames_up.load(), frames_down.load(), bytes_up.load(),
            bytes_down.load(), send_ns.load()};
  }
};

// Read-path counting wrapper; writes (set-up) pass through uncounted.
class CountingStore final : public storage::ObjectStore {
 public:
  // `inner` and `counters` must outlive the wrapper.
  CountingStore(storage::ObjectStore& inner, StoreCounters& counters)
      : inner_(inner), counters_(counters) {}

  void CreateBucket(const std::string& bucket) override {
    inner_.CreateBucket(bucket);
  }
  bool BucketExists(const std::string& bucket) const override {
    return inner_.BucketExists(bucket);
  }
  void Put(const std::string& bucket, const std::string& key,
           ByteSpan data) override {
    inner_.Put(bucket, key, data);
  }
  void Delete(const std::string& bucket, const std::string& key) override {
    inner_.Delete(bucket, key);
  }
  Bytes Get(const std::string& bucket, const std::string& key) override;
  Bytes GetRange(const std::string& bucket, const std::string& key,
                 std::uint64_t offset, std::uint64_t length) override;
  storage::ObjectInfo Stat(const std::string& bucket,
                           const std::string& key) override;
  bool Exists(const std::string& bucket, const std::string& key) override;
  std::vector<storage::ObjectInfo> List(const std::string& bucket,
                                        const std::string& prefix) override;

 private:
  storage::ObjectStore& inner_;
  StoreCounters& counters_;
};

// Frame-counting wrapper around one endpoint. "Up" is what this endpoint
// sends, "down" what it receives; the benchmark wraps client endpoints.
class CountingTransport final : public net::Transport {
 public:
  // `counters` must outlive the wrapper.
  CountingTransport(net::TransportPtr inner, NetCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void Send(ByteSpan frame) override;
  Bytes Receive(net::Deadline deadline) override;
  void Close() override { inner_->Close(); }

 private:
  net::TransportPtr inner_;
  NetCounters& counters_;
};

}  // namespace vizndp::e2e
