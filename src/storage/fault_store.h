// FaultInjectingStore: an ObjectStore decorator that perturbs storage
// operations in controlled, reproducible ways — the storage-tier
// counterpart of net::FaultInjectingTransport. Every failure mode a
// real disk or object store can exhibit becomes testable in-process:
//
//   eio      the op fails with TransientIoError (flaky device, EIO)
//   fatal    the op fails with a permanent IoError (dead device)
//   short    a read returns only a prefix of the requested bytes
//   delay    the op is held for a fixed duration (slow disk window)
//   flip     one bit of the payload is flipped at a seeded position
//            (bit-rot: on Get/GetRange the caller sees rotted bytes;
//            on Put the store *keeps* rotted bytes — rot at rest)
//   lie      Stat over/under-reports the object size by a delta
//
// Faults are scripted per op selector (action k applies to the k-th
// matching op) or drawn from a seeded RNG, so failing runs replay
// exactly. A finite script models transient-then-heal; a trailing
// looped action models a persistently broken device.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace vizndp::storage {

enum class StoreFaultKind : std::uint8_t {
  kPass = 0,
  kEio,      // throw TransientIoError
  kFatal,    // throw IoError (permanent)
  kShort,    // truncate the read result
  kDelay,    // sleep before the op
  kFlip,     // flip one payload bit
  kStatLie,  // Stat size += delta
};

const char* StoreFaultKindName(StoreFaultKind kind);

// Which operations a script entry applies to. `kRead` matches both Get
// and GetRange; `kAny` matches every store call.
enum class StoreOp : std::uint8_t {
  kGet = 0,
  kGetRange,
  kRead,
  kPut,
  kStat,
  kAny,
};

struct StoreFaultAction {
  StoreFaultKind kind = StoreFaultKind::kPass;
  std::chrono::microseconds delay{0};  // kDelay
  std::uint64_t short_to = 0;          // kShort: bytes kept
  std::uint64_t flip_bit = 0;          // kFlip: bit index % payload bits
  std::int64_t stat_delta = 0;         // kStatLie: added to the true size

  static StoreFaultAction Pass() { return {}; }
  static StoreFaultAction Eio() { return {StoreFaultKind::kEio, {}, 0, 0, 0}; }
  static StoreFaultAction Fatal() {
    return {StoreFaultKind::kFatal, {}, 0, 0, 0};
  }
  static StoreFaultAction Short(std::uint64_t keep) {
    return {StoreFaultKind::kShort, {}, keep, 0, 0};
  }
  static StoreFaultAction Delay(std::chrono::microseconds d) {
    return {StoreFaultKind::kDelay, d, 0, 0, 0};
  }
  static StoreFaultAction Flip(std::uint64_t bit) {
    return {StoreFaultKind::kFlip, {}, 0, bit, 0};
  }
  static StoreFaultAction StatLie(std::int64_t delta) {
    return {StoreFaultKind::kStatLie, {}, 0, 0, delta};
  }
};

// Seeded-random fault mix applied to reads once every matching script is
// exhausted (probabilities are independent; first match wins).
struct StoreFaultProbabilities {
  double eio = 0;
  double flip = 0;
  std::uint64_t seed = 1;
};

// Counts every injected fault, for assertions and for wiring into
// metrics at the call site.
struct StoreFaultStats {
  std::uint64_t ops = 0;  // store calls that passed through the decorator
  std::uint64_t eios = 0;
  std::uint64_t fatals = 0;
  std::uint64_t shorts = 0;
  std::uint64_t delays = 0;
  std::uint64_t flips = 0;
  std::uint64_t stat_lies = 0;
};

class FaultInjectingStore final : public ObjectStore {
 public:
  // Non-owning: `inner` must outlive the decorator.
  explicit FaultInjectingStore(ObjectStore& inner) : inner_(inner) {}

  // Scripts the next ops matching `op`: action k applies to the k-th
  // matching call. When `loop_last` is set the final action repeats
  // forever; otherwise an exhausted script falls through to the next
  // matching channel (exact op -> read -> any) and then to the random
  // mix (default all-zero = pass-through).
  void Script(StoreOp op, std::vector<StoreFaultAction> script,
              bool loop_last = false);

  // Clears every script and the random mix: the store heals.
  void ClearFaults();

  void SetRandomFaults(const StoreFaultProbabilities& probabilities);

  StoreFaultStats stats() const;

  // ObjectStore interface. Faults apply to data-path ops (Get, GetRange,
  // Put, Stat); bucket management, Exists, Delete, and List always pass
  // through so testbeds can set up and inspect state unperturbed.
  void CreateBucket(const std::string& bucket) override;
  bool BucketExists(const std::string& bucket) const override;
  void Put(const std::string& bucket, const std::string& key,
           ByteSpan data) override;
  Bytes Get(const std::string& bucket, const std::string& key) override;
  Bytes GetRange(const std::string& bucket, const std::string& key,
                 std::uint64_t offset, std::uint64_t length) override;
  ObjectInfo Stat(const std::string& bucket, const std::string& key) override;
  bool Exists(const std::string& bucket, const std::string& key) override;
  void Delete(const std::string& bucket, const std::string& key) override;
  std::vector<ObjectInfo> List(const std::string& bucket,
                               const std::string& prefix) override;

  ObjectStore& inner() { return inner_; }

 private:
  struct Channel {
    std::vector<StoreFaultAction> script;
    size_t next = 0;
    bool loop_last = false;
    bool exhausted() const {
      return next >= script.size() && !(loop_last && !script.empty());
    }
  };

  // Picks the action for one call: first non-exhausted matching channel
  // in priority order (exact op, read, any), else the random mix.
  // Throws / sleeps / counts per the action; returns it for payload
  // mutation at the call site.
  StoreFaultAction ApplyFault(StoreOp op, const std::string& bucket,
                              const std::string& key);
  static Bytes FlipBit(ByteSpan data, std::uint64_t bit);

  ObjectStore& inner_;
  mutable std::mutex mu_;
  Channel channels_[6];  // indexed by StoreOp
  StoreFaultProbabilities random_;
  std::uint64_t op_count_ = 0;
  StoreFaultStats stats_;
};

// Parses a compact store-fault spec used by `vizndp_tool serve
// --store-fault` and the testbeds:
//   spec    := entry (',' entry)*
//   entry   := op '.' action ['*' count] ['=' param] ['+']
//   op      := get | range | read | put | stat | any
//   action  := eio | fatal | short (param: bytes kept)
//            | delay (param: µs) | flip (param: bit index)
//            | lie (param: size delta, may be negative)
// A trailing '+' loops the action forever (net::FaultSpecEntry). Examples:
//   "read.eio*2"        first two reads fail transiently (retry heals)
//   "get.fatal+"        every whole-object read fails permanently
//   "any.delay*3=5000"  the next three ops stall 5 ms (slow-disk window)
//   "put.flip=7000"     the next write is stored with one bit rotted
// Throws Error on a malformed spec.
struct StoreFaultSpecEntry {
  StoreOp op = StoreOp::kAny;
  std::vector<StoreFaultAction> script;
  bool loop_last = false;
};
std::vector<StoreFaultSpecEntry> ParseStoreFaultSpec(const std::string& spec);

// Convenience: applies a parsed spec string to `store`.
void ApplyStoreFaultSpec(FaultInjectingStore& store, const std::string& spec);

}  // namespace vizndp::storage
