#include "storage/fault_store.h"

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "net/fault.h"
#include "net/retry.h"

namespace vizndp::storage {

namespace {

const char* OpName(StoreOp op) {
  switch (op) {
    case StoreOp::kGet: return "get";
    case StoreOp::kGetRange: return "range";
    case StoreOp::kRead: return "read";
    case StoreOp::kPut: return "put";
    case StoreOp::kStat: return "stat";
    case StoreOp::kAny: return "any";
  }
  return "?";
}

}  // namespace

const char* StoreFaultKindName(StoreFaultKind kind) {
  switch (kind) {
    case StoreFaultKind::kPass: return "pass";
    case StoreFaultKind::kEio: return "eio";
    case StoreFaultKind::kFatal: return "fatal";
    case StoreFaultKind::kShort: return "short";
    case StoreFaultKind::kDelay: return "delay";
    case StoreFaultKind::kFlip: return "flip";
    case StoreFaultKind::kStatLie: return "lie";
  }
  return "?";
}

void FaultInjectingStore::Script(StoreOp op,
                                 std::vector<StoreFaultAction> script,
                                 bool loop_last) {
  std::lock_guard<std::mutex> lock(mu_);
  Channel& channel = channels_[static_cast<size_t>(op)];
  channel.script = std::move(script);
  channel.next = 0;
  channel.loop_last = loop_last;
}

void FaultInjectingStore::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Channel& channel : channels_) channel = Channel{};
  random_ = StoreFaultProbabilities{};
}

void FaultInjectingStore::SetRandomFaults(
    const StoreFaultProbabilities& probabilities) {
  std::lock_guard<std::mutex> lock(mu_);
  random_ = probabilities;
}

StoreFaultStats FaultInjectingStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StoreFaultAction FaultInjectingStore::ApplyFault(StoreOp op,
                                                 const std::string& bucket,
                                                 const std::string& key) {
  StoreFaultAction action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t seq = op_count_++;
    ++stats_.ops;
    // First matching non-exhausted channel supplies the action; a read
    // op consults its exact channel, then `read`, then `any`.
    StoreOp order[3] = {op, StoreOp::kAny, StoreOp::kAny};
    size_t norder = 2;
    if (op == StoreOp::kGet || op == StoreOp::kGetRange) {
      order[1] = StoreOp::kRead;
      norder = 3;
    }
    for (size_t i = 0; i < norder; ++i) {
      Channel& channel = channels_[static_cast<size_t>(order[i])];
      if (channel.next >= channel.script.size()) continue;
      action = channel.script[channel.next];
      if (channel.next + 1 < channel.script.size() || !channel.loop_last) {
        ++channel.next;
      }
      break;
    }
    if (action.kind == StoreFaultKind::kPass &&
        (op == StoreOp::kGet || op == StoreOp::kGetRange)) {
      // Scripts exhausted: seeded-random read-fault mix (default
      // all-zero = pass-through).
      const double u =
          static_cast<double>(net::MixBits(random_.seed ^ seq) >> 11) *
          0x1.0p-53;
      if (u < random_.eio) {
        action = StoreFaultAction::Eio();
      } else if (u < random_.eio + random_.flip) {
        action = StoreFaultAction::Flip(net::MixBits(random_.seed + seq));
      }
    }
    switch (action.kind) {
      case StoreFaultKind::kEio: ++stats_.eios; break;
      case StoreFaultKind::kFatal: ++stats_.fatals; break;
      case StoreFaultKind::kShort: ++stats_.shorts; break;
      case StoreFaultKind::kDelay: ++stats_.delays; break;
      case StoreFaultKind::kFlip: ++stats_.flips; break;
      case StoreFaultKind::kStatLie: ++stats_.stat_lies; break;
      case StoreFaultKind::kPass: break;
    }
  }
  // Sleeps and throws happen outside the lock so a slow-disk window on
  // one thread never blocks another thread's fault bookkeeping.
  switch (action.kind) {
    case StoreFaultKind::kDelay:
      std::this_thread::sleep_for(action.delay);
      break;
    case StoreFaultKind::kEio:
      throw TransientIoError("injected transient EIO on " +
                             std::string(OpName(op)) + " " + bucket + "/" +
                             key);
    case StoreFaultKind::kFatal:
      throw IoError("injected I/O failure on " + std::string(OpName(op)) +
                    " " + bucket + "/" + key);
    default:
      break;
  }
  return action;
}

Bytes FaultInjectingStore::FlipBit(ByteSpan data, std::uint64_t bit) {
  Bytes out(data.begin(), data.end());
  if (!out.empty()) {
    const std::uint64_t index = bit % (out.size() * 8);
    out[index / 8] ^= static_cast<Byte>(1u << (index % 8));
  }
  return out;
}

void FaultInjectingStore::CreateBucket(const std::string& bucket) {
  inner_.CreateBucket(bucket);
}

bool FaultInjectingStore::BucketExists(const std::string& bucket) const {
  return inner_.BucketExists(bucket);
}

void FaultInjectingStore::Put(const std::string& bucket,
                              const std::string& key, ByteSpan data) {
  const StoreFaultAction action = ApplyFault(StoreOp::kPut, bucket, key);
  if (action.kind == StoreFaultKind::kFlip) {
    // Rot at rest: the store keeps the flipped byte, so every later read
    // (and every recovery rung reading the same object) sees it until a
    // clean re-Put.
    const Bytes rotted = FlipBit(data, action.flip_bit);
    inner_.Put(bucket, key, rotted);
    return;
  }
  inner_.Put(bucket, key, data);
}

Bytes FaultInjectingStore::Get(const std::string& bucket,
                               const std::string& key) {
  const StoreFaultAction action = ApplyFault(StoreOp::kGet, bucket, key);
  Bytes out = inner_.Get(bucket, key);
  if (action.kind == StoreFaultKind::kShort) {
    out.resize(std::min<std::uint64_t>(out.size(), action.short_to));
  } else if (action.kind == StoreFaultKind::kFlip) {
    out = FlipBit(out, action.flip_bit);
  }
  return out;
}

Bytes FaultInjectingStore::GetRange(const std::string& bucket,
                                    const std::string& key,
                                    std::uint64_t offset,
                                    std::uint64_t length) {
  const StoreFaultAction action = ApplyFault(StoreOp::kGetRange, bucket, key);
  Bytes out = inner_.GetRange(bucket, key, offset, length);
  if (action.kind == StoreFaultKind::kShort) {
    out.resize(std::min<std::uint64_t>(out.size(), action.short_to));
  } else if (action.kind == StoreFaultKind::kFlip) {
    out = FlipBit(out, action.flip_bit);
  }
  return out;
}

ObjectInfo FaultInjectingStore::Stat(const std::string& bucket,
                                     const std::string& key) {
  const StoreFaultAction action = ApplyFault(StoreOp::kStat, bucket, key);
  ObjectInfo info = inner_.Stat(bucket, key);
  if (action.kind == StoreFaultKind::kStatLie) {
    const std::int64_t lied =
        static_cast<std::int64_t>(info.size) + action.stat_delta;
    info.size = lied < 0 ? 0 : static_cast<std::uint64_t>(lied);
  }
  return info;
}

bool FaultInjectingStore::Exists(const std::string& bucket,
                                 const std::string& key) {
  return inner_.Exists(bucket, key);
}

void FaultInjectingStore::Delete(const std::string& bucket,
                                 const std::string& key) {
  inner_.Delete(bucket, key);
}

std::vector<ObjectInfo> FaultInjectingStore::List(const std::string& bucket,
                                                  const std::string& prefix) {
  return inner_.List(bucket, prefix);
}

namespace {

StoreFaultAction ParseStoreAction(const std::string& name, long param) {
  if (name == "eio") return StoreFaultAction::Eio();
  if (name == "fatal") return StoreFaultAction::Fatal();
  if (name == "short") {
    return StoreFaultAction::Short(static_cast<std::uint64_t>(param));
  }
  if (name == "delay") {
    return StoreFaultAction::Delay(std::chrono::microseconds(param));
  }
  if (name == "flip") {
    return StoreFaultAction::Flip(static_cast<std::uint64_t>(param));
  }
  if (name == "lie") return StoreFaultAction::StatLie(param);
  throw Error("unknown store fault action '" + name + "'");
}

StoreOp ParseStoreOp(const std::string& name) {
  if (name == "get") return StoreOp::kGet;
  if (name == "range") return StoreOp::kGetRange;
  if (name == "read") return StoreOp::kRead;
  if (name == "put") return StoreOp::kPut;
  if (name == "stat") return StoreOp::kStat;
  if (name == "any") return StoreOp::kAny;
  throw Error("unknown store fault op '" + name +
              "' (get|range|read|put|stat|any)");
}

}  // namespace

std::vector<StoreFaultSpecEntry> ParseStoreFaultSpec(const std::string& spec) {
  // One entry per distinct op selector: repeated selectors append to the
  // same script, mirroring how ParseFaultSpec merges per direction.
  std::vector<StoreFaultSpecEntry> out;
  auto entry_for = [&out](StoreOp op) -> StoreFaultSpecEntry& {
    for (StoreFaultSpecEntry& e : out) {
      if (e.op == op) return e;
    }
    out.push_back(StoreFaultSpecEntry{op, {}, false});
    return out.back();
  };
  for (const net::FaultSpecEntry& entry : net::ParseFaultSpecEntries(spec)) {
    const StoreFaultAction action = ParseStoreAction(entry.action, entry.param);
    StoreFaultSpecEntry& slot = entry_for(ParseStoreOp(entry.selector));
    slot.script.insert(slot.script.end(), static_cast<size_t>(entry.count),
                       action);
    if (entry.loop) slot.loop_last = true;
  }
  return out;
}

void ApplyStoreFaultSpec(FaultInjectingStore& store, const std::string& spec) {
  for (StoreFaultSpecEntry& entry : ParseStoreFaultSpec(spec)) {
    store.Script(entry.op, std::move(entry.script), entry.loop_last);
  }
}

}  // namespace vizndp::storage
