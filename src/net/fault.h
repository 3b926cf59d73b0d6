// FaultInjectingTransport: a Transport decorator that perturbs the frame
// stream in controlled, reproducible ways — the robustness counterpart of
// obs's InstrumentedCodec. Every failure mode the 2-node testbed can hit
// (stalled link, dead peer, corrupted or duplicated frames) becomes
// testable in-process:
//
//   drop        the frame silently vanishes (lost packet / dead service)
//   delay       the frame is held for a fixed duration (congested link)
//   duplicate   the frame is delivered twice (retransmit race)
//   truncate    only a prefix of the frame survives (partial write)
//   bit_flip    one bit is flipped at a seeded position (on-wire corruption)
//   disconnect  the connection hard-fails now and forever (node death)
//
// Faults are scripted per direction (action k applies to the k-th frame)
// or drawn from a seeded RNG, so failing runs replay exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"

namespace vizndp::net {

enum class FaultKind : std::uint8_t {
  kPass = 0,
  kDrop,
  kDelay,
  kDuplicate,
  kTruncate,
  kBitFlip,
  kDisconnect,
};

const char* FaultKindName(FaultKind kind);

struct FaultAction {
  FaultKind kind = FaultKind::kPass;
  std::chrono::microseconds delay{0};  // kDelay
  size_t truncate_to = 0;              // kTruncate: bytes kept
  size_t flip_bit = 0;                 // kBitFlip: bit index % frame bits

  static FaultAction Pass() { return {}; }
  static FaultAction Drop() { return {FaultKind::kDrop, {}, 0, 0}; }
  static FaultAction Delay(std::chrono::microseconds d) {
    return {FaultKind::kDelay, d, 0, 0};
  }
  static FaultAction Duplicate() { return {FaultKind::kDuplicate, {}, 0, 0}; }
  static FaultAction Truncate(size_t keep) {
    return {FaultKind::kTruncate, {}, keep, 0};
  }
  static FaultAction BitFlip(size_t bit) {
    return {FaultKind::kBitFlip, {}, 0, bit};
  }
  static FaultAction Disconnect() {
    return {FaultKind::kDisconnect, {}, 0, 0};
  }
};

// Seeded-random fault mix applied once a direction's script is exhausted
// (probabilities are independent; first match in this order wins).
struct FaultProbabilities {
  double drop = 0;
  double duplicate = 0;
  double bit_flip = 0;
  std::uint64_t seed = 1;
};

// Counts every injected fault, for assertions and for wiring into
// metrics at the call site.
struct FaultStats {
  std::uint64_t frames_sent = 0;      // delivered to the inner transport
  std::uint64_t frames_received = 0;  // delivered to the caller
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t truncated = 0;
  std::uint64_t bits_flipped = 0;
  std::uint64_t disconnects = 0;
};

class FaultInjectingTransport final : public Transport {
 public:
  explicit FaultInjectingTransport(TransportPtr inner);

  // Scripts the next sends/receives: action k applies to the k-th frame
  // in that direction. When `loop_last` is set the final action repeats
  // forever (e.g. {Drop} + loop_last = a black-holed direction);
  // otherwise exhausted scripts fall through to the random mix (which
  // defaults to all-zero probabilities = pass-through).
  void ScriptSend(std::vector<FaultAction> script, bool loop_last = false);
  void ScriptReceive(std::vector<FaultAction> script, bool loop_last = false);

  void SetRandomFaults(const FaultProbabilities& probabilities);

  FaultStats stats() const;

  void Send(ByteSpan frame) override;
  using Transport::Receive;
  Bytes Receive(Deadline deadline) override;
  void Close() override;

 private:
  struct Direction {
    std::vector<FaultAction> script;
    size_t next = 0;
    bool loop_last = false;
    std::uint64_t frame_count = 0;
  };

  FaultAction NextAction(Direction& dir);
  Bytes Corrupt(ByteSpan frame, const FaultAction& action);
  [[noreturn]] void ThrowDisconnected();

  mutable std::mutex mu_;
  TransportPtr inner_;
  Direction send_;
  Direction recv_;
  FaultProbabilities random_;
  bool disconnected_ = false;
  std::deque<Bytes> pending_receives_;  // duplicates waiting for delivery
  FaultStats stats_;
};

// One entry of a fault spec, in the form ParseFaultSpec and
// storage::ParseStoreFaultSpec share (the suffixes in either order).
struct FaultSpecEntry {
  std::string selector;  // send|recv, or a store op
  std::string action;
  long count = 1;
  long param = 0;
  bool loop = false;
};

// Throws Error on an entry with no '.', a repeated suffix, a count < 1,
// or a number that is not its whole token ("*2x", "=abc").
std::vector<FaultSpecEntry> ParseFaultSpecEntries(const std::string& spec);

// Parses a compact fault-script spec used by `vizndp_tool --fault`:
//   spec    := entry (',' entry)*
//   entry   := ('send'|'recv') '.' action ['*' count] ['=' param] ['+']
//   action  := pass | drop | delay (param: µs) | dup
//            | truncate (param: bytes) | flip (param: bit index) | down
// A trailing '+' on an entry loops its action forever. `pass` delivers
// the frame untouched — it exists to position a later entry at the k-th
// frame of a conversation (e.g. a kill at a mid-stream chunk boundary).
// Examples:
//   "send.drop*2"          drop the first two requests (retry succeeds)
//   "send.drop+"           black-hole every request (forces fallback)
//   "recv.delay*3=2000"    delay the first three replies by 2 ms
//   "recv.pass*8,recv.down"  deliver 8 frames, then die mid-stream
// Throws Error on a malformed spec.
struct FaultSpec {
  std::vector<FaultAction> send_script;
  bool send_loop_last = false;
  std::vector<FaultAction> recv_script;
  bool recv_loop_last = false;
};
FaultSpec ParseFaultSpec(const std::string& spec);

// Convenience: wraps `inner` per the spec string.
TransportPtr WrapWithFaults(TransportPtr inner, const std::string& spec);

}  // namespace vizndp::net
