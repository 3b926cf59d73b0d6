#include "net/fault.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/error.h"
#include "net/retry.h"

namespace vizndp::net {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPass: return "pass";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kBitFlip: return "bit_flip";
    case FaultKind::kDisconnect: return "disconnect";
  }
  return "?";
}

FaultInjectingTransport::FaultInjectingTransport(TransportPtr inner)
    : inner_(std::move(inner)) {}

void FaultInjectingTransport::ScriptSend(std::vector<FaultAction> script,
                                         bool loop_last) {
  std::lock_guard<std::mutex> lock(mu_);
  send_.script = std::move(script);
  send_.next = 0;
  send_.loop_last = loop_last;
}

void FaultInjectingTransport::ScriptReceive(std::vector<FaultAction> script,
                                            bool loop_last) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_.script = std::move(script);
  recv_.next = 0;
  recv_.loop_last = loop_last;
}

void FaultInjectingTransport::SetRandomFaults(
    const FaultProbabilities& probabilities) {
  std::lock_guard<std::mutex> lock(mu_);
  random_ = probabilities;
}

FaultStats FaultInjectingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// Caller holds mu_.
FaultAction FaultInjectingTransport::NextAction(Direction& dir) {
  const std::uint64_t frame = dir.frame_count++;
  if (dir.next < dir.script.size()) {
    const FaultAction action = dir.script[dir.next];
    if (dir.next + 1 < dir.script.size() || !dir.loop_last) ++dir.next;
    return action;
  }
  // Script exhausted: seeded-random mix (default all-zero = pass).
  const double u =
      static_cast<double>(MixBits(random_.seed ^ (frame * 2 + (&dir == &send_)))
                          >> 11) *
      0x1.0p-53;
  double acc = random_.drop;
  if (u < acc) return FaultAction::Drop();
  acc += random_.duplicate;
  if (u < acc) return FaultAction::Duplicate();
  acc += random_.bit_flip;
  if (u < acc) {
    return FaultAction::BitFlip(
        static_cast<size_t>(MixBits(random_.seed + frame)));
  }
  return FaultAction::Pass();
}

Bytes FaultInjectingTransport::Corrupt(ByteSpan frame,
                                       const FaultAction& action) {
  Bytes out(frame.begin(), frame.end());
  if (action.kind == FaultKind::kTruncate) {
    out.resize(std::min(out.size(), action.truncate_to));
  } else if (action.kind == FaultKind::kBitFlip && !out.empty()) {
    const size_t bit = action.flip_bit % (out.size() * 8);
    out[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
  }
  return out;
}

void FaultInjectingTransport::ThrowDisconnected() {
  throw PeerClosedError("fault injection: peer disconnected");
}

void FaultInjectingTransport::Send(ByteSpan frame) {
  FaultAction action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (disconnected_) ThrowDisconnected();
    action = NextAction(send_);
    switch (action.kind) {
      case FaultKind::kDrop:
        ++stats_.dropped;
        return;  // the frame silently vanishes
      case FaultKind::kDelay: ++stats_.delayed; break;
      case FaultKind::kDuplicate: ++stats_.duplicated; break;
      case FaultKind::kTruncate: ++stats_.truncated; break;
      case FaultKind::kBitFlip: ++stats_.bits_flipped; break;
      case FaultKind::kDisconnect:
        ++stats_.disconnects;
        disconnected_ = true;
        break;
      case FaultKind::kPass: break;
    }
  }
  // I/O and sleeps happen outside the lock so the receive side never
  // blocks behind an injected send delay.
  switch (action.kind) {
    case FaultKind::kDisconnect:
      inner_->Close();
      ThrowDisconnected();
    case FaultKind::kDelay:
      std::this_thread::sleep_for(action.delay);
      break;
    case FaultKind::kTruncate:
    case FaultKind::kBitFlip: {
      const Bytes corrupted = Corrupt(frame, action);
      inner_->Send(corrupted);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.frames_sent;
      return;
    }
    case FaultKind::kDuplicate:
      inner_->Send(frame);
      break;
    default:
      break;
  }
  inner_->Send(frame);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.frames_sent += action.kind == FaultKind::kDuplicate ? 2 : 1;
}

Bytes FaultInjectingTransport::Receive(Deadline deadline) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (disconnected_) ThrowDisconnected();
      if (!pending_receives_.empty()) {
        Bytes frame = std::move(pending_receives_.front());
        pending_receives_.pop_front();
        ++stats_.frames_received;
        return frame;
      }
    }
    Bytes frame = inner_->Receive(deadline);
    FaultAction action;
    {
      std::lock_guard<std::mutex> lock(mu_);
      action = NextAction(recv_);
    }
    switch (action.kind) {
      case FaultKind::kDrop: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.dropped;
        continue;  // the frame is lost; wait for the next one
      }
      case FaultKind::kDelay: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.delayed;
        }
        if (deadline != kNoDeadline) {
          const auto now = std::chrono::steady_clock::now();
          if (now + action.delay >= deadline) {
            // The injected stall outlives the caller's deadline: the
            // frame is effectively lost to this receive.
            std::this_thread::sleep_until(deadline);
            throw TimeoutError("fault injection: delayed past deadline");
          }
        }
        std::this_thread::sleep_for(action.delay);
        break;
      }
      case FaultKind::kDuplicate: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.duplicated;
        pending_receives_.emplace_back(frame);
        break;
      }
      case FaultKind::kTruncate:
      case FaultKind::kBitFlip: {
        Bytes corrupted = Corrupt(frame, action);
        std::lock_guard<std::mutex> lock(mu_);
        if (action.kind == FaultKind::kTruncate) ++stats_.truncated;
        else ++stats_.bits_flipped;
        ++stats_.frames_received;
        return corrupted;
      }
      case FaultKind::kDisconnect: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.disconnects;
          disconnected_ = true;
        }
        inner_->Close();
        ThrowDisconnected();
      }
      case FaultKind::kPass:
        break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_received;
    return frame;
  }
}

void FaultInjectingTransport::Close() { inner_->Close(); }

namespace {

FaultAction ParseAction(const std::string& name, long param) {
  if (name == "pass") return FaultAction::Pass();
  if (name == "drop") return FaultAction::Drop();
  if (name == "delay") return FaultAction::Delay(std::chrono::microseconds(param));
  if (name == "dup") return FaultAction::Duplicate();
  if (name == "truncate") return FaultAction::Truncate(static_cast<size_t>(param));
  if (name == "flip") return FaultAction::BitFlip(static_cast<size_t>(param));
  if (name == "down") return FaultAction::Disconnect();
  throw Error("unknown fault action '" + name + "'");
}

}  // namespace

std::vector<FaultSpecEntry> ParseFaultSpecEntries(const std::string& spec) {
  std::vector<FaultSpecEntry> out;
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    const auto malformed = [&entry] {
      return Error("malformed fault entry '" + entry + "'");
    };
    FaultSpecEntry& e = out.emplace_back();
    std::string_view rest = entry;
    e.loop = rest.back() == '+';
    if (e.loop) rest.remove_suffix(1);
    const size_t dot = rest.find('.');
    if (dot == std::string_view::npos) throw malformed();
    e.selector = rest.substr(0, dot);
    rest.remove_prefix(dot + 1);
    size_t cut = rest.find_first_of("*=");
    e.action = rest.substr(0, cut);
    std::string seen;  // the suffix marks read so far
    while (cut != std::string_view::npos) {
      const char mark = rest[cut];
      const size_t next = rest.find_first_of("*=", cut + 1);
      // (At next == npos the length overshoots and substr clamps it.)
      const std::string_view digits = rest.substr(cut + 1, next - cut - 1);
      const char* end = digits.data() + digits.size();
      const auto [ptr, ec] = std::from_chars(
          digits.data(), end, mark == '*' ? e.count : e.param);
      if (ec != std::errc() || ptr != end ||
          seen.find(mark) != std::string::npos) {
        throw malformed();
      }
      seen += mark;
      cut = next;
    }
    if (e.count < 1) throw malformed();
  }
  return out;
}

FaultSpec ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  for (const FaultSpecEntry& entry : ParseFaultSpecEntries(spec)) {
    const bool send = entry.selector == "send";
    if (!send && entry.selector != "recv") {
      throw Error("fault direction must be send or recv: " + entry.selector);
    }
    auto& script = send ? out.send_script : out.recv_script;
    script.insert(script.end(), static_cast<size_t>(entry.count),
                  ParseAction(entry.action, entry.param));
    if (entry.loop) (send ? out.send_loop_last : out.recv_loop_last) = true;
  }
  return out;
}

TransportPtr WrapWithFaults(TransportPtr inner, const std::string& spec) {
  const FaultSpec parsed = ParseFaultSpec(spec);
  auto faulty = std::make_unique<FaultInjectingTransport>(std::move(inner));
  faulty->ScriptSend(parsed.send_script, parsed.send_loop_last);
  faulty->ScriptReceive(parsed.recv_script, parsed.recv_loop_last);
  return faulty;
}

}  // namespace vizndp::net
