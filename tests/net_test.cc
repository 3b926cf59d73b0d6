#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "net/link_model.h"
#include "net/reconnect.h"
#include "net/retry.h"
#include "net/tcp.h"

namespace vizndp::net {
namespace {

using namespace std::chrono_literals;

TEST(SimulatedLink, TransferTimeMath) {
  LinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1000.0;
  cfg.latency_sec = 0.5;
  cfg.overhead_factor = 1.0;
  SimulatedLink link(cfg);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(1000), 1.5);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0), 0.5);
}

TEST(SimulatedLink, ChargeAccumulates) {
  SimulatedLink link({.bandwidth_bytes_per_sec = 100.0,
                      .latency_sec = 0.0,
                      .overhead_factor = 1.0});
  link.ChargeTransfer(50);
  link.ChargeTransfer(150);
  EXPECT_EQ(link.bytes_transferred(), 200u);
  EXPECT_EQ(link.messages(), 2u);
  EXPECT_NEAR(link.virtual_seconds(), 2.0, 1e-12);
  link.Reset();
  EXPECT_EQ(link.bytes_transferred(), 0u);
  EXPECT_EQ(link.virtual_seconds(), 0.0);
}

TEST(SimulatedLink, OverheadFactorAppliesToPayloadOnly) {
  SimulatedLink link({.bandwidth_bytes_per_sec = 100.0,
                      .latency_sec = 1.0,
                      .overhead_factor = 2.0});
  EXPECT_DOUBLE_EQ(link.TransferSeconds(100), 1.0 + 2.0);
}

TEST(InProc, PairDeliversFramesInOrder) {
  TransportPair pair = CreateInProcPair();
  pair.a->Send(ToBytes("one"));
  pair.a->Send(ToBytes("two"));
  EXPECT_EQ(pair.b->Receive(), ToBytes("one"));
  EXPECT_EQ(pair.b->Receive(), ToBytes("two"));
}

TEST(InProc, FullDuplex) {
  TransportPair pair = CreateInProcPair();
  pair.a->Send(ToBytes("ping"));
  pair.b->Send(ToBytes("pong"));
  EXPECT_EQ(pair.b->Receive(), ToBytes("ping"));
  EXPECT_EQ(pair.a->Receive(), ToBytes("pong"));
}

TEST(InProc, CrossThreadBlockingReceive) {
  TransportPair pair = CreateInProcPair();
  std::thread producer([t = std::move(pair.a)] {
    for (int i = 0; i < 100; ++i) {
      Bytes frame(3, static_cast<Byte>(i));
      t->Send(frame);
    }
  });
  for (int i = 0; i < 100; ++i) {
    const Bytes frame = pair.b->Receive();
    ASSERT_EQ(frame, Bytes(3, static_cast<Byte>(i)));
  }
  producer.join();
}

TEST(InProc, CloseUnblocksAndThrows) {
  TransportPair pair = CreateInProcPair();
  pair.a->Close();
  EXPECT_THROW(pair.b->Receive(), Error);
}

TEST(InProc, ChargesLinkPerSend) {
  SimulatedLink link({.bandwidth_bytes_per_sec = 1e6,
                      .latency_sec = 0.0,
                      .overhead_factor = 1.0});
  TransportPair pair = CreateInProcPair(&link);
  pair.a->Send(Bytes(1000));
  pair.b->Send(Bytes(500));
  (void)pair.b->Receive();
  (void)pair.a->Receive();
  EXPECT_EQ(link.bytes_transferred(), 1500u);
  EXPECT_NEAR(link.virtual_seconds(), 0.0015, 1e-9);
}

TEST(Tcp, LoopbackFrameRoundTrip) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();

  client->Send(ToBytes("hello tcp"));
  EXPECT_EQ(server->Receive(), ToBytes("hello tcp"));
  server->Send(ToBytes("reply"));
  EXPECT_EQ(client->Receive(), ToBytes("reply"));
}

TEST(Tcp, LargeFrame) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();

  Bytes big(5 * 1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<Byte>(i * 2654435761u);
  std::thread sender([&] { client->Send(big); });
  EXPECT_EQ(server->Receive(), big);
  sender.join();
}

TEST(Tcp, EmptyFrame) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();
  client->Send(ByteSpan{});
  EXPECT_EQ(server->Receive(), Bytes{});
}

TEST(Tcp, PeerCloseThrowsOnReceive) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();
  client->Close();
  EXPECT_THROW(server->Receive(), IoError);
}

TEST(Tcp, ConnectFailureThrows) {
  // Port 1 on loopback is essentially never listening.
  EXPECT_THROW(TcpConnect("127.0.0.1", 1), IoError);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Deadline, InProcReceiveTimesOutTyped) {
  TransportPair pair = CreateInProcPair();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(pair.b->Receive(DeadlineAfter(30ms)), TimeoutError);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

TEST(Deadline, InProcReceiveBeforeDeadlineDelivers) {
  TransportPair pair = CreateInProcPair();
  pair.a->Send(ToBytes("in time"));
  EXPECT_EQ(pair.b->Receive(DeadlineAfter(1000ms)), ToBytes("in time"));
}

TEST(Deadline, TimeoutIsNotPeerClosed) {
  // Callers must be able to tell "slow" from "dead": a timeout is not an
  // IoError, and a closed peer is not a TimeoutError.
  TransportPair slow = CreateInProcPair();
  try {
    slow.b->Receive(DeadlineAfter(10ms));
    FAIL() << "expected TimeoutError";
  } catch (const IoError&) {
    FAIL() << "timeout must not be an IoError";
  } catch (const TimeoutError&) {
  }

  TransportPair dead = CreateInProcPair();
  dead.a->Close();
  EXPECT_THROW(dead.b->Receive(DeadlineAfter(10ms)), PeerClosedError);
}

TEST(Deadline, DeadlineAfterNonPositiveMeansForever) {
  EXPECT_EQ(DeadlineAfter(0ms), kNoDeadline);
  EXPECT_EQ(DeadlineAfter(-5ms), kNoDeadline);
}

TEST(Deadline, TcpReceiveTimesOut) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();
  EXPECT_THROW(client->Receive(DeadlineAfter(30ms)), TimeoutError);
  // The connection is still usable: no frame bytes were consumed.
  server->Send(ToBytes("late but intact"));
  EXPECT_EQ(client->Receive(DeadlineAfter(1000ms)), ToBytes("late but intact"));
}

// ---------------------------------------------------------------------------
// TCP robustness (partial writes, dead peers, frame cap)
// ---------------------------------------------------------------------------

TEST(Tcp, SendToClosedPeerThrowsPeerClosed) {
  TcpListener listener(0);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();
  server->Close();

  // A frame far larger than any socket buffer guarantees the kernel
  // reports the dead peer (EPIPE/ECONNRESET) mid-write; the first send
  // may still land entirely in the local buffer, hence the loop. Before
  // the MSG_NOSIGNAL fix this killed the process with SIGPIPE.
  const Bytes big(16 * 1024 * 1024, Byte{0xAB});
  bool threw_peer_closed = false;
  for (int i = 0; i < 8 && !threw_peer_closed; ++i) {
    try {
      client->Send(big);
    } catch (const PeerClosedError&) {
      threw_peer_closed = true;
    }
  }
  EXPECT_TRUE(threw_peer_closed);
}

TEST(Tcp, OversizedFrameHeaderRejectedBeforeAllocation) {
  TcpOptions options;
  options.max_frame_bytes = 1024;
  TcpListener listener(0, options);
  TransportPtr server;
  std::thread accepter([&] { server = listener.Accept(); });
  TransportPtr client = TcpConnect("127.0.0.1", listener.port());
  accepter.join();
  client->Send(Bytes(4096, Byte{0x11}));
  EXPECT_THROW(server->Receive(DeadlineAfter(1000ms)), DecodeError);
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, DeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_delay = 1000us;
  policy.max_delay = 8000us;
  policy.jitter = 0.5;
  policy.seed = 42;
  for (int retry = 1; retry <= 6; ++retry) {
    const auto a = policy.DelayBefore(retry, 7);
    const auto b = policy.DelayBefore(retry, 7);
    EXPECT_EQ(a, b) << "jitter must be a pure function of its inputs";
    const auto ceiling =
        std::min(policy.max_delay, policy.base_delay * (1 << (retry - 1)));
    EXPECT_LE(a, ceiling);
    EXPECT_GE(a, ceiling / 2);  // jitter = 0.5 keeps at least half
  }
}

TEST(RetryPolicy, SaltDecorrelatesUsers) {
  RetryPolicy policy;
  policy.jitter = 0.999;
  bool any_differ = false;
  for (int retry = 1; retry <= 8; ++retry) {
    if (policy.DelayBefore(retry, 1) != policy.DelayBefore(retry, 2)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(RetryPolicy, ZeroJitterIsExactExponential) {
  RetryPolicy policy;
  policy.base_delay = 100us;
  policy.max_delay = 1000us;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.DelayBefore(1), 100us);
  EXPECT_EQ(policy.DelayBefore(2), 200us);
  EXPECT_EQ(policy.DelayBefore(3), 400us);
  EXPECT_EQ(policy.DelayBefore(4), 800us);
  EXPECT_EQ(policy.DelayBefore(5), 1000us);  // capped
  EXPECT_EQ(policy.DelayBefore(50), 1000us); // shift doesn't overflow
}

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

struct FaultedPair {
  TransportPtr peer;                               // far end, unwrapped
  std::shared_ptr<FaultInjectingTransport> faulty; // near end, wrapped

  FaultedPair() {
    TransportPair pair = CreateInProcPair();
    peer = std::move(pair.a);
    faulty = std::make_shared<FaultInjectingTransport>(std::move(pair.b));
  }
};

TEST(FaultInjection, PassThroughByDefault) {
  FaultedPair fp;
  fp.faulty->Send(ToBytes("hello"));
  EXPECT_EQ(fp.peer->Receive(), ToBytes("hello"));
  fp.peer->Send(ToBytes("world"));
  EXPECT_EQ(fp.faulty->Receive(), ToBytes("world"));
  EXPECT_EQ(fp.faulty->stats().frames_sent, 1u);
  EXPECT_EQ(fp.faulty->stats().frames_received, 1u);
  EXPECT_EQ(fp.faulty->stats().dropped, 0u);
}

TEST(FaultInjection, ScriptedSendDrop) {
  FaultedPair fp;
  fp.faulty->ScriptSend({FaultAction::Drop(), FaultAction::Pass()});
  fp.faulty->Send(ToBytes("lost"));
  fp.faulty->Send(ToBytes("delivered"));
  EXPECT_EQ(fp.peer->Receive(), ToBytes("delivered"));
  EXPECT_EQ(fp.faulty->stats().dropped, 1u);
  EXPECT_EQ(fp.faulty->stats().frames_sent, 1u);
}

TEST(FaultInjection, LoopLastBlackholesDirection) {
  FaultedPair fp;
  fp.faulty->ScriptSend({FaultAction::Drop()}, /*loop_last=*/true);
  for (int i = 0; i < 5; ++i) fp.faulty->Send(ToBytes("into the void"));
  EXPECT_EQ(fp.faulty->stats().dropped, 5u);
  EXPECT_THROW(fp.peer->Receive(DeadlineAfter(20ms)), TimeoutError);
}

TEST(FaultInjection, ReceiveDropRetriesUntilDeadline) {
  FaultedPair fp;
  fp.faulty->ScriptReceive({FaultAction::Drop(), FaultAction::Pass()});
  fp.peer->Send(ToBytes("first"));
  fp.peer->Send(ToBytes("second"));
  // The first frame is swallowed; Receive keeps waiting and returns the
  // second one rather than surfacing the drop.
  EXPECT_EQ(fp.faulty->Receive(DeadlineAfter(1000ms)), ToBytes("second"));
  EXPECT_EQ(fp.faulty->stats().dropped, 1u);
}

TEST(FaultInjection, DuplicateDeliversTwice) {
  FaultedPair fp;
  fp.faulty->ScriptReceive({FaultAction::Duplicate()});
  fp.peer->Send(ToBytes("echo"));
  EXPECT_EQ(fp.faulty->Receive(DeadlineAfter(1000ms)), ToBytes("echo"));
  EXPECT_EQ(fp.faulty->Receive(DeadlineAfter(1000ms)), ToBytes("echo"));
  EXPECT_EQ(fp.faulty->stats().duplicated, 1u);
}

TEST(FaultInjection, TruncateKeepsPrefix) {
  FaultedPair fp;
  fp.faulty->ScriptSend({FaultAction::Truncate(3)});
  fp.faulty->Send(ToBytes("truncate me"));
  EXPECT_EQ(fp.peer->Receive(), ToBytes("tru"));
  EXPECT_EQ(fp.faulty->stats().truncated, 1u);
}

TEST(FaultInjection, BitFlipCorruptsExactlyOneBit) {
  FaultedPair fp;
  fp.faulty->ScriptSend({FaultAction::BitFlip(13)});
  const Bytes original = ToBytes("corruptible");
  fp.faulty->Send(original);
  const Bytes received = fp.peer->Receive();
  ASSERT_EQ(received.size(), original.size());
  int differing_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    differing_bits += __builtin_popcount(original[i] ^ received[i]);
  }
  EXPECT_EQ(differing_bits, 1);
  EXPECT_EQ(fp.faulty->stats().bits_flipped, 1u);
}

TEST(FaultInjection, DelayHoldsFrame) {
  FaultedPair fp;
  fp.faulty->ScriptReceive({FaultAction::Delay(30'000us)});
  fp.peer->Send(ToBytes("slow frame"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(fp.faulty->Receive(DeadlineAfter(1000ms)), ToBytes("slow frame"));
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
  EXPECT_EQ(fp.faulty->stats().delayed, 1u);
}

TEST(FaultInjection, DelayPastDeadlineBecomesTimeout) {
  FaultedPair fp;
  fp.faulty->ScriptReceive({FaultAction::Delay(500'000us)});
  fp.peer->Send(ToBytes("too slow"));
  EXPECT_THROW(fp.faulty->Receive(DeadlineAfter(20ms)), TimeoutError);
}

TEST(FaultInjection, DisconnectIsPermanent) {
  FaultedPair fp;
  fp.faulty->ScriptSend({FaultAction::Disconnect()});
  EXPECT_THROW(fp.faulty->Send(ToBytes("x")), PeerClosedError);
  EXPECT_THROW(fp.faulty->Send(ToBytes("y")), PeerClosedError);
  EXPECT_THROW(fp.faulty->Receive(DeadlineAfter(10ms)), PeerClosedError);
  EXPECT_EQ(fp.faulty->stats().disconnects, 1u);
}

TEST(FaultInjection, SeededRandomDropsAreReproducible) {
  auto run = [](std::uint64_t seed) {
    FaultedPair fp;
    FaultProbabilities probabilities;
    probabilities.drop = 0.5;
    probabilities.seed = seed;
    fp.faulty->SetRandomFaults(probabilities);
    for (int i = 0; i < 64; ++i) fp.faulty->Send(ToBytes("frame"));
    return fp.faulty->stats().dropped;
  };
  const std::uint64_t dropped = run(7);
  EXPECT_EQ(dropped, run(7)) << "same seed must replay the same faults";
  EXPECT_GT(dropped, 8u);
  EXPECT_LT(dropped, 56u);
}

TEST(FaultSpec, ParsesCompactGrammar) {
  const FaultSpec spec =
      ParseFaultSpec("send.drop*2,recv.delay=2000*3,send.flip=5");
  ASSERT_EQ(spec.send_script.size(), 3u);
  EXPECT_EQ(spec.send_script[0].kind, FaultKind::kDrop);
  EXPECT_EQ(spec.send_script[1].kind, FaultKind::kDrop);
  EXPECT_EQ(spec.send_script[2].kind, FaultKind::kBitFlip);
  EXPECT_EQ(spec.send_script[2].flip_bit, 5u);
  EXPECT_FALSE(spec.send_loop_last);
  ASSERT_EQ(spec.recv_script.size(), 3u);
  EXPECT_EQ(spec.recv_script[0].kind, FaultKind::kDelay);
  EXPECT_EQ(spec.recv_script[0].delay, 2000us);
  // The suffixes read the same in either order.
  const FaultSpec swapped = ParseFaultSpec("recv.delay*3=2000");
  ASSERT_EQ(swapped.recv_script.size(), 3u);
  for (const FaultAction& action : swapped.recv_script) {
    EXPECT_EQ(action.kind, FaultKind::kDelay);
    EXPECT_EQ(action.delay, 2000us);
  }
}

TEST(FaultSpec, TrailingPlusLoopsForever) {
  const FaultSpec spec = ParseFaultSpec("send.drop+");
  ASSERT_EQ(spec.send_script.size(), 1u);
  EXPECT_TRUE(spec.send_loop_last);
}

TEST(FaultSpec, MalformedSpecThrows) {
  EXPECT_THROW(ParseFaultSpec("sideways.drop"), Error);
  EXPECT_THROW(ParseFaultSpec("send.explode"), Error);
  EXPECT_THROW(ParseFaultSpec("send."), Error);
  // A number must be its whole token.
  EXPECT_THROW(ParseFaultSpec("send.delay=abc"), Error);
  EXPECT_THROW(ParseFaultSpec("send.drop*2x"), Error);
}

// ---------------------------------------------------------------------------
// ReconnectingTransport
// ---------------------------------------------------------------------------

TEST(Reconnect, RedialsAfterPeerLossOnSend) {
  // Each dial creates a fresh pair; the far ends are kept so the test
  // can kill the current connection and inspect what arrived.
  std::vector<TransportPtr> far_ends;
  auto factory = [&far_ends]() -> TransportPtr {
    TransportPair pair = CreateInProcPair();
    far_ends.push_back(std::move(pair.a));
    return std::move(pair.b);
  };
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay = 100us;
  policy.jitter = 0.0;
  ReconnectingTransport transport(factory, policy);

  transport.Send(ToBytes("first"));
  ASSERT_EQ(far_ends.size(), 1u);
  EXPECT_EQ(far_ends[0]->Receive(), ToBytes("first"));

  far_ends[0]->Close();  // peer dies
  transport.Send(ToBytes("second"));
  ASSERT_EQ(far_ends.size(), 2u);
  EXPECT_EQ(far_ends[1]->Receive(), ToBytes("second"));
  EXPECT_EQ(transport.stats().reconnects, 1u);
}

TEST(Reconnect, DialFailuresBackOffThenThrow) {
  int calls = 0;
  auto factory = [&calls]() -> TransportPtr {
    ++calls;
    throw IoError("dial refused");
  };
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay = 100us;
  policy.jitter = 0.0;
  ReconnectingTransport transport(factory, policy);
  EXPECT_THROW(transport.Send(ToBytes("x")), IoError);
  EXPECT_GE(calls, 3);
  EXPECT_GE(transport.stats().dial_failures, 3u);
}

TEST(Reconnect, ReceiveLossPropagatesButNextSendRedials) {
  std::vector<TransportPtr> far_ends;
  auto factory = [&far_ends]() -> TransportPtr {
    TransportPair pair = CreateInProcPair();
    far_ends.push_back(std::move(pair.a));
    return std::move(pair.b);
  };
  ReconnectingTransport transport(factory, RetryPolicy{});
  transport.Send(ToBytes("request"));
  far_ends[0]->Close();
  // The pending reply died with the connection: the caller must see it.
  EXPECT_THROW(transport.Receive(DeadlineAfter(100ms)), PeerClosedError);
  // But the transport recovers on the next use.
  transport.Send(ToBytes("retry"));
  ASSERT_EQ(far_ends.size(), 2u);
  EXPECT_EQ(far_ends[1]->Receive(), ToBytes("retry"));
}

}  // namespace
}  // namespace vizndp::net
