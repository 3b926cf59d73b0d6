#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "net/retry.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"

namespace vizndp::rpc {
namespace {

using namespace std::chrono_literals;
using msgpack::Array;
using msgpack::Value;

struct ServedPair {
  Server server;
  std::unique_ptr<Client> client;
  std::thread server_thread;

  explicit ServedPair(net::SimulatedLink* link = nullptr) {
    net::TransportPair pair = net::CreateInProcPair(link);
    server_thread = std::thread(
        [this, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
          server.ServeTransport(*t);
        });
    client = std::make_unique<Client>(std::move(pair.b));
  }

  ~ServedPair() {
    client.reset();  // closes the channel; the serve loop exits
    server_thread.join();
  }
};

TEST(Rpc, BasicCall) {
  ServedPair sp;
  sp.server.Bind("add", [](const Array& p) {
    return Value(p.at(0).AsInt() + p.at(1).AsInt());
  });
  const Value result = sp.client->Call("add", Array{Value(2), Value(40)});
  EXPECT_EQ(result.AsInt(), 42);
}

TEST(Rpc, MultipleSequentialCalls) {
  ServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sp.client->Call("echo", Array{Value(i)}).AsInt(), i);
  }
  EXPECT_EQ(sp.server.requests_served(), 50u);
}

TEST(Rpc, UnknownMethodReturnsError) {
  ServedPair sp;
  EXPECT_THROW(sp.client->Call("nope"), RpcError);
}

TEST(Rpc, HandlerExceptionPropagatesAsRpcError) {
  ServedPair sp;
  sp.server.Bind("boom", [](const Array&) -> Value {
    throw std::runtime_error("kaboom");
  });
  try {
    sp.client->Call("boom");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("kaboom"), std::string::npos);
  }
  // The server survives a handler failure.
  sp.server.Bind("ok", [](const Array&) { return Value(1); });
  EXPECT_EQ(sp.client->Call("ok").AsInt(), 1);
}

TEST(Rpc, BinaryPayloadRoundTrip) {
  ServedPair sp;
  sp.server.Bind("reverse", [](const Array& p) {
    Bytes b = p.at(0).As<Bytes>();
    std::reverse(b.begin(), b.end());
    return Value(std::move(b));
  });
  Bytes big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<Byte>(i);
  Bytes expected = big;
  std::reverse(expected.begin(), expected.end());
  const Value result = sp.client->Call("reverse", Array{Value(std::move(big))});
  EXPECT_EQ(result.As<Bytes>(), expected);
}

TEST(Rpc, DuplicateBindThrows) {
  Server server;
  server.Bind("m", [](const Array&) { return Value(); });
  EXPECT_THROW(server.Bind("m", [](const Array&) { return Value(); }), Error);
}

TEST(Rpc, DispatchRejectsGarbage) {
  Server server;
  EXPECT_THROW(server.Dispatch(ToBytes("not msgpack at all")), Error);
}

TEST(Rpc, CallsChargeTheLink) {
  net::SimulatedLink link({.bandwidth_bytes_per_sec = 1e9,
                           .latency_sec = 0.0,
                           .overhead_factor = 1.0});
  {
    ServedPair sp(&link);
    sp.server.Bind("blob", [](const Array& p) {
      return Value(Bytes(p.at(0).AsUint(), 0x7F));
    });
    sp.client->Call("blob", Array{Value(std::uint64_t{100000})});
  }
  // Reply carries ~100 KB across the link; request is small.
  EXPECT_GT(link.bytes_transferred(), 100000u);
  EXPECT_LT(link.bytes_transferred(), 101000u);
  EXPECT_EQ(link.messages(), 2u);
}

TEST(Rpc, PerMethodMetricsTrackDispatches) {
  ServedPair sp;
  sp.server.Bind("ok", [](const Array&) { return Value(1); });
  sp.server.Bind("boom", [](const Array&) -> Value {
    throw std::runtime_error("kaboom");
  });
  for (int i = 0; i < 3; ++i) sp.client->Call("ok");
  EXPECT_THROW(sp.client->Call("boom"), RpcError);
  EXPECT_THROW(sp.client->Call("no_such_method"), RpcError);

  const auto snapshot = sp.server.metrics().Snapshot();
  const obs::MetricSnapshot* ok_requests =
      obs::FindMetric(snapshot, "rpc_requests_total{method=ok}");
  ASSERT_NE(ok_requests, nullptr);
  EXPECT_DOUBLE_EQ(ok_requests->value, 3.0);
  const obs::MetricSnapshot* ok_errors =
      obs::FindMetric(snapshot, "rpc_errors_total{method=ok}");
  ASSERT_NE(ok_errors, nullptr);
  EXPECT_DOUBLE_EQ(ok_errors->value, 0.0);
  const obs::MetricSnapshot* boom_errors =
      obs::FindMetric(snapshot, "rpc_errors_total{method=boom}");
  ASSERT_NE(boom_errors, nullptr);
  EXPECT_DOUBLE_EQ(boom_errors->value, 1.0);
  const obs::MetricSnapshot* unknown =
      obs::FindMetric(snapshot, "rpc_unknown_method_total");
  ASSERT_NE(unknown, nullptr);
  EXPECT_DOUBLE_EQ(unknown->value, 1.0);
  const obs::MetricSnapshot* ok_latency =
      obs::FindMetric(snapshot, "rpc_dispatch_seconds{method=ok}");
  ASSERT_NE(ok_latency, nullptr);
  EXPECT_EQ(ok_latency->count, 3u);

  // The aggregate accessor counts every dispatch, including failures.
  EXPECT_EQ(sp.server.requests_served(), 5u);
}

// Like ServedPair, but the client talks through a fault injector, and
// client-side fault metrics land in a test-local registry.
struct FaultedServedPair {
  Server server;
  net::FaultInjectingTransport* faults = nullptr;  // owned by client
  std::unique_ptr<Client> client;
  obs::Registry metrics;
  std::thread server_thread;

  FaultedServedPair() {
    net::TransportPair pair = net::CreateInProcPair();
    server_thread = std::thread(
        [this, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
          server.ServeTransport(*t);
        });
    auto faulty =
        std::make_unique<net::FaultInjectingTransport>(std::move(pair.b));
    faults = faulty.get();
    client = std::make_unique<Client>(std::move(faulty));
    client->SetMetrics(&metrics);
    net::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.base_delay = 200us;
    policy.jitter = 0.0;
    client->SetRetryPolicy(policy);
  }

  ~FaultedServedPair() {
    client.reset();
    server_thread.join();
  }

  double Counter(const std::string& name) {
    const auto snapshot = metrics.Snapshot();
    const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
    return m == nullptr ? 0.0 : m->value;
  }
};

TEST(RpcRetry, FirstRequestsDroppedThenSucceeds) {
  FaultedServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  // The first two requests vanish in flight; attempts 1 and 2 time out,
  // attempt 3 gets through.
  sp.faults->ScriptSend(
      {net::FaultAction::Drop(), net::FaultAction::Drop()});
  const Value result = sp.client->Call("echo", Array{Value(7)},
                                       {.timeout = 50ms, .idempotent = true});
  EXPECT_EQ(result.AsInt(), 7);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_retries_total{method=echo}"), 2.0);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_timeouts_total{method=echo}"), 2.0);
}

TEST(RpcRetry, AllDroppedExhaustsAttemptsWithTimeout) {
  FaultedServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  sp.faults->ScriptSend({net::FaultAction::Drop()}, /*loop_last=*/true);
  EXPECT_THROW(sp.client->Call("echo", Array{Value(1)},
                               {.timeout = 30ms, .idempotent = true}),
               TimeoutError);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_timeouts_total{method=echo}"), 4.0);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_retries_total{method=echo}"), 3.0);
}

TEST(RpcRetry, DuplicatedReplyIsDiscardedNotMismatched) {
  FaultedServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  sp.faults->ScriptReceive({net::FaultAction::Duplicate()});
  // Call 1's reply arrives twice. Call 2 must skip the stale duplicate
  // (older msgid) and still find its own reply.
  const CallOptions opts{.timeout = 200ms};
  EXPECT_EQ(sp.client->Call("echo", Array{Value(1)}, opts).AsInt(), 1);
  EXPECT_EQ(sp.client->Call("echo", Array{Value(2)}, opts).AsInt(), 2);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_stale_replies_total"), 1.0);
}

TEST(RpcRetry, LateReplyAfterTimeoutIsDiscarded) {
  FaultedServedPair sp;
  std::atomic<int> runs{0};
  sp.server.Bind("echo", [&runs](const Array& p) {
    // Only the first run is slow: attempt 1 times out at 45 ms while the
    // handler is still sleeping, so its reply arrives *during* attempt 2
    // and must be discarded by msgid, not mistaken for attempt 2's reply.
    if (runs.fetch_add(1) == 0) std::this_thread::sleep_for(60ms);
    return p.at(0);
  });
  const Value retried = sp.client->Call("echo", Array{Value(11)},
                                        {.timeout = 45ms, .idempotent = true});
  EXPECT_EQ(retried.AsInt(), 11);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_GE(sp.Counter("rpc_stale_replies_total"), 1.0);
}

TEST(RpcRetry, NonIdempotentCallsAreNotRetried) {
  FaultedServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  sp.faults->ScriptSend({net::FaultAction::Drop()}, /*loop_last=*/true);
  EXPECT_THROW(sp.client->Call("echo", Array{Value(1)},
                               {.timeout = 30ms, .idempotent = false}),
               TimeoutError);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_retries_total{method=echo}"), 0.0);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_timeouts_total{method=echo}"), 1.0);
}

TEST(RpcRetry, ServerErrorsAreNeverRetried) {
  FaultedServedPair sp;
  int runs = 0;
  sp.server.Bind("boom", [&runs](const Array&) -> Value {
    ++runs;
    throw std::runtime_error("kaboom");
  });
  EXPECT_THROW(
      sp.client->Call("boom", {}, {.timeout = 200ms, .idempotent = true}),
      RpcError);
  // The server is alive and answered: retrying would re-run the failing
  // handler for nothing.
  EXPECT_EQ(runs, 1);
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_retries_total{method=boom}"), 0.0);
}

TEST(RpcRetry, HardDisconnectExhaustsRetriesWithPeerClosed) {
  FaultedServedPair sp;
  sp.server.Bind("echo", [](const Array& p) { return p.at(0); });
  sp.faults->ScriptSend({net::FaultAction::Disconnect()});
  EXPECT_THROW(sp.client->Call("echo", Array{Value(1)},
                               {.timeout = 30ms, .idempotent = true}),
               PeerClosedError);
  // Peer loss is retryable (a ReconnectingTransport could recover), so
  // all attempts were burned before giving up.
  EXPECT_DOUBLE_EQ(sp.Counter("rpc_retries_total{method=echo}"), 3.0);
}

TEST(RpcServer, OversizeFrameClosesConnectionNotServer) {
  Server server;
  ServerOptions options;
  options.max_frame_bytes = 1024;
  server.SetOptions(options);
  server.Bind("ok", [](const Array&) { return Value(1); });

  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve_thread(
      [&server, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
        server.ServeTransport(*t);
      });
  pair.b->Send(Bytes(4096, Byte{0x00}));  // over the cap
  EXPECT_THROW(pair.b->Receive(net::DeadlineAfter(1000ms)), Error);
  serve_thread.join();
  const auto snapshot = server.metrics().Snapshot();
  const obs::MetricSnapshot* oversize =
      obs::FindMetric(snapshot, "rpc_oversize_frames_total");
  ASSERT_NE(oversize, nullptr);
  EXPECT_DOUBLE_EQ(oversize->value, 1.0);
}

TEST(RpcServer, GarbageFrameClosesConnectionNotServer) {
  Server server;
  server.Bind("ok", [](const Array&) { return Value(1); });

  // Connection 1 sends garbage: its serve loop must exit cleanly (no
  // propagating exception) and count the malformed frame.
  net::TransportPair bad = net::CreateInProcPair();
  std::thread bad_thread(
      [&server, t = std::shared_ptr<net::Transport>(std::move(bad.a))] {
        server.ServeTransport(*t);
      });
  bad.b->Send(ToBytes("definitely not msgpack"));
  EXPECT_THROW(bad.b->Receive(net::DeadlineAfter(1000ms)), Error);
  bad_thread.join();

  // Connection 2 still works: the server object survived.
  net::TransportPair good = net::CreateInProcPair();
  std::thread good_thread(
      [&server, t = std::shared_ptr<net::Transport>(std::move(good.a))] {
        server.ServeTransport(*t);
      });
  auto client = std::make_unique<Client>(std::move(good.b));
  EXPECT_EQ(client->Call("ok").AsInt(), 1);
  const auto snapshot = server.metrics().Snapshot();
  const obs::MetricSnapshot* malformed =
      obs::FindMetric(snapshot, "rpc_malformed_frames_total");
  ASSERT_NE(malformed, nullptr);
  EXPECT_DOUBLE_EQ(malformed->value, 1.0);
  client.reset();  // closes the channel so the serve loop exits
  good_thread.join();
}

// A request the server reads between a stream's chunks, with no cancel
// ahead of it, is neither dropped nor served mid-stream: the stream runs
// to its terminal, and the request is answered right after it.
TEST(RpcServer, RequestReadBetweenChunksIsServedAfterTheStream) {
  Server server;
  server.Bind("ok", [](const Array&) { return Value(7); });
  std::atomic<bool> second_sent{false};
  server.BindStreaming("stream", [&](const Array&, StreamSink* sink) {
    for (int i = 0; i < 3; ++i) {
      // The second request is on the wire before chunk 1 polls for a
      // cancel, so that poll (or chunk 0's) reads it.
      while (i == 1 && !second_sent.load()) std::this_thread::yield();
      if (!sink->Emit(Value(i))) return Value("cancelled");
    }
    return Value("done");
  });
  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve_thread(
      [&server, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
        server.ServeTransport(*t);
      });
  const auto request = [&](std::uint64_t msgid, const char* method) {
    pair.b->Send(msgpack::Encode(Value(Array{
        Value(kRequestType), Value(msgid), Value(method), Value(Array{})})));
  };
  request(1, "stream");
  request(2, "ok");
  second_sent.store(true);

  // (type, msgid, result) of every frame, in arrival order.
  using Frame = std::tuple<std::int64_t, std::uint64_t, Value>;
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) {
    Bytes bytes;
    try {
      bytes = pair.b->Receive(net::DeadlineAfter(2000ms));
    } catch (const TimeoutError&) {
      ADD_FAILURE() << "frame " << i << " never arrived";
      break;
    }
    const Value frame = msgpack::Decode(bytes);
    const Array& f = frame.As<Array>();
    const bool response = f[0].AsInt() == kResponseType;
    if (response) {
      EXPECT_TRUE(f[2].IsNil());
    }
    frames.emplace_back(f[0].AsInt(), f[1].AsUint(), response ? f[3] : f[2]);
  }
  EXPECT_EQ(frames, (std::vector<Frame>{
                        {kChunkType, 1, Value(0)},
                        {kChunkType, 1, Value(1)},
                        {kChunkType, 1, Value(2)},
                        {kResponseType, 1, Value("done")},
                        {kResponseType, 2, Value(7)},
                    }));
  pair.b->Close();
  serve_thread.join();
}

TEST(RpcServer, RequestDeadlineOverrunReportedAsError) {
  ServedPair sp;
  ServerOptions options;
  options.request_deadline = 10ms;
  sp.server.SetOptions(options);
  sp.server.Bind("slow", [](const Array&) {
    std::this_thread::sleep_for(50ms);
    return Value(1);
  });
  sp.server.Bind("fast", [](const Array&) { return Value(2); });
  try {
    sp.client->Call("slow");
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
              std::string::npos);
  }
  EXPECT_EQ(sp.client->Call("fast").AsInt(), 2);
  const auto snapshot = sp.server.metrics().Snapshot();
  const obs::MetricSnapshot* exceeded = obs::FindMetric(
      snapshot, "rpc_deadline_exceeded_total{method=slow}");
  ASSERT_NE(exceeded, nullptr);
  EXPECT_DOUBLE_EQ(exceeded->value, 1.0);
}

TEST(TcpRpc, EndToEndOverSockets) {
  Server server;
  server.Bind("mul", [](const Array& p) {
    return Value(p.at(0).AsInt() * p.at(1).AsInt());
  });
  TcpRpcServer tcp_server(server, 0);
  Client client(net::TcpConnect("127.0.0.1", tcp_server.port()));
  EXPECT_EQ(client.Call("mul", Array{Value(6), Value(7)}).AsInt(), 42);
}

TEST(TcpRpc, MultipleClients) {
  Server server;
  server.Bind("id", [](const Array& p) { return p.at(0); });
  TcpRpcServer tcp_server(server, 0);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client(net::TcpConnect("127.0.0.1", tcp_server.port()));
      for (int i = 0; i < 20; ++i) {
        if (client.Call("id", Array{Value(c * 100 + i)}).AsInt() !=
            c * 100 + i) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(), 80u);
}

}  // namespace
}  // namespace vizndp::rpc
