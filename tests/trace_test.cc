// Distributed tracing end to end: context propagation inside the RPC
// frames (both directions backward compatible), clock-aligned merging of
// client / server / wire spans under one trace id, the request-scoped
// event journal, and the "every error path emits exactly one counter and
// one event" audit that DESIGN.md promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "bench_util/testbed.h"
#include "common/error.h"
#include "compress/lz4.h"
#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "ndp/protocol.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace vizndp {
namespace {

using namespace std::chrono_literals;
using bench_util::Testbed;

// Tests here drive the process-global tracer and event log; the guard
// leaves both empty and the tracer disabled for whoever runs next.
struct ObsGuard {
  ObsGuard() {
    obs::GlobalTracer().Enable(false);
    obs::GlobalTracer().Clear();
    obs::GlobalEventLog().Clear();
  }
  ~ObsGuard() {
    obs::GlobalTracer().Enable(false);
    obs::GlobalTracer().Clear();
    obs::GlobalEventLog().Clear();
  }
};

Bytes MakeBrickedImage() {
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(4);
  return writer.Serialize();
}

// Flips one stored byte of a brick the pre-filter must read (its
// [min, max] straddles `iso`), so every re-read sees the same bad data
// and the full recovery ladder runs. Empty result = no such brick.
Bytes CorruptStraddlingBrick(const Bytes& image, double iso) {
  const io::VndHeader header = io::ParseVndHeader(image);
  const io::ArrayMeta* meta = header.Find("v02");
  if (meta == nullptr || !meta->bricks.has_value()) return {};
  Bytes corrupted = image;
  for (const io::BrickEntry& e : meta->bricks->entries) {
    if (e.min < iso && e.max >= iso && e.stored_size > 0) {
      corrupted[static_cast<size_t>(header.blob_base + meta->offset +
                                    e.offset + e.stored_size / 2)] ^= 0xFF;
      return corrupted;
    }
  }
  return {};
}

contour::PolyData CleanBaseline(const Bytes& image, double iso) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  store.Put("data", "t.vnd", image);
  io::VndReader reader(storage::FileGateway(store, "data").Open("t.vnd"));
  const contour::ContourFilter filter(std::vector<double>{iso});
  return filter.Execute(reader.header().dims, reader.header().geometry,
                        reader.ReadArray("v02"));
}

std::vector<obs::DrainedEvent> SpansNamed(
    const std::vector<obs::DrainedEvent>& spans, const std::string& name) {
  std::vector<obs::DrainedEvent> out;
  for (const obs::DrainedEvent& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

std::vector<std::string> EventNames(std::uint64_t trace_id) {
  std::vector<std::string> names;
  for (const obs::LogEvent& e : obs::GlobalEventLog().Events(trace_id)) {
    names.push_back(e.name);
  }
  return names;
}

// ---------------------------------------------------------------------
// Happy path: one sampled in-proc fetch produces a single merged trace —
// client spans, piggybacked server spans, and the two wire legs, all
// parented under the one rpc.attempt span.
// ---------------------------------------------------------------------

TEST(TracePropagation, SampledFetchMergesServerSpansAndWireLegs) {
  ObsGuard guard;
  obs::GlobalTracer().Enable();

  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", MakeBrickedImage());

  grid::UniformGeometry geometry;
  ndp::NdpLoadStats stats;
  testbed.ndp_client().FetchSparseField("t.vnd", "v02", {0.1}, &geometry,
                                        &stats);
  ASSERT_NE(stats.trace_id, 0u);
  EXPECT_FALSE(stats.used_fallback);

  const auto spans = obs::GlobalTracer().Collect(stats.trace_id);
  const auto fetches = SpansNamed(spans, "ndp.fetch");
  const auto partials = SpansNamed(spans, "ndp.partial");
  const auto calls = SpansNamed(spans, "rpc.call:ndp.select");
  const auto attempts = SpansNamed(spans, "rpc.attempt:ndp.select");
  ASSERT_EQ(fetches.size(), 1u);
  ASSERT_EQ(partials.size(), 1u);
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(attempts.size(), 1u);
  // The sharded client reuses the single-server partial-fetch path, so
  // even a lone-server fetch nests its RPC under an `ndp.partial` span
  // (the unit a shard sub-request traces as).
  EXPECT_EQ(partials[0].parent_span_id, fetches[0].span_id);
  EXPECT_EQ(calls[0].parent_span_id, partials[0].span_id);
  EXPECT_EQ(attempts[0].parent_span_id, calls[0].span_id);

  // The server half crossed back on the reply piggyback, already under
  // this trace and parented beneath the attempt that carried it.
  const auto dispatches = SpansNamed(spans, "rpc.dispatch:ndp.select");
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].parent_span_id, attempts[0].span_id);
  EXPECT_EQ(dispatches[0].track, "server");
  EXPECT_EQ(SpansNamed(spans, "ndp.select").size(), 1u);

  const auto wire_req = SpansNamed(spans, "wire:request");
  const auto wire_rep = SpansNamed(spans, "wire:reply");
  ASSERT_EQ(wire_req.size(), 1u);
  ASSERT_EQ(wire_rep.size(), 1u);
  for (const auto& w : {wire_req[0], wire_rep[0]}) {
    EXPECT_EQ(w.track, "wire");
    EXPECT_EQ(w.parent_span_id, attempts[0].span_id);
    EXPECT_NE(w.span_id, 0u);
    EXPECT_LT(w.dur_us, 60'000'000u);  // clamped, never underflowed
  }

  // No span id collides, in particular not across the two processes'
  // counters (both live in this process here, but the ids are salted).
  std::set<std::uint64_t> ids;
  for (const auto& s : spans) {
    EXPECT_NE(s.span_id, 0u);
    EXPECT_TRUE(ids.insert(s.span_id).second) << s.name;
  }

  // A clean fetch makes no decisions worth journaling.
  EXPECT_TRUE(EventNames(stats.trace_id).empty());
}

// ---------------------------------------------------------------------
// The centerpiece choreography: attempt 1 is dropped on the wire,
// attempt 2 is shed by the server's memory budget, attempt 3 hits a
// persistently corrupt brick and the client degrades to the baseline
// path — all under ONE trace id, with three distinct attempt spans, wire
// legs only for the attempts that got replies, and the exact decision
// sequence in the event journal.
// ---------------------------------------------------------------------

TEST(TraceChoreography, FaultyFetchYieldsAttemptSpansWireLegsAndEventSequence) {
  ObsGuard guard;
  obs::GlobalTracer().Enable();

  const Bytes image = MakeBrickedImage();
  const Bytes corrupted = CorruptStraddlingBrick(image, 0.1);
  ASSERT_FALSE(corrupted.empty());
  const contour::PolyData baseline = CleanBaseline(image, 0.1);
  ASSERT_GT(baseline.TriangleCount(), 0u);

  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", corrupted);
  storage::MemoryObjectStore good_store;
  good_store.CreateBucket("data");
  good_store.Put("data", "t.vnd", image);

  auto faulty = std::make_unique<net::FaultInjectingTransport>(
      testbed.ConnectToServer());
  auto* faults = faulty.get();
  auto rpc_client = std::make_shared<rpc::Client>(std::move(faulty));
  obs::Registry client_metrics;
  rpc_client->SetMetrics(&client_metrics);
  ndp::NdpClientOptions options;
  options.call_timeout = 300ms;
  options.retry.max_attempts = 3;
  options.retry.base_delay = 50ms;
  options.retry.jitter = 0.0;
  auto ndp_client =
      std::make_shared<ndp::NdpClient>(rpc_client, "data", options);

  // Attempt 1 vanishes on the wire; 2 and 3 go through.
  faults->ScriptSend({net::FaultAction::Drop(), net::FaultAction::Pass(),
                      net::FaultAction::Pass()});
  // Attempt 2 is shed: a 1-byte budget rejects any ndp.select
  // reservation. The watcher lifts the limit the moment the shed lands
  // in the journal, well inside the 100 ms backoff before attempt 3.
  testbed.rpc_server().memory_budget().SetLimit(1);
  std::thread watcher([&testbed] {
    for (int i = 0; i < 40'000; ++i) {
      for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
        if (e.name == "rpc.shed") {
          testbed.rpc_server().memory_budget().SetLimit(0);
          return;
        }
      }
      std::this_thread::sleep_for(500us);
    }
  });

  ndp::NdpContourSource source(ndp_client, "t.vnd", "v02", {0.1});
  source.SetFallback(storage::FileGateway(good_store, "data"));
  const contour::PolyData& poly = source.UpdateAndGetOutput()->AsPolyData();
  watcher.join();

  const ndp::NdpLoadStats& stats = source.last_stats();
  EXPECT_TRUE(stats.used_fallback);
  ASSERT_NE(stats.trace_id, 0u);
  EXPECT_TRUE(poly.GeometricallyEquals(baseline, 0.0));

  // The journal holds the request's complete decision sequence, in order.
  const std::vector<std::string> expected = {
      "rpc.timeout",          // attempt 1 never answered
      "rpc.retry",            // -> attempt 2
      "rpc.shed",             // server: budget rejected the reservation
      "rpc.busy",             // client saw the retryable busy reply
      "rpc.retry",            // -> attempt 3
      "ndp.corrupt_brick",    // brick CRC mismatch
      "ndp.brick_reread",     // re-read saw the same bytes
      "rpc.corrupt_reply",    // brick still corrupt: typed error out
      "ndp.fallback",         // client degraded to the baseline read
  };
  EXPECT_EQ(EventNames(stats.trace_id), expected);
  const auto events = obs::GlobalEventLog().Events(stats.trace_id);
  ASSERT_EQ(events.size(), expected.size());
  EXPECT_EQ(events[0].detail, "method=ndp.select attempt=1");
  EXPECT_EQ(events[2].detail, "reason=budget method=ndp.select");
  EXPECT_EQ(events[4].detail, "method=ndp.select attempt=3");
  EXPECT_EQ(events[8].detail, "key=t.vnd");

  // Three distinct attempt spans under one rpc.call span.
  const auto spans = obs::GlobalTracer().Collect(stats.trace_id);
  const auto calls = SpansNamed(spans, "rpc.call:ndp.select");
  ASSERT_EQ(calls.size(), 1u);
  auto attempts = SpansNamed(spans, "rpc.attempt:ndp.select");
  ASSERT_EQ(attempts.size(), 3u);
  std::sort(attempts.begin(), attempts.end(),
            [](const auto& a, const auto& b) { return a.start_us < b.start_us; });
  std::set<std::uint64_t> attempt_ids;
  for (const auto& a : attempts) {
    EXPECT_EQ(a.parent_span_id, calls[0].span_id);
    EXPECT_NE(a.span_id, 0u);
    attempt_ids.insert(a.span_id);
  }
  EXPECT_EQ(attempt_ids.size(), 3u);
  EXPECT_EQ(SpansNamed(spans, "net.backoff").size(), 2u);

  // Wire legs exist only for the attempts that produced replies (2 and
  // 3 — the dropped attempt has no server half), and they never clamp
  // below zero into a bogus huge duration.
  const std::set<std::uint64_t> replied = {attempts[1].span_id,
                                           attempts[2].span_id};
  for (const char* leg : {"wire:request", "wire:reply"}) {
    const auto wires = SpansNamed(spans, leg);
    ASSERT_EQ(wires.size(), 2u) << leg;
    std::set<std::uint64_t> parents;
    for (const auto& w : wires) {
      EXPECT_EQ(w.track, "wire");
      EXPECT_LT(w.dur_us, 60'000'000u);
      parents.insert(w.parent_span_id);
    }
    EXPECT_EQ(parents, replied) << leg;
  }
  const auto dispatches = SpansNamed(spans, "rpc.dispatch:ndp.select");
  ASSERT_EQ(dispatches.size(), 2u);
  for (const auto& d : dispatches) {
    EXPECT_TRUE(replied.count(d.parent_span_id)) << "dispatch parent";
  }

  // Counters agree with the journal.
  EXPECT_EQ(client_metrics
                .GetCounter("rpc_timeouts_total", {{"method", "ndp.select"}})
                .value(),
            1u);
  EXPECT_EQ(client_metrics
                .GetCounter("rpc_busy_total", {{"method", "ndp.select"}})
                .value(),
            1u);
  EXPECT_EQ(client_metrics
                .GetCounter("rpc_retries_total", {{"method", "ndp.select"}})
                .value(),
            2u);

  // The merged timeline exports exactly what `vizndp_tool fetch
  // --trace` writes: all three tracks plus this trace's id.
  const std::string json = obs::GlobalTracer().ChromeJson();
  for (const char* track : {"client", "server", "wire"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(track) + "\""),
              std::string::npos)
        << track;
  }
  EXPECT_NE(json.find(obs::TraceIdHex(stats.trace_id)), std::string::npos);
}

// ---------------------------------------------------------------------
// Frame compatibility, both directions.
// ---------------------------------------------------------------------

Bytes EncodeRequestFrame(msgpack::Array fields) {
  return msgpack::Encode(msgpack::Value(std::move(fields)));
}

TEST(TraceCompat, OldClientFourElementFrameGetsFourElementReply) {
  ObsGuard guard;
  rpc::Server server;
  server.Bind("echo", [](const msgpack::Array& params) {
    return params.empty() ? msgpack::Value() : params[0];
  });

  msgpack::Array req;
  req.emplace_back(rpc::kRequestType);
  req.emplace_back(std::uint64_t{7});
  req.emplace_back("echo");
  req.emplace_back(msgpack::Array{msgpack::Value("hi")});
  const Bytes reply = server.Dispatch(EncodeRequestFrame(std::move(req)));

  const msgpack::Value decoded = msgpack::Decode(reply);
  const auto& fields = decoded.As<msgpack::Array>();
  ASSERT_EQ(fields.size(), 4u);  // untraced request -> no piggyback
  EXPECT_EQ(fields[0].AsInt(), rpc::kResponseType);
  EXPECT_EQ(fields[1].AsUint(), 7u);
  EXPECT_TRUE(fields[2].IsNil());
  EXPECT_EQ(fields[3].As<std::string>(), "hi");
}

TEST(TraceCompat, TracedRequestGetsPiggybackAndMalformedCtxIsTolerated) {
  ObsGuard guard;
  rpc::Server server;
  server.Bind("echo", [](const msgpack::Array& params) {
    return params.empty() ? msgpack::Value() : params[0];
  });

  auto base_request = [] {
    msgpack::Array req;
    req.emplace_back(rpc::kRequestType);
    req.emplace_back(std::uint64_t{9});
    req.emplace_back("echo");
    req.emplace_back(msgpack::Array{msgpack::Value("x")});
    return req;
  };

  // Well-formed ctx map: the reply grows the piggyback 5th element with
  // the server's receive/send clocks (spans stay empty — tracer is off).
  msgpack::Array traced = base_request();
  msgpack::Map ctx;
  ctx.emplace_back(msgpack::Value(rpc::kCtxTraceIdKey),
                   msgpack::Value(std::uint64_t{0xABCD}));
  ctx.emplace_back(msgpack::Value(rpc::kCtxSpanIdKey),
                   msgpack::Value(std::uint64_t{11}));
  traced.emplace_back(std::move(ctx));
  const msgpack::Value traced_reply =
      msgpack::Decode(server.Dispatch(EncodeRequestFrame(std::move(traced))));
  const auto& traced_fields = traced_reply.As<msgpack::Array>();
  ASSERT_EQ(traced_fields.size(), 5u);
  const msgpack::Value& piggyback = traced_fields[4];
  ASSERT_TRUE(piggyback.Is<msgpack::Map>());
  ASSERT_NE(piggyback.Find(rpc::kPiggybackRecvKey), nullptr);
  ASSERT_NE(piggyback.Find(rpc::kPiggybackSendKey), nullptr);
  EXPECT_LE(piggyback.Find(rpc::kPiggybackRecvKey)->AsUint(),
            piggyback.Find(rpc::kPiggybackSendKey)->AsUint());

  // A malformed 5th element degrades to untraced, not to a failed call.
  msgpack::Array garbage_ctx = base_request();
  garbage_ctx.emplace_back(std::int64_t{42});
  const msgpack::Value garbage_reply = msgpack::Decode(
      server.Dispatch(EncodeRequestFrame(std::move(garbage_ctx))));
  const auto& garbage_fields = garbage_reply.As<msgpack::Array>();
  ASSERT_EQ(garbage_fields.size(), 4u);
  EXPECT_TRUE(garbage_fields[2].IsNil());
  EXPECT_EQ(garbage_fields[3].As<std::string>(), "x");
}

TEST(TraceCompat, NewClientCompletesAgainstOldServerWithoutPiggyback) {
  ObsGuard guard;
  obs::GlobalTracer().Enable();

  net::TransportPair pair = net::CreateInProcPair();
  std::atomic<size_t> seen_arity{0};
  std::atomic<std::uint64_t> seen_trace{0};
  // An "old server": accepts the request, replies with the pre-tracing
  // 4-element shape — no piggyback element at all.
  std::thread old_server([&, transport = std::move(pair.b)]() mutable {
    const Bytes frame = transport->Receive();
    const msgpack::Value request = msgpack::Decode(frame);
    const auto& fields = request.As<msgpack::Array>();
    seen_arity = fields.size();
    if (fields.size() >= 5 && fields[4].Is<msgpack::Map>()) {
      seen_trace = fields[4].At(rpc::kCtxTraceIdKey).AsUint();
    }
    msgpack::Array response;
    response.emplace_back(rpc::kResponseType);
    response.emplace_back(fields[1]);
    response.emplace_back(msgpack::Value());  // nil error
    response.emplace_back(std::uint64_t{42});
    transport->Send(msgpack::Encode(msgpack::Value(std::move(response))));
  });

  rpc::Client client(std::move(pair.a));
  const obs::TraceContext root = obs::TraceContext::Mint(/*sampled=*/true);
  std::uint64_t result = 0;
  {
    obs::ScopedTraceContext scope(root);
    result = client
                 .Call("answer", {}, rpc::CallOptions{5000ms, false})
                 .AsUint();
  }
  old_server.join();

  EXPECT_EQ(result, 42u);
  // The new client did attach its ctx (5-element frame)...
  EXPECT_EQ(seen_arity.load(), 5u);
  EXPECT_EQ(seen_trace.load(), root.trace_id);
  // ...and a piggyback-less reply degrades cleanly: the call span and
  // attempt span exist, but no wire pseudo-spans were fabricated.
  const auto spans = obs::GlobalTracer().Collect(root.trace_id);
  EXPECT_EQ(SpansNamed(spans, "rpc.call:answer").size(), 1u);
  EXPECT_EQ(SpansNamed(spans, "rpc.attempt:answer").size(), 1u);
  for (const auto& s : spans) {
    EXPECT_FALSE(s.name.starts_with("wire:")) << s.name;
  }
}

// ---------------------------------------------------------------------
// ndp.health: the in-flight table names the running handler and its
// trace id; budget numbers pass through.
// ---------------------------------------------------------------------

TEST(TraceHealth, InflightTableNamesBlockedHandlerWithItsTraceId) {
  ObsGuard guard;
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  store.Put("data", "t.vnd", MakeBrickedImage());

  rpc::Server server;
  ndp::NdpServer ndp_server{storage::FileGateway(store, "data")};
  ndp_server.SetMemoryBudget(&server.memory_budget());
  ndp_server.Bind(server);
  server.memory_budget().SetLimit(1u << 20);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Bind("test.block", [&](const msgpack::Array&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return msgpack::Value(std::uint64_t{1});
  });

  net::TransportPair p1 = net::CreateInProcPair();
  net::TransportPair p2 = net::CreateInProcPair();
  std::thread s1([&, t = std::move(p1.b)] { server.ServeTransport(*t); });
  std::thread s2([&, t = std::move(p2.b)] { server.ServeTransport(*t); });

  std::uint64_t blocked_trace = 0;
  std::thread caller([&, transport = std::move(p1.a)]() mutable {
    const obs::TraceContext root = obs::TraceContext::Mint(/*sampled=*/true);
    obs::ScopedTraceContext scope(root);
    blocked_trace = root.trace_id;
    rpc::Client blocked(std::move(transport));
    blocked.Call("test.block", {}, rpc::CallOptions{10'000ms, false});
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  {
    ndp::NdpClient ndp(std::make_shared<rpc::Client>(std::move(p2.a)), "data");
    const ndp::NdpClient::HealthReport health = ndp.Health();
    EXPECT_FALSE(health.draining);
    EXPECT_GE(health.inflight, 1);
    EXPECT_EQ(health.mem_limit, 1u << 20);
    EXPECT_EQ(health.mem_in_use, 0u);
    bool found = false;
    for (const auto& r : health.requests) {
      if (r.method != "test.block") continue;
      found = true;
      EXPECT_EQ(r.trace_id, blocked_trace);
    }
    EXPECT_TRUE(found) << "blocked handler missing from inflight table";

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    caller.join();
  }
  s1.join();
  s2.join();
}

// ---------------------------------------------------------------------
// Error-path audit: every failure path increments exactly one counter
// and journals exactly one event — no silent paths, no double counting.
// ---------------------------------------------------------------------

// One isolated client/server pair with a scriptable wire. Fresh per
// case, so counters and the journal start from zero-ish deltas.
struct AuditRig {
  storage::MemoryObjectStore store;
  rpc::Server server;
  std::unique_ptr<ndp::NdpServer> ndp_server;
  net::TransportPair pair;
  std::thread serve;
  net::FaultInjectingTransport* faults = nullptr;
  obs::Registry client_metrics;
  std::shared_ptr<rpc::Client> rpc;
  std::shared_ptr<ndp::NdpClient> ndp;

  explicit AuditRig(const Bytes& image, int max_attempts = 1) {
    store.CreateBucket("data");
    store.Put("data", "t.vnd", image);
    ndp_server =
        std::make_unique<ndp::NdpServer>(storage::FileGateway(store, "data"));
    ndp_server->SetMemoryBudget(&server.memory_budget());
    ndp_server->Bind(server);
    pair = net::CreateInProcPair();
    serve = std::thread([this] { server.ServeTransport(*pair.b); });
    auto faulty =
        std::make_unique<net::FaultInjectingTransport>(std::move(pair.a));
    faults = faulty.get();
    rpc = std::make_shared<rpc::Client>(std::move(faulty));
    rpc->SetMetrics(&client_metrics);
    ndp::NdpClientOptions options;
    options.call_timeout = std::chrono::milliseconds(200);
    options.retry.max_attempts = max_attempts;
    options.retry.base_delay = std::chrono::microseconds(500);
    options.retry.jitter = 0.0;
    ndp = std::make_shared<ndp::NdpClient>(rpc, "data", options);
  }

  ~AuditRig() {
    ndp.reset();
    rpc.reset();
    serve.join();
  }
};

using CounterReads =
    std::vector<std::pair<std::string, std::function<std::uint64_t()>>>;

struct AuditCase {
  const char* name;
  bool corrupt_image;
  int attempts;
  std::function<void(AuditRig&)> arm;      // scripts faults / budget
  std::function<void(AuditRig&)> trigger;  // performs + asserts the call
  // Counters that must each advance by exactly one.
  std::function<CounterReads(AuditRig&)> counters;
  // Exact multiset of events the trigger may journal.
  std::vector<std::string> events;
};

TEST(TraceAudit, EveryErrorPathEmitsOneCounterAndOneEvent) {
  ObsGuard guard;
  const Bytes clean = MakeBrickedImage();
  const Bytes corrupt = CorruptStraddlingBrick(clean, 0.1);
  ASSERT_FALSE(corrupt.empty());

  auto global = [](const char* name) {
    return [name] {
      return obs::DefaultRegistry().GetCounter(name).value();
    };
  };

  const std::vector<AuditCase> cases = {
      {"client timeout", false, 1,
       [](AuditRig& rig) {
         rig.faults->ScriptSend({net::FaultAction::Drop()});
       },
       [](AuditRig& rig) {
         EXPECT_THROW(rig.ndp->Stats("t.vnd", "v02"), TimeoutError);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_timeouts_total",
                  [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_timeouts_total",
                                    {{"method", "ndp.stats"}})
                        .value();
                  }}};
       },
       {"rpc.timeout"}},

      {"retry then success", false, 2,
       [](AuditRig& rig) {
         rig.faults->ScriptSend(
             {net::FaultAction::Drop(), net::FaultAction::Pass()});
       },
       [](AuditRig& rig) {
         EXPECT_EQ(rig.ndp->Stats("t.vnd", "v02").count, 16u * 16u * 16u);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_timeouts_total",
                  [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_timeouts_total",
                                    {{"method", "ndp.stats"}})
                        .value();
                  }},
                 {"rpc_retries_total", [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_retries_total",
                                    {{"method", "ndp.stats"}})
                        .value();
                  }}};
       },
       {"rpc.timeout", "rpc.retry"}},

      {"budget shed", false, 1,
       [](AuditRig& rig) { rig.server.memory_budget().SetLimit(1); },
       [](AuditRig& rig) {
         EXPECT_THROW(rig.ndp->Contour("t.vnd", "v02", {0.1}), BusyError);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_busy_total",
                  [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_busy_total",
                                    {{"method", "ndp.select"}})
                        .value();
                  }},
                 {"rpc_busy_rejected_total", [&rig] {
                    return rig.server.metrics()
                        .GetCounter("rpc_busy_rejected_total")
                        .value();
                  }}};
       },
       {"rpc.shed", "rpc.busy"}},

      {"transport death", false, 1,
       [](AuditRig& rig) {
         rig.faults->ScriptSend({net::FaultAction::Disconnect()});
       },
       [](AuditRig& rig) {
         EXPECT_THROW(rig.ndp->Stats("t.vnd", "v02"), PeerClosedError);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_transport_errors_total", [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_transport_errors_total",
                                    {{"method", "ndp.stats"}})
                        .value();
                  }}};
       },
       {"rpc.transport_error"}},

      {"stale duplicated reply", false, 1,
       [](AuditRig& rig) {
         rig.faults->ScriptReceive({net::FaultAction::Duplicate()});
       },
       [](AuditRig& rig) {
         // Call 1's reply arrives twice; call 2 must skip the leftover.
         EXPECT_EQ(rig.ndp->Stats("t.vnd", "v02").count, 16u * 16u * 16u);
         EXPECT_EQ(rig.ndp->Stats("t.vnd", "v02").count, 16u * 16u * 16u);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_stale_replies_total", [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_stale_replies_total")
                        .value();
                  }}};
       },
       {"rpc.stale_reply"}},

      {"unknown method", false, 1, nullptr,
       [](AuditRig& rig) {
         EXPECT_THROW(rig.rpc->Call("no.such.method", {},
                                    rpc::CallOptions{200ms, true}),
                      RpcError);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_unknown_method_total", [&rig] {
                    return rig.server.metrics()
                        .GetCounter("rpc_unknown_method_total")
                        .value();
                  }}};
       },
       {"rpc.unknown_method"}},

      {"handler error", false, 1, nullptr,
       [](AuditRig& rig) {
         EXPECT_THROW(rig.ndp->Stats("t.vnd", "no_such_array"), RpcError);
       },
       [](AuditRig& rig) -> CounterReads {
         return {{"rpc_errors_total", [&rig] {
                    return rig.server.metrics()
                        .GetCounter("rpc_errors_total",
                                    {{"method", "ndp.stats"}})
                        .value();
                  }}};
       },
       {"rpc.handler_error"}},

      {"persistent corruption ladder", true, 1, nullptr,
       [](AuditRig& rig) {
         EXPECT_THROW(rig.ndp->Contour("t.vnd", "v02", {0.1}),
                      CorruptDataError);
       },
       [global](AuditRig& rig) -> CounterReads {
         return {{"corrupt_brick_total", global("corrupt_brick_total")},
                 {"brick_reread_total", global("brick_reread_total")},
                 {"rpc_errors_total", [&rig] {
                    return rig.server.metrics()
                        .GetCounter("rpc_errors_total",
                                    {{"method", "ndp.select"}})
                        .value();
                  }}};
       },
       {"ndp.corrupt_brick", "ndp.brick_reread", "rpc.corrupt_reply"}},

      {"baseline fallback", false, 1,
       [](AuditRig& rig) {
         rig.faults->ScriptSend({net::FaultAction::Drop()},
                                /*loop_last=*/true);
       },
       [](AuditRig& rig) {
         ndp::NdpContourSource source(rig.ndp, "t.vnd", "v02", {0.1});
         source.SetFallback(storage::FileGateway(rig.store, "data"));
         source.UpdateAndGetOutput();
         EXPECT_TRUE(source.last_stats().used_fallback);
       },
       [global](AuditRig& rig) -> CounterReads {
         return {{"ndp_fallback_total", global("ndp_fallback_total")},
                 {"rpc_timeouts_total", [&rig] {
                    return rig.client_metrics
                        .GetCounter("rpc_timeouts_total",
                                    {{"method", "ndp.select"}})
                        .value();
                  }}};
       },
       {"rpc.timeout", "ndp.fallback"}},
  };

  for (const AuditCase& c : cases) {
    SCOPED_TRACE(c.name);
    obs::GlobalEventLog().Clear();
    AuditRig rig(c.corrupt_image ? corrupt : clean, c.attempts);
    if (c.arm) c.arm(rig);
    const CounterReads counters = c.counters(rig);
    std::vector<std::uint64_t> before;
    before.reserve(counters.size());
    for (const auto& [label, read] : counters) before.push_back(read());

    c.trigger(rig);

    std::vector<std::string> got;
    for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
      got.push_back(e.name);
    }
    std::vector<std::string> want = c.events;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    for (size_t i = 0; i < counters.size(); ++i) {
      EXPECT_EQ(counters[i].second() - before[i], 1u) << counters[i].first;
    }
  }
}

// The three server-local paths the table's client rig cannot reach:
// oversize frames, undecodable frames, and handler deadline overruns.

size_t CountEvents(const char* name) {
  size_t n = 0;
  for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
    n += e.name == name ? 1 : 0;
  }
  return n;
}

TEST(TraceAudit, OversizeFrameIsCountedAndDropsTheConnection) {
  ObsGuard guard;
  rpc::Server server;
  rpc::ServerOptions options;
  options.max_frame_bytes = 64;
  server.SetOptions(options);
  server.Bind("echo", [](const msgpack::Array& p) {
    return p.empty() ? msgpack::Value() : p[0];
  });
  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve([&, t = std::move(pair.b)] { server.ServeTransport(*t); });

  msgpack::Array req;
  req.emplace_back(rpc::kRequestType);
  req.emplace_back(std::uint64_t{1});
  req.emplace_back("echo");
  req.emplace_back(msgpack::Array{msgpack::Value(std::string(200, 'z'))});
  pair.a->Send(EncodeRequestFrame(std::move(req)));
  serve.join();  // the poisoned connection is dropped, not served

  EXPECT_EQ(server.metrics().GetCounter("rpc_oversize_frames_total").value(),
            1u);
  EXPECT_EQ(CountEvents("rpc.oversize_frame"), 1u);
}

TEST(TraceAudit, MalformedFrameIsCountedAndDropsTheConnection) {
  ObsGuard guard;
  rpc::Server server;
  server.Bind("echo", [](const msgpack::Array& p) {
    return p.empty() ? msgpack::Value() : p[0];
  });
  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve([&, t = std::move(pair.b)] { server.ServeTransport(*t); });

  const Bytes garbage = {Byte{0xc1}, Byte{0xff}, Byte{0x00}};
  pair.a->Send(garbage);
  serve.join();

  EXPECT_EQ(server.metrics().GetCounter("rpc_malformed_frames_total").value(),
            1u);
  EXPECT_EQ(CountEvents("rpc.malformed_frame"), 1u);
}

TEST(TraceAudit, HandlerDeadlineOverrunIsCountedAndReported) {
  ObsGuard guard;
  rpc::Server server;
  rpc::ServerOptions options;
  options.request_deadline = std::chrono::milliseconds(1);
  server.SetOptions(options);
  server.Bind("slow", [](const msgpack::Array&) {
    std::this_thread::sleep_for(20ms);
    return msgpack::Value(std::uint64_t{1});
  });

  msgpack::Array req;
  req.emplace_back(rpc::kRequestType);
  req.emplace_back(std::uint64_t{1});
  req.emplace_back("slow");
  req.emplace_back(msgpack::Array{});
  const msgpack::Value reply =
      msgpack::Decode(server.Dispatch(EncodeRequestFrame(std::move(req))));
  const auto& fields = reply.As<msgpack::Array>();
  ASSERT_GE(fields.size(), 4u);
  ASSERT_FALSE(fields[2].IsNil());
  EXPECT_NE(fields[2].As<std::string>().find("deadline exceeded"),
            std::string::npos);
  EXPECT_EQ(server.metrics()
                .GetCounter("rpc_deadline_exceeded_total",
                            {{"method", "slow"}})
                .value(),
            1u);
  EXPECT_EQ(CountEvents("rpc.deadline"), 1u);
}

TEST(TraceAudit, DrainTimeoutIsCountedAndReported) {
  ObsGuard guard;
  rpc::Server server;
  rpc::ServerOptions options;
  options.drain_deadline = std::chrono::milliseconds(50);
  server.SetOptions(options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Bind("block", [&](const msgpack::Array&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return msgpack::Value(std::uint64_t{1});
  });

  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve([&, t = std::move(pair.b)] { server.ServeTransport(*t); });
  std::thread caller([&, t = std::move(pair.a)]() mutable {
    rpc::Client client(std::move(t));
    try {
      client.Call("block", {}, rpc::CallOptions{2000ms, false});
    } catch (const Error&) {
      // The reply may be lost to the stopping server; only the drain
      // accounting matters here.
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  EXPECT_FALSE(server.Stop());  // handler still running past the deadline
  EXPECT_EQ(server.metrics().GetCounter("rpc_drain_timeouts_total").value(),
            1u);
  EXPECT_EQ(CountEvents("rpc.drain_timeout"), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  caller.join();
  serve.join();
}

}  // namespace
}  // namespace vizndp
