// Storage-fault tolerance: the injectable store-fault decorator, the
// typed transient/permanent I/O error split, the gateway retry ladder,
// and the RPC wire typing that carries I/O errors across nodes.
#include <gtest/gtest.h>

#include <thread>

#include "net/inproc.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "storage/fault_store.h"
#include "storage/file_gateway.h"
#include "storage/memory_store.h"
#include "storage/remote_store.h"
#include "storage/store_rpc.h"

namespace vizndp::storage {
namespace {

std::uint64_t Counter(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

struct Fixture {
  MemoryObjectStore inner;
  FaultInjectingStore store{inner};

  Fixture() {
    inner.CreateBucket("b");
    Bytes data(4096);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<Byte>(i);
    inner.Put("b", "k", data);
  }
};

// ---------------------------------------------------------------- spec

TEST(StoreFaultSpec, ParsesCompactGrammar) {
  const auto entries =
      ParseStoreFaultSpec("read.eio*2,get.fatal,any.delay=5000*3,put.flip=7");
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].op, StoreOp::kRead);
  ASSERT_EQ(entries[0].script.size(), 2u);
  EXPECT_EQ(entries[0].script[0].kind, StoreFaultKind::kEio);
  EXPECT_EQ(entries[1].op, StoreOp::kGet);
  EXPECT_EQ(entries[1].script[0].kind, StoreFaultKind::kFatal);
  EXPECT_EQ(entries[2].op, StoreOp::kAny);
  ASSERT_EQ(entries[2].script.size(), 3u);
  EXPECT_EQ(entries[2].script[0].delay.count(), 5000);
  EXPECT_EQ(entries[3].op, StoreOp::kPut);
  EXPECT_EQ(entries[3].script[0].flip_bit, 7u);
  // The suffixes read the same in either order.
  const auto swapped = ParseStoreFaultSpec("any.delay*3=5000");
  ASSERT_EQ(swapped.size(), 1u);
  ASSERT_EQ(swapped[0].script.size(), 3u);
  for (const StoreFaultAction& action : swapped[0].script) {
    EXPECT_EQ(action.kind, StoreFaultKind::kDelay);
    EXPECT_EQ(action.delay.count(), 5000);
  }
}

TEST(StoreFaultSpec, TrailingPlusLoops) {
  const auto entries = ParseStoreFaultSpec("stat.lie=-3+");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].loop_last);
  EXPECT_EQ(entries[0].script[0].stat_delta, -3);
}

TEST(StoreFaultSpec, RejectsMalformed) {
  EXPECT_THROW(ParseStoreFaultSpec("bogus.eio"), Error);
  EXPECT_THROW(ParseStoreFaultSpec("read.unknownaction"), Error);
  EXPECT_THROW(ParseStoreFaultSpec("read"), Error);
  EXPECT_THROW(ParseStoreFaultSpec("read.eio*0"), Error);  // count >= 1
  // A number must be its whole token.
  EXPECT_THROW(ParseStoreFaultSpec("read.short=abc"), Error);
  EXPECT_THROW(ParseStoreFaultSpec("read.eio*2x"), Error);
}

// ----------------------------------------------------------- decorator

TEST(FaultInjectingStore, EioIsTransientThenHeals) {
  Fixture fx;
  fx.store.Script(StoreOp::kGet, {StoreFaultAction::Eio()});
  EXPECT_THROW(fx.store.Get("b", "k"), TransientIoError);
  EXPECT_EQ(fx.store.Get("b", "k"), fx.inner.Get("b", "k"));
  EXPECT_EQ(fx.store.stats().eios, 1u);
}

TEST(FaultInjectingStore, FatalIsPermanent) {
  Fixture fx;
  fx.store.Script(StoreOp::kGet, {StoreFaultAction::Fatal()});
  try {
    fx.store.Get("b", "k");
    FAIL() << "expected IoError";
  } catch (const TransientIoError&) {
    FAIL() << "fatal must not be transient";
  } catch (const IoError&) {
  }
}

TEST(FaultInjectingStore, ShortReadTruncates) {
  Fixture fx;
  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Short(10)});
  EXPECT_EQ(fx.store.Get("b", "k").size(), 10u);
  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Short(3)});
  EXPECT_EQ(fx.store.GetRange("b", "k", 0, 100).size(), 3u);
}

TEST(FaultInjectingStore, FlipOnReadLeavesStoreClean) {
  Fixture fx;
  fx.store.Script(StoreOp::kGet, {StoreFaultAction::Flip(12345)});
  const Bytes truth = fx.inner.Get("b", "k");
  const Bytes seen = fx.store.Get("b", "k");
  EXPECT_NE(seen, truth);  // exactly one bit differs
  int diff_bits = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    diff_bits += __builtin_popcount(truth[i] ^ seen[i]);
  }
  EXPECT_EQ(diff_bits, 1);
  EXPECT_EQ(fx.inner.Get("b", "k"), truth);  // rot was in flight, not at rest
}

TEST(FaultInjectingStore, FlipOnPutRotsAtRest) {
  Fixture fx;
  const Bytes clean = ToBytes("payload to rot");
  fx.store.Script(StoreOp::kPut, {StoreFaultAction::Flip(9)});
  fx.store.Put("b", "rotted", clean);
  const Bytes stored = fx.inner.Get("b", "rotted");
  EXPECT_NE(stored, clean);
  EXPECT_EQ(stored.size(), clean.size());
  // Subsequent un-faulted reads faithfully return the rotted bytes —
  // that is what "at rest" means.
  EXPECT_EQ(fx.store.Get("b", "rotted"), stored);
}

TEST(FaultInjectingStore, StatLiesByDelta) {
  Fixture fx;
  const std::uint64_t truth = fx.inner.Stat("b", "k").size;
  fx.store.Script(StoreOp::kStat, {StoreFaultAction::StatLie(100)});
  EXPECT_EQ(fx.store.Stat("b", "k").size, truth + 100);
  EXPECT_EQ(fx.store.Stat("b", "k").size, truth);  // script drained
}

TEST(FaultInjectingStore, ChannelPriorityExactThenReadThenAny) {
  Fixture fx;
  fx.store.Script(StoreOp::kGet, {StoreFaultAction::Eio()});
  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Short(1)});
  fx.store.Script(StoreOp::kAny, {StoreFaultAction::Fatal()});
  // Get consults its exact channel first...
  EXPECT_THROW(fx.store.Get("b", "k"), TransientIoError);
  // ...then falls to the read channel...
  EXPECT_EQ(fx.store.Get("b", "k").size(), 1u);
  // ...then to any.
  EXPECT_THROW(fx.store.Get("b", "k"), IoError);
  // Stat never matches read; with every script gone it passes through.
  EXPECT_NO_THROW(fx.store.Stat("b", "k"));
}

TEST(FaultInjectingStore, LoopLastRepeatsForever) {
  Fixture fx;
  fx.store.Script(StoreOp::kGet, {StoreFaultAction::Eio()},
                  /*loop_last=*/true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(fx.store.Get("b", "k"), TransientIoError);
  }
  fx.store.ClearFaults();
  EXPECT_NO_THROW(fx.store.Get("b", "k"));
}

TEST(FaultInjectingStore, RandomMixIsSeededAndReadOnly) {
  Fixture fx;
  StoreFaultProbabilities probabilities;
  probabilities.eio = 1.0;
  probabilities.seed = 7;
  fx.store.SetRandomFaults(probabilities);
  EXPECT_THROW(fx.store.Get("b", "k"), TransientIoError);
  EXPECT_THROW(fx.store.GetRange("b", "k", 0, 8), TransientIoError);
  EXPECT_NO_THROW(fx.store.Stat("b", "k"));  // mix applies to reads only
  EXPECT_NO_THROW(fx.store.Put("b", "k2", ToBytes("x")));
  fx.store.ClearFaults();
  EXPECT_NO_THROW(fx.store.Get("b", "k"));
}

TEST(FaultInjectingStore, BucketManagementPassesThrough) {
  Fixture fx;
  fx.store.Script(StoreOp::kAny, {StoreFaultAction::Fatal()},
                  /*loop_last=*/true);
  EXPECT_NO_THROW(fx.store.CreateBucket("setup"));
  EXPECT_TRUE(fx.store.BucketExists("setup"));
  EXPECT_TRUE(fx.store.Exists("b", "k"));
  EXPECT_NO_THROW(fx.store.List("b", ""));
  EXPECT_NO_THROW(fx.store.Delete("b", "k"));
}

TEST(FaultInjectingStore, ApplySpecScriptsChannels) {
  Fixture fx;
  ApplyStoreFaultSpec(fx.store, "read.eio*2");
  EXPECT_THROW(fx.store.Get("b", "k"), TransientIoError);
  EXPECT_THROW(fx.store.GetRange("b", "k", 0, 4), TransientIoError);
  EXPECT_NO_THROW(fx.store.Get("b", "k"));
}

// -------------------------------------------------------- retry ladder

net::RetryPolicy FastRetry(int attempts) {
  net::RetryPolicy retry = DefaultStoreRetryPolicy();
  retry.max_attempts = attempts;
  retry.base_delay = std::chrono::microseconds(50);
  retry.max_delay = std::chrono::microseconds(200);
  return retry;
}

TEST(GatewayRetry, TransientEioHealsInPlace) {
  Fixture fx;
  FileGateway gateway(fx.store, "b", FastRetry(3));
  const std::uint64_t retries_before = Counter("store_retry_total");
  const std::uint64_t errors_before = Counter("store_io_error_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Eio(),
                                   StoreFaultAction::Eio()});
  const GatewayFile file = gateway.Open("k");
  EXPECT_EQ(file.ReadAt(0, 16), fx.inner.GetRange("b", "k", 0, 16));

  EXPECT_EQ(Counter("store_retry_total"), retries_before + 2);
  EXPECT_EQ(Counter("store_io_error_total"), errors_before);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("store.retry", seq), 2u);
}

TEST(GatewayRetry, ExhaustedLadderSurfacesTransient) {
  Fixture fx;
  FileGateway gateway(fx.store, "b", FastRetry(3));
  const GatewayFile file = gateway.Open("k");
  const std::uint64_t errors_before = Counter("store_io_error_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Eio()},
                  /*loop_last=*/true);
  EXPECT_THROW(file.ReadAt(0, 16), TransientIoError);
  fx.store.ClearFaults();

  EXPECT_EQ(Counter("store_io_error_total"), errors_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("store.io_error", seq), 1u);
}

TEST(GatewayRetry, PermanentErrorNeverRetried) {
  Fixture fx;
  FileGateway gateway(fx.store, "b", FastRetry(5));
  const GatewayFile file = gateway.Open("k");
  const std::uint64_t retries_before = Counter("store_retry_total");
  const std::uint64_t ops_before = fx.store.stats().ops;

  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Fatal()},
                  /*loop_last=*/true);
  EXPECT_THROW(file.ReadAt(0, 16), IoError);
  fx.store.ClearFaults();

  // One attempt, zero retries: a dead device is not worth a ladder.
  EXPECT_EQ(Counter("store_retry_total"), retries_before);
  EXPECT_EQ(fx.store.stats().ops, ops_before + 1);
}

TEST(GatewayRetry, ShortReadDetectedAndRetried) {
  Fixture fx;
  FileGateway gateway(fx.store, "b", FastRetry(3));
  const GatewayFile file = gateway.Open("k");
  fx.store.Script(StoreOp::kRead, {StoreFaultAction::Short(4)});
  // The decorator truncates one read; the gateway sees fewer bytes than
  // the open-time size promises, treats it as transient, and re-reads.
  EXPECT_EQ(file.ReadAt(0, 64), fx.inner.GetRange("b", "k", 0, 64));
}

TEST(GatewayRetry, ShortReadAtTailIsNotAFault) {
  Fixture fx;
  FileGateway gateway(fx.store, "b", FastRetry(3));
  const GatewayFile file = gateway.Open("k");
  const std::uint64_t size = fx.inner.Stat("b", "k").size;
  // Reads overlapping EOF legitimately return fewer bytes than asked.
  EXPECT_EQ(file.ReadAt(size - 4, 100).size(), 4u);
  EXPECT_EQ(file.ReadAt(size + 10, 5), Bytes{});
}

// ------------------------------------------------------- wire typing

struct WireFixture {
  MemoryObjectStore backing;
  FaultInjectingStore faulty{backing};
  rpc::Server server;
  std::thread server_thread;
  std::shared_ptr<rpc::Client> client;

  WireFixture() {
    backing.CreateBucket("b");
    backing.Put("b", "k", ToBytes("wire payload"));
    BindObjectStoreRpc(server, faulty);
    net::TransportPair pair = net::CreateInProcPair();
    server_thread = std::thread(
        [this, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
          server.ServeTransport(*t);
        });
    client = std::make_shared<rpc::Client>(std::move(pair.b));
  }

  ~WireFixture() {
    client.reset();
    server_thread.join();
  }
};

TEST(WireTyping, TransientCrossesTyped) {
  WireFixture fx;
  fx.faulty.Script(StoreOp::kGet, {StoreFaultAction::Eio()});
  rpc::CallOptions options;
  options.idempotent = true;
  EXPECT_THROW(fx.client->Call("store.get",
                               msgpack::Array{msgpack::Value(std::string("b")),
                                              msgpack::Value(std::string("k"))},
                               options),
               TransientIoError);
}

TEST(WireTyping, ClientRetriesRemoteTransient) {
  WireFixture fx;
  fx.faulty.Script(StoreOp::kGet, {StoreFaultAction::Eio()});
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay = std::chrono::microseconds(50);
  fx.client->SetRetryPolicy(retry);
  rpc::CallOptions options;
  options.idempotent = true;
  // The client's remote-io counter is labeled per method.
  obs::Counter& remote_io = obs::DefaultRegistry().GetCounter(
      "rpc_remote_io_total", {{"method", "store.get"}});
  const std::uint64_t remote_io_before = remote_io.value();
  // First attempt hits the injected EIO server-side; the typed transient
  // crosses the wire and the client retries the idempotent call.
  const msgpack::Value reply = fx.client->Call(
      "store.get",
      msgpack::Array{msgpack::Value(std::string("b")),
                     msgpack::Value(std::string("k"))},
      options);
  EXPECT_EQ(reply.As<Bytes>(), fx.backing.Get("b", "k"));
  EXPECT_EQ(remote_io.value(), remote_io_before + 1);
}

TEST(WireTyping, PermanentIoErrorNeverRetriedByClient) {
  WireFixture fx;
  net::RetryPolicy retry;
  retry.max_attempts = 5;
  retry.base_delay = std::chrono::microseconds(50);
  fx.client->SetRetryPolicy(retry);
  rpc::CallOptions options;
  options.idempotent = true;
  const std::uint64_t ops_before = fx.faulty.stats().ops;
  // A missing object is permanent: retrying cannot create it. The
  // typed IoError must fail the call after exactly one attempt.
  try {
    fx.client->Call("store.get",
                    msgpack::Array{msgpack::Value(std::string("b")),
                                   msgpack::Value(std::string("missing"))},
                    options);
    FAIL() << "expected IoError";
  } catch (const TransientIoError&) {
    FAIL() << "missing object must be permanent";
  } catch (const IoError&) {
  }
  EXPECT_EQ(fx.faulty.stats().ops, ops_before + 1);
}

TEST(WireTyping, RemoteGatewayLaddersOverTheWire) {
  WireFixture fx;
  net::RetryPolicy client_retry;
  client_retry.max_attempts = 3;
  client_retry.base_delay = std::chrono::microseconds(50);
  fx.client->SetRetryPolicy(client_retry);
  RemoteObjectStore remote(fx.client);
  // End-to-end: a remote gateway read rides the client's typed-retry
  // loop when the far store flakes, then heals.
  fx.faulty.Script(StoreOp::kRead, {StoreFaultAction::Eio()});
  FileGateway gateway(remote, "b", FastRetry(3));
  const GatewayFile file = gateway.Open("k");
  EXPECT_EQ(file.ReadAll(), fx.backing.Get("b", "k"));
}

}  // namespace
}  // namespace vizndp::storage
