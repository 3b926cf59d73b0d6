#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "net/inproc.h"
#include "storage/file_gateway.h"
#include "storage/local_store.h"
#include "storage/memory_store.h"
#include "storage/remote_store.h"
#include "storage/store_rpc.h"

namespace vizndp::storage {
namespace {

namespace fs = std::filesystem;

// Conformance fixture: every ObjectStore behavior below runs against
// all three implementations — Memory, Local (filesystem), and Remote
// (a MemoryObjectStore served over in-proc store.* RPC) — so edge
// semantics (ranged reads past EOF, typed errors, overwrite
// visibility) cannot drift between backends. The Remote instantiation
// doubles as the wire-typing test: server-side IoError must arrive
// client-side as IoError, not a generic RpcError.
template <typename StoreT>
class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() {
    if constexpr (std::is_same_v<StoreT, LocalObjectStore>) {
      root_ = fs::temp_directory_path() /
              ("vizndp_store_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++));
      store_ = std::make_unique<LocalObjectStore>(root_);
    } else if constexpr (std::is_same_v<StoreT, RemoteObjectStore>) {
      backing_ = std::make_unique<MemoryObjectStore>();
      server_ = std::make_unique<rpc::Server>();
      BindObjectStoreRpc(*server_, *backing_);
      net::TransportPair pair = net::CreateInProcPair();
      server_thread_ = std::thread(
          [srv = server_.get(),
           t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
            srv->ServeTransport(*t);
          });
      store_ = std::make_unique<RemoteObjectStore>(
          std::make_shared<rpc::Client>(std::move(pair.b)));
    } else {
      store_ = std::make_unique<MemoryObjectStore>();
    }
    store_->CreateBucket("b");
  }

  ~ObjectStoreTest() override {
    store_.reset();  // closes the remote transport, if any
    if (server_thread_.joinable()) server_thread_.join();
    if (!root_.empty()) fs::remove_all(root_);
  }

  static inline int counter_ = 0;
  fs::path root_;
  std::unique_ptr<MemoryObjectStore> backing_;
  std::unique_ptr<rpc::Server> server_;
  std::thread server_thread_;
  std::unique_ptr<ObjectStore> store_;
};

using Backends =
    ::testing::Types<MemoryObjectStore, LocalObjectStore, RemoteObjectStore>;
TYPED_TEST_SUITE(ObjectStoreTest, Backends);

TYPED_TEST(ObjectStoreTest, PutGetRoundTrip) {
  const Bytes data = ToBytes("the object body");
  this->store_->Put("b", "k", data);
  EXPECT_EQ(this->store_->Get("b", "k"), data);
  EXPECT_TRUE(this->store_->Exists("b", "k"));
  EXPECT_EQ(this->store_->Stat("b", "k").size, data.size());
}

TYPED_TEST(ObjectStoreTest, OverwriteReplaces) {
  this->store_->Put("b", "k", ToBytes("v1"));
  this->store_->Put("b", "k", ToBytes("version-two"));
  EXPECT_EQ(this->store_->Get("b", "k"), ToBytes("version-two"));
}

TYPED_TEST(ObjectStoreTest, MissingObjectThrows) {
  EXPECT_THROW(this->store_->Get("b", "missing"), IoError);
  EXPECT_THROW(this->store_->Stat("b", "missing"), IoError);
  EXPECT_THROW(this->store_->Delete("b", "missing"), IoError);
  EXPECT_FALSE(this->store_->Exists("b", "missing"));
}

TYPED_TEST(ObjectStoreTest, MissingBucketThrows) {
  EXPECT_THROW(this->store_->Put("nobucket", "k", ToBytes("x")), Error);
  EXPECT_THROW(this->store_->List("nobucket", ""), IoError);
}

TYPED_TEST(ObjectStoreTest, RangedReads) {
  Bytes data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<Byte>(i);
  this->store_->Put("b", "k", data);
  EXPECT_EQ(this->store_->GetRange("b", "k", 0, 10),
            Bytes(data.begin(), data.begin() + 10));
  EXPECT_EQ(this->store_->GetRange("b", "k", 990, 100),
            Bytes(data.begin() + 990, data.end()));
  EXPECT_EQ(this->store_->GetRange("b", "k", 2000, 10), Bytes{});
  EXPECT_EQ(this->store_->GetRange("b", "k", 500, 0), Bytes{});
}

TYPED_TEST(ObjectStoreTest, RangedReadSuffixAndEdges) {
  const Bytes data = ToBytes("0123456789");
  this->store_->Put("b", "k", data);
  // Suffix read starting exactly at the last byte.
  EXPECT_EQ(this->store_->GetRange("b", "k", 9, 100), ToBytes("9"));
  // Offset exactly at the end: empty, not an error.
  EXPECT_EQ(this->store_->GetRange("b", "k", 10, 1), Bytes{});
  // Zero-length read at offset 0 of a non-empty object.
  EXPECT_EQ(this->store_->GetRange("b", "k", 0, 0), Bytes{});
  // Full-object range equals Get.
  EXPECT_EQ(this->store_->GetRange("b", "k", 0, data.size()), data);
}

TYPED_TEST(ObjectStoreTest, OverwriteShrinksVisibleSize) {
  this->store_->Put("b", "k", ToBytes("a long first version"));
  this->store_->Put("b", "k", ToBytes("v2"));
  EXPECT_EQ(this->store_->Stat("b", "k").size, 2u);
  // The old tail must not bleed through a ranged read.
  EXPECT_EQ(this->store_->GetRange("b", "k", 2, 100), Bytes{});
}

TYPED_TEST(ObjectStoreTest, DeleteRemoves) {
  this->store_->Put("b", "k", ToBytes("x"));
  this->store_->Delete("b", "k");
  EXPECT_FALSE(this->store_->Exists("b", "k"));
}

TYPED_TEST(ObjectStoreTest, DeleteThenGetThrowsTyped) {
  this->store_->Put("b", "k", ToBytes("x"));
  this->store_->Delete("b", "k");
  // A permanent IoError on every read form — never a transient (a retry
  // ladder must not spin on a deleted object) and, for the remote
  // backend, never an untyped RpcError.
  EXPECT_THROW(this->store_->Get("b", "k"), IoError);
  EXPECT_THROW(this->store_->GetRange("b", "k", 0, 1), IoError);
  EXPECT_THROW(this->store_->Stat("b", "k"), IoError);
  try {
    this->store_->Get("b", "k");
    FAIL() << "expected IoError";
  } catch (const TransientIoError&) {
    FAIL() << "missing object must be permanent, not transient";
  } catch (const IoError&) {
  }
}

TYPED_TEST(ObjectStoreTest, BucketExistsReflectsCreation) {
  EXPECT_TRUE(this->store_->BucketExists("b"));
  EXPECT_FALSE(this->store_->BucketExists("nope"));
  this->store_->CreateBucket("nope");
  EXPECT_TRUE(this->store_->BucketExists("nope"));
}

TYPED_TEST(ObjectStoreTest, ListWithPrefix) {
  this->store_->Put("b", "ts0/v02", ToBytes("a"));
  this->store_->Put("b", "ts0/v03", ToBytes("bb"));
  this->store_->Put("b", "ts1/v02", ToBytes("ccc"));
  const auto all = this->store_->List("b", "");
  EXPECT_EQ(all.size(), 3u);
  const auto ts0 = this->store_->List("b", "ts0/");
  ASSERT_EQ(ts0.size(), 2u);
  EXPECT_EQ(ts0[0].key, "ts0/v02");
  EXPECT_EQ(ts0[1].key, "ts0/v03");
  EXPECT_EQ(ts0[1].size, 2u);
}

TYPED_TEST(ObjectStoreTest, EmptyObject) {
  this->store_->Put("b", "empty", ByteSpan{});
  EXPECT_EQ(this->store_->Get("b", "empty"), Bytes{});
  EXPECT_EQ(this->store_->Stat("b", "empty").size, 0u);
}

TEST(LocalStore, RejectsPathTraversal) {
  const fs::path root = fs::temp_directory_path() / "vizndp_traversal_test";
  LocalObjectStore store(root);
  store.CreateBucket("b");
  EXPECT_THROW(store.Put("b", "../escape", ToBytes("x")), Error);
  EXPECT_THROW(store.Put("b", "a/../../b", ToBytes("x")), Error);
  EXPECT_THROW(store.Put("b", "/abs", ToBytes("x")), Error);
  EXPECT_THROW(store.Put("..", "k", ToBytes("x")), Error);
  EXPECT_THROW(store.Get("b", ""), Error);
  fs::remove_all(root);
}

TEST(LocalStore, NestedKeysCreateDirectories) {
  const fs::path root = fs::temp_directory_path() / "vizndp_nested_test";
  LocalObjectStore store(root);
  store.CreateBucket("b");
  store.Put("b", "deep/nested/key.vnd", ToBytes("data"));
  EXPECT_EQ(store.Get("b", "deep/nested/key.vnd"), ToBytes("data"));
  const auto listed = store.List("b", "deep/");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].key, "deep/nested/key.vnd");
  fs::remove_all(root);
}

TEST(SsdModel, ChargesReadsAndWrites) {
  SsdModel ssd({.read_bandwidth_bytes_per_sec = 1000.0,
                .write_bandwidth_bytes_per_sec = 500.0,
                .access_latency_sec = 0.25});
  MemoryObjectStore store(&ssd);
  store.CreateBucket("b");
  store.Put("b", "k", Bytes(1000));
  EXPECT_NEAR(ssd.virtual_seconds(), 0.25 + 2.0, 1e-9);
  (void)store.Get("b", "k");
  EXPECT_NEAR(ssd.virtual_seconds(), 0.25 + 2.0 + 0.25 + 1.0, 1e-9);
  EXPECT_EQ(ssd.bytes_read(), 1000u);
  EXPECT_EQ(ssd.bytes_written(), 1000u);
}

TEST(SsdModel, RangedReadChargesOnlyRange) {
  SsdModel ssd({.read_bandwidth_bytes_per_sec = 1000.0,
                .write_bandwidth_bytes_per_sec = 1000.0,
                .access_latency_sec = 0.0});
  MemoryObjectStore store(&ssd);
  store.CreateBucket("b");
  store.Put("b", "k", Bytes(1000));
  ssd.Reset();
  (void)store.GetRange("b", "k", 100, 50);
  EXPECT_EQ(ssd.bytes_read(), 50u);
}

struct RemoteFixture {
  MemoryObjectStore backing;
  rpc::Server server;
  std::thread server_thread;
  std::unique_ptr<RemoteObjectStore> remote;

  explicit RemoteFixture(net::SimulatedLink* link = nullptr) {
    backing.CreateBucket("b");
    BindObjectStoreRpc(server, backing);
    net::TransportPair pair = net::CreateInProcPair(link);
    server_thread = std::thread(
        [this, t = std::shared_ptr<net::Transport>(std::move(pair.a))] {
          server.ServeTransport(*t);
        });
    remote = std::make_unique<RemoteObjectStore>(
        std::make_shared<rpc::Client>(std::move(pair.b)));
  }

  ~RemoteFixture() {
    remote.reset();
    server_thread.join();
  }
};

TEST(RemoteStore, MirrorsBackingStore) {
  RemoteFixture fx;
  const Bytes data = ToBytes("remote body bytes");
  fx.remote->Put("b", "k", data);
  EXPECT_EQ(fx.backing.Get("b", "k"), data);  // really landed server-side
  EXPECT_EQ(fx.remote->Get("b", "k"), data);
  EXPECT_EQ(fx.remote->GetRange("b", "k", 7, 4), ToBytes("body"));
  EXPECT_EQ(fx.remote->Stat("b", "k").size, data.size());
  EXPECT_TRUE(fx.remote->Exists("b", "k"));
  fx.remote->Put("b", "k2", ToBytes("x"));
  EXPECT_EQ(fx.remote->List("b", "").size(), 2u);
  fx.remote->Delete("b", "k2");
  EXPECT_FALSE(fx.remote->Exists("b", "k2"));
}

TEST(RemoteStore, ErrorsCrossTheWire) {
  RemoteFixture fx;
  // Server-side IoError arrives typed (the "!io: " wire prefix), so the
  // client can tell "object is gone" (permanent, don't retry) from a
  // generic handler failure.
  EXPECT_THROW(fx.remote->Get("b", "missing"), IoError);
  try {
    fx.remote->Get("b", "missing");
    FAIL() << "expected IoError";
  } catch (const TransientIoError&) {
    FAIL() << "missing object must cross the wire as permanent";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(RemoteStore, BucketExistsCrossesTheWire) {
  RemoteFixture fx;
  EXPECT_TRUE(fx.remote->BucketExists("b"));
  EXPECT_FALSE(fx.remote->BucketExists("never-created"));
}

TEST(RemoteStore, GetMovesFullObjectAcrossLink) {
  net::SimulatedLink link;
  RemoteFixture fx(&link);
  Bytes big(1 << 20, 0x5A);
  fx.backing.Put("b", "big", big);
  link.Reset();
  (void)fx.remote->Get("b", "big");
  EXPECT_GT(link.bytes_transferred(), big.size());
  EXPECT_LT(link.bytes_transferred(), big.size() + 1024);
}

TEST(FileGateway, FileViewOverStore) {
  MemoryObjectStore store;
  store.CreateBucket("data");
  Bytes blob(256);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<Byte>(i);
  store.Put("data", "f.vnd", blob);

  FileGateway gateway(store, "data");
  EXPECT_TRUE(gateway.Exists("f.vnd"));
  EXPECT_FALSE(gateway.Exists("g.vnd"));
  const GatewayFile file = gateway.Open("f.vnd");
  EXPECT_EQ(file.size(), blob.size());
  EXPECT_EQ(file.ReadAll(), blob);
  EXPECT_EQ(file.ReadAt(10, 5), Bytes(blob.begin() + 10, blob.begin() + 15));
  EXPECT_THROW(gateway.Open("g.vnd"), IoError);
}

}  // namespace
}  // namespace vizndp::storage
