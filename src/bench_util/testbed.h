// Emulated two-node testbed (paper Fig. 11) on one machine:
//
//   [storage node]                          [client node]
//   object store  <- SsdModel charges       VndReader over RemoteObjectStore
//   rpc::Server serving store.* and ndp.*   (baseline path), or
//   NdpServer (pre-filter)                  NdpClient (post-filter path)
//                \________ SimulatedLink charges every frame ________/
//
// Both paths use the same storage software stack (object store + SSD
// model); the only difference — exactly as in the paper — is whether the
// full array or the pre-filtered selection crosses the link.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/sharded_client.h"
#include "ndp/ndp_client.h"
#include "net/fault.h"
#include "net/reconnect.h"
#include "ndp/ndp_server.h"
#include "rpc/server.h"
#include "bench_util/stats.h"
#include "storage/fault_store.h"
#include "storage/local_store.h"
#include "storage/memory_store.h"
#include "storage/remote_store.h"

namespace vizndp::bench_util {

struct TestbedConfig {
  net::LinkConfig link;
  storage::SsdConfig ssd;
  std::string bucket = "data";
  // Default: in-memory store (timing comes from SsdModel either way).
  // Set to a directory to exercise the real filesystem path.
  std::filesystem::path disk_root;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Direct (un-modeled, un-faulted) access for pre-populating datasets.
  storage::ObjectStore& store() { return *store_; }
  const std::string& bucket() const { return config_.bucket; }

  // Disk-fault handle on the storage node's store: every server-side
  // read (NdpServer gateway, store.* RPC handlers) goes through this
  // wrapper, so scripted EIO/short/rot faults hit exactly where a bad
  // device would. store() bypasses it for test setup.
  storage::FaultInjectingStore& store_fault() { return *fault_store_; }

  // Client-side gateway: every object byte crosses the simulated link
  // (the paper's baseline: s3fs on the client, MinIO remote).
  storage::FileGateway RemoteGateway() {
    return storage::FileGateway(*remote_store_, config_.bucket);
  }

  // Storage-side gateway: object reads stay local (the NDP setup).
  storage::FileGateway LocalGateway() {
    return storage::FileGateway(*fault_store_, config_.bucket);
  }

  ndp::NdpClient& ndp_client() { return *ndp_client_; }
  std::shared_ptr<ndp::NdpClient> ndp_client_ptr() { return ndp_client_; }

  // Opens one more in-proc connection to the storage node's RPC server
  // and serves it on its own thread. Fault tests wrap the returned
  // client-side transport in decorators (FaultInjectingTransport) before
  // handing it to an rpc::Client.
  net::TransportPtr ConnectToServer();

  net::SimulatedLink& link() { return link_; }
  storage::SsdModel& ssd() { return ssd_; }

  // The storage node's RPC server — overload/tracing tests flip its
  // memory budget and read its health table mid-run.
  rpc::Server& rpc_server() { return rpc_server_; }

  // The storage node's NDP pre-filter server (owns the ndp_select
  // latency registry the observability benches count against).
  ndp::NdpServer& ndp_server() { return *ndp_server_; }

  LoadTimer StartLoadTimer() const { return LoadTimer(link_, ssd_); }

 private:
  TestbedConfig config_;
  net::SimulatedLink link_;
  storage::SsdModel ssd_;
  std::shared_ptr<storage::ObjectStore> store_;
  std::unique_ptr<storage::FaultInjectingStore> fault_store_;
  rpc::Server rpc_server_;
  std::unique_ptr<ndp::NdpServer> ndp_server_;
  std::vector<std::thread> server_threads_;
  std::shared_ptr<rpc::Client> store_rpc_client_;
  std::shared_ptr<rpc::Client> ndp_rpc_client_;
  std::unique_ptr<storage::RemoteObjectStore> remote_store_;
  std::shared_ptr<ndp::NdpClient> ndp_client_;
};

// Emulated N-node serving tier for the sharded experiments: N
// independent rpc::Server+NdpServer nodes over one shared object store
// (every node is a full replica, the ShardMap invariant), one in-proc
// connection per node, and a ShardedNdpClient fanning out over them.
// Mirrors Testbed's wiring per node so single-node and sharded runs
// differ only in topology.
//
// Channels are self-healing: every client connection goes through a
// net::ReconnectingTransport whose factory dials the node's *current*
// rpc::Server (throwing PeerClosedError while the node is down), so
// KillServer → RestartServer round-trips without rebuilding clients —
// the next call after a restart just redials. Each node additionally
// exposes a persistent FaultInjectingTransport handle wrapped around its
// data channel (for the chaos harness to script delays/corruption
// mid-run), and NewNodeClient opens a dedicated channel to it (for a
// cluster::FleetScraper; declare its owner after the testbed, so it is
// destroyed first).
struct ClusterTestbedConfig {
  int servers = 3;
  int replicas = 2;
  net::LinkConfig link;
  storage::SsdConfig ssd;
  std::string bucket = "data";
  // Per-server client knobs (timeouts, retry) — hedging needs a finite
  // call_timeout so abandoned losers unwind.
  ndp::NdpClientOptions client_options;
  cluster::ShardedClientOptions sharded;
  // Storage retry ladder every node's gateway runs under. Chaos
  // schedules raise max_attempts so scripted EIO storms sized to
  // max_attempts-1 are guaranteed to heal in place.
  net::RetryPolicy store_retry = storage::DefaultStoreRetryPolicy();
  // Optional per-connection transport decorator (fault injection): wraps
  // server `i`'s client-side transport before the rpc::Client sees it.
  std::function<net::TransportPtr(net::TransportPtr, int server)> decorate;
};

class ClusterTestbed {
 public:
  explicit ClusterTestbed(ClusterTestbedConfig config = {});
  ~ClusterTestbed();

  ClusterTestbed(const ClusterTestbed&) = delete;
  ClusterTestbed& operator=(const ClusterTestbed&) = delete;

  // The shared store, for pre-populating datasets (visible on all
  // nodes). Bypasses the fault wrapper: chaos uses it to plant rotted
  // bytes and to issue the clean repair re-Put.
  storage::ObjectStore& store() { return *store_; }
  const std::string& bucket() const { return config_.bucket; }

  // Shared disk-fault handle: every node's gateway reads the store
  // through this wrapper, so one scripted fault storm hits the whole
  // tier exactly like a failing shared backend would.
  storage::FaultInjectingStore& store_fault() { return *fault_store_; }

  // Storage-side gateway (same data every node serves); tests use it for
  // the baseline-fallback rung and single-server reference runs.
  storage::FileGateway LocalGateway() {
    return storage::FileGateway(*fault_store_, config_.bucket,
                                config_.store_retry);
  }

  int server_count() const { return config_.servers; }
  rpc::Server& rpc_server(int i) { return *nodes_.at(size_t(i))->rpc; }
  ndp::NdpServer& ndp_server(int i) { return *nodes_.at(size_t(i))->ndp; }

  // Direct client to one node (reference fetches). Reconnecting: usable
  // across kill/restart cycles of the node.
  std::shared_ptr<ndp::NdpClient> server_client(int i) {
    return nodes_.at(static_cast<size_t>(i))->client;
  }

  // Persistent fault handle on node `i`'s data channel; survives
  // kill/restart cycles (it wraps the reconnecting transport, not one
  // connection).
  net::FaultInjectingTransport& fault(int i) {
    return *nodes_.at(static_cast<size_t>(i))->fault;
  }

  // A fresh dedicated client to node `i` over its own reconnecting
  // channel — how a FleetScraper gets its scrape connections: never
  // shared with data fetches and never touched by chaos fault scripts,
  // so they see the node's real state. When `fault` is non-null it
  // receives a fault handle wrapped around this channel (owned by the
  // returned client), so tests can slow one node's scrape RTT without
  // touching its serving.
  std::shared_ptr<ndp::NdpClient> NewNodeClient(
      int i, net::FaultInjectingTransport** fault = nullptr);

  std::shared_ptr<cluster::ShardedNdpClient> sharded_client() {
    return sharded_;
  }

  // Drains node `i`, exits and joins its serve loops: subsequent calls
  // to it fail with PeerClosedError and the sharded client fails over.
  void KillServer(int i);

  // Brings a killed node back as a fresh incarnation (new rpc::Server +
  // NdpServer) over the same shared store — restarts lose no data,
  // exactly like a storage node rebooting over its disks.
  void RestartServer(int i);

  bool alive(int i);

 private:
  struct Node {
    std::mutex mu;  // guards rpc/ndp/alive/serve_threads across redials
    std::shared_ptr<rpc::Server> rpc;
    std::shared_ptr<ndp::NdpServer> ndp;
    bool alive = true;
    std::vector<std::thread> serve_threads;
    net::FaultInjectingTransport* fault = nullptr;  // owned by `client`
    std::shared_ptr<ndp::NdpClient> client;
  };

  // (Re)creates node i's servers over the shared store; node.mu held.
  void StartNodeLocked(Node& node);
  // Transport factory dialing node i's current server; `decorated`
  // applies config_.decorate to the new connection (data channels only).
  net::TransportFactory DialFactory(int i, bool decorated);

  ClusterTestbedConfig config_;
  net::SimulatedLink link_;
  storage::SsdModel ssd_;
  std::shared_ptr<storage::ObjectStore> store_;
  std::unique_ptr<storage::FaultInjectingStore> fault_store_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::shared_ptr<cluster::ShardedNdpClient> sharded_;
};

}  // namespace vizndp::bench_util
