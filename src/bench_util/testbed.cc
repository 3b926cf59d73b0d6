#include "bench_util/testbed.h"

#include <string>

#include "common/error.h"
#include "ndp/scrub_verify.h"
#include "net/inproc.h"
#include "storage/store_rpc.h"

namespace vizndp::bench_util {

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), link_(config_.link), ssd_(config_.ssd) {
  if (config_.disk_root.empty()) {
    store_ = std::make_shared<storage::MemoryObjectStore>(&ssd_);
  } else {
    store_ = std::make_shared<storage::LocalObjectStore>(config_.disk_root,
                                                         &ssd_);
  }
  store_->CreateBucket(config_.bucket);
  fault_store_ = std::make_unique<storage::FaultInjectingStore>(*store_);

  // Everything the storage node itself does — store.* RPC handlers and
  // the NDP gateway alike — reads through the fault wrapper, so a
  // scripted device fault perturbs both serving paths.
  storage::BindObjectStoreRpc(rpc_server_, *fault_store_);
  ndp_server_ = std::make_unique<ndp::NdpServer>(LocalGateway());
  // Budget wiring mirrors `vizndp_tool serve`: limit 0 admits everything,
  // but overload tests can flip rpc_server().memory_budget() mid-run and
  // see ndp.select shed as retryable-busy.
  ndp_server_->SetMemoryBudget(&rpc_server_.memory_budget());
  ndp_server_->Bind(rpc_server_);

  // Two connections across the emulated link: one carrying baseline
  // object reads, one carrying NDP pre-filter calls. Each gets its own
  // server thread, mirroring the two services on the storage node.
  for (auto* client_slot : {&store_rpc_client_, &ndp_rpc_client_}) {
    net::TransportPair pair = net::CreateInProcPair(&link_);
    server_threads_.emplace_back(
        [this, server_end = std::shared_ptr<net::Transport>(
                   std::move(pair.a))]() mutable {
          rpc_server_.ServeTransport(*server_end);
        });
    *client_slot = std::make_shared<rpc::Client>(std::move(pair.b));
  }
  remote_store_ = std::make_unique<storage::RemoteObjectStore>(
      store_rpc_client_);
  ndp_client_ =
      std::make_shared<ndp::NdpClient>(ndp_rpc_client_, config_.bucket);
}

net::TransportPtr Testbed::ConnectToServer() {
  net::TransportPair pair = net::CreateInProcPair(&link_);
  server_threads_.emplace_back(
      [this, server_end = std::shared_ptr<net::Transport>(
                 std::move(pair.a))]() mutable {
        rpc_server_.ServeTransport(*server_end);
      });
  return std::move(pair.b);
}

void ClusterTestbed::StartNodeLocked(Node& node) {
  // The old incarnation's scrubber references the old server's memory
  // budget; stop it before that server can be released.
  node.scrub.reset();
  node.rpc = std::make_shared<rpc::Server>();
  node.ndp = std::make_shared<ndp::NdpServer>(LocalGateway());
  node.ndp->SetMemoryBudget(&node.rpc->memory_budget());
  // A fresh incarnation gets a fresh scrubber (the dtor of the old one
  // stops its thread) but keeps the node's quarantine set — restarting
  // does not forget which bricks were bad at rest.
  node.scrub = std::make_unique<storage::Scrubber>(
      LocalGateway(),
      ndp::MakeVndScrubVerifier(LocalGateway(), node.quarantine,
                                &node.rpc->memory_budget()),
      node.quarantine);
  node.ndp->SetQuarantine(&node.quarantine);
  node.ndp->SetScrubber(node.scrub.get());
  node.ndp->Bind(*node.rpc);
  node.alive = true;
}

net::TransportFactory ClusterTestbed::DialFactory(int i, bool decorated) {
  return [this, i, decorated]() -> net::TransportPtr {
    Node& node = *nodes_.at(static_cast<size_t>(i));
    std::shared_ptr<rpc::Server> srv;
    {
      std::lock_guard lk(node.mu);
      if (!node.alive) {
        throw PeerClosedError("node " + std::to_string(i) + " is down");
      }
      srv = node.rpc;
    }
    net::TransportPair pair = net::CreateInProcPair(&link_);
    {
      // The serve thread keeps its own shared_ptr to the server it
      // serves, so a later restart (which swaps node.rpc) never pulls
      // the server out from under a loop still draining.
      std::lock_guard lk(node.mu);
      node.serve_threads.emplace_back(
          [srv, server_end = std::shared_ptr<net::Transport>(
                    std::move(pair.a))]() mutable {
            srv->ServeTransport(*server_end);
          });
    }
    net::TransportPtr client_end = std::move(pair.b);
    if (decorated && config_.decorate) {
      client_end = config_.decorate(std::move(client_end), i);
    }
    return client_end;
  };
}

ClusterTestbed::ClusterTestbed(ClusterTestbedConfig config)
    : config_(std::move(config)), link_(config_.link), ssd_(config_.ssd) {
  store_ = std::make_shared<storage::MemoryObjectStore>(&ssd_);
  store_->CreateBucket(config_.bucket);
  fault_store_ = std::make_unique<storage::FaultInjectingStore>(*store_);

  // All nodes first (the dial factories index into nodes_), channels
  // second.
  for (int i = 0; i < config_.servers; ++i) {
    auto node = std::make_unique<Node>();
    std::lock_guard lk(node->mu);
    StartNodeLocked(*node);
    nodes_.push_back(std::move(node));
  }
  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  for (int i = 0; i < config_.servers; ++i) {
    Node& node = *nodes_[static_cast<size_t>(i)];
    // Data channel: chaos fault handle over a reconnecting transport —
    // scripts persist across the connections under them.
    auto faulty = std::make_unique<net::FaultInjectingTransport>(
        std::make_unique<net::ReconnectingTransport>(
            DialFactory(i, /*decorated=*/true)));
    node.fault = faulty.get();
    node.client = std::make_shared<ndp::NdpClient>(
        std::make_shared<rpc::Client>(std::move(faulty)), config_.bucket,
        config_.client_options);
    clients.push_back(node.client);
  }
  sharded_ = std::make_shared<cluster::ShardedNdpClient>(
      std::move(clients), config_.replicas, config_.sharded);
}

std::shared_ptr<ndp::NdpClient> ClusterTestbed::NewNodeClient(
    int i, net::FaultInjectingTransport** fault) {
  net::TransportPtr transport = std::make_unique<net::ReconnectingTransport>(
      DialFactory(i, /*decorated=*/false));
  if (fault != nullptr) {
    auto faulty =
        std::make_unique<net::FaultInjectingTransport>(std::move(transport));
    *fault = faulty.get();
    transport = std::move(faulty);
  }
  return std::make_shared<ndp::NdpClient>(
      std::make_shared<rpc::Client>(std::move(transport)), config_.bucket,
      config_.client_options);
}

void ClusterTestbed::KillServer(int i) {
  Node& node = *nodes_.at(static_cast<size_t>(i));
  std::shared_ptr<rpc::Server> srv;
  std::vector<std::thread> threads;
  {
    std::lock_guard lk(node.mu);
    if (!node.alive) return;
    node.alive = false;
    srv = node.rpc;
    threads.swap(node.serve_threads);
  }
  srv->Stop();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void ClusterTestbed::RestartServer(int i) {
  Node& node = *nodes_.at(static_cast<size_t>(i));
  std::lock_guard lk(node.mu);
  if (node.alive) return;
  StartNodeLocked(node);
}

bool ClusterTestbed::alive(int i) {
  Node& node = *nodes_.at(static_cast<size_t>(i));
  std::lock_guard lk(node.mu);
  return node.alive;
}

ClusterTestbed::~ClusterTestbed() {
  // The sharded client may still hold abandoned hedge attempts against
  // these nodes; destroy it (joins them) before the serve loops exit.
  // Any HealthMonitor on NewNodeClient channels must already be stopped
  // by its owner (declare the monitor after the testbed).
  sharded_.reset();
  for (auto& node : nodes_) node->client.reset();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    KillServer(static_cast<int>(i));
  }
}

Testbed::~Testbed() {
  // Dropping the clients closes their transports; the server loops see
  // the close and exit.
  ndp_client_.reset();
  remote_store_.reset();
  store_rpc_client_.reset();
  ndp_rpc_client_.reset();
  for (std::thread& t : server_threads_) {
    t.join();
  }
}

}  // namespace vizndp::bench_util
