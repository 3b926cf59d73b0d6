// The benchmark's workloads and the node wiring that serves them. Each
// Deployment builds its own storage node(s) from public classes
// (MemoryObjectStore with no SSD model behind a CountingStore,
// FileGateway, NdpServer on an rpc::Server) and its own client side
// (in-proc pairs with no link model, or TCP loopback to a TcpRpcServer,
// every client endpoint behind a CountingTransport), so no simulated
// cost enters any number.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "contour/polydata.h"
#include "decorators.h"
#include "grid/dataset.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "obs/trace.h"
#include "rpc/server.h"
#include "storage/memory_store.h"

namespace vizndp::e2e {

using IsoSet = std::vector<double>;

struct WorkloadSpec {
  std::string name;
  bool tcp = false;         // TCP loopback instead of in-proc pairs
  int nodes = 1;
  int replicas = 1;
  std::string codec;        // "none" or "lz4"
  std::int32_t brick_edge = 0;    // 0 = monolithic, no brick index
  std::int64_t chunk_bricks = 0;  // 0 = one-shot replies
  std::vector<IsoSet> cycle;  // one entry per request, repeated
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The n^3 impact timestep 24006 with v02 and v03, at the generator's
// default seed (the data the ROADMAP baseline was measured on). The
// workload seed does not change the data: another generator seed moves
// the selection, and with it every figure, by about 5%, which would
// drown the run-to-run spread the bounds are set against.
grid::Dataset MakeDataset(std::int64_t n);

// MakeDataset(n) through a file cache: generating 256^3 takes about 7 s
// and the data never changes, so every run after the first in a checkout
// reads `cache` instead (written whole, then renamed into place).
grid::Dataset CachedDataset(std::int64_t n, const std::string& cache);

// One pass over the cycle in a seed-chosen order, as indices into
// spec.cycle; a run repeats it.
std::vector<size_t> CycleOrder(const WorkloadSpec& spec, std::uint64_t seed);

inline constexpr char kKey[] = "impact.vnd";
// Every workload contours the water fraction; v03 rides along in the file.
inline constexpr char kArray[] = "v02";

class Deployment {
 public:
  // Serializes `dataset` per `spec` into a fresh store and starts the
  // servers and connections.
  Deployment(const WorkloadSpec& spec, const grid::Dataset& dataset);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ndp::NdpFetcher& fetcher() { return *fetcher_; }
  const StoreCounters& store_counters() const { return store_counters_; }
  const NetCounters& net_counters() const { return net_counters_; }

  // Sum of ndp_selected_points_total over every node: points shipped,
  // ghost duplicates included.
  std::uint64_t ServerSelectedPoints() const;

 private:
  struct Node {
    rpc::Server rpc;
    std::unique_ptr<ndp::NdpServer> ndp;
    std::unique_ptr<rpc::TcpRpcServer> tcp;
    std::vector<std::thread> serve_threads;
  };

  StoreCounters store_counters_;
  NetCounters net_counters_;
  storage::MemoryObjectStore memory_;
  CountingStore store_{memory_, store_counters_};
  std::vector<std::unique_ptr<Node>> nodes_;
  std::shared_ptr<ndp::NdpFetcher> fetcher_;
};

// The correctness check: NDP geometry must be bit-identical to the
// full-read oracle, same triangles in the same order.
inline bool MatchesOracle(const contour::PolyData& got,
                          const contour::PolyData& oracle) {
  return got.GeometricallyEquals(oracle, 0.0);
}

// One contour request as a user makes it, and what the benchmark saw of
// it. Counter fields are deltas over the request.
struct RequestResult {
  double wall_ms = 0;  // FetchSparseField call to SparseField::Contour return
  double cpu_ms = 0;   // process user+sys CPU over the same interval
  // Process peak RSS during the request minus RSS just before it.
  double rss_growth_mb = 0;
  contour::PolyData poly;
  std::int64_t valid_points = 0;     // deduplicated points in the field
  std::uint64_t shipped_points = 0;  // server-counted, ghosts included
  std::uint64_t decoded_bytes = 0;   // codec_decompress_bytes_total
  ndp::NdpLoadStats stats;
  StoreCounters::Snapshot store;
  NetCounters::Snapshot net;
  std::vector<obs::DrainedEvent> events;  // traced requests only
};

// Resets the process's peak RSS (VmHWM) to its current RSS; false when
// the kernel refuses, and then RequestResult::rss_growth_mb means nothing.
bool ResetPeakRss();

// Runs one request. Traced requests run under their own trace, with a
// "bench.contour" root span around the whole request and a
// "contour.post" span around SparseField::Contour; the tracer is drained
// afterwards so its ring never drops spans. Throws whatever the request
// throws.
RequestResult RunRequest(Deployment& deployment, const WorkloadSpec& spec,
                         const IsoSet& isos, bool traced);

}  // namespace vizndp::e2e
