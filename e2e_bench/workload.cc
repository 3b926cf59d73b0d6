#include "workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "cluster/sharded_client.h"
#include "compress/codec.h"
#include "io/vnd_format.h"
#include "net/inproc.h"
#include "net/retry.h"
#include "net/tcp.h"
#include "sim/impact.h"

namespace vizndp::e2e {

namespace {

constexpr char kBucket[] = "data";
constexpr std::int64_t kTimestep = 24006;

// The explore cycle selects about 1% of the 256^3 array per request. A
// cycle's first entry is every set-up's cold contour; here it is iso 0.1,
// the ROADMAP baseline.
const std::vector<IsoSet> kSingleIsoCycle = {
    {0.1}, {0.3}, {0.5}, {0.7}, {0.9}};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"explore-lz4-bricked", /*tcp=*/false, /*nodes=*/1, /*replicas=*/1,
       "lz4", /*brick_edge=*/32, /*chunk_bricks=*/0, kSingleIsoCycle},
      // Three isovalues per request over the raw monolithic array: the
      // dense multi-isovalue scan with no codec and no brick index.
      {"scan-raw-tcp", /*tcp=*/true, 1, 1, "none", 0, 0,
       {{0.1, 0.4, 0.7}, {0.2, 0.5, 0.8}, {0.3, 0.6, 0.9}}},
      {"stream-sharded-3x2", /*tcp=*/false, /*nodes=*/3, /*replicas=*/2,
       "lz4", /*brick_edge=*/16, /*chunk_bricks=*/16, kSingleIsoCycle},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

grid::Dataset MakeDataset(std::int64_t n) {
  sim::ImpactConfig config;
  config.n = n;
  return sim::GenerateImpactTimestep(config, kTimestep, {"v02", "v03"});
}

namespace {

// Cache file layout: this header, then each array's raw bytes.
struct CacheHeader {
  char magic[8] = {'e', '2', 'e', 'd', 'a', 't', 'a', '1'};
  std::int64_t dims[3] = {0, 0, 0};
  double origin[3] = {0, 0, 0};
  double spacing[3] = {0, 0, 0};
};
constexpr const char* kCachedArrays[] = {"v02", "v03"};

}  // namespace

grid::Dataset CachedDataset(std::int64_t n, const std::string& cache) {
  const CacheHeader want;
  const auto bytes = static_cast<std::streamsize>(n * n * n * sizeof(float));
  std::ifstream in(cache, std::ios::binary);
  CacheHeader got;
  if (in.read(reinterpret_cast<char*>(&got), sizeof(got)) &&
      std::equal(got.magic, got.magic + 8, want.magic) &&
      got.dims[0] == n && got.dims[1] == n && got.dims[2] == n) {
    grid::UniformGeometry geometry;
    std::copy(got.origin, got.origin + 3, geometry.origin.begin());
    std::copy(got.spacing, got.spacing + 3, geometry.spacing.begin());
    grid::Dataset dataset(grid::Dims{n, n, n}, geometry);
    for (const char* name : kCachedArrays) {
      Bytes raw(static_cast<size_t>(bytes));
      if (!in.read(reinterpret_cast<char*>(raw.data()), bytes)) break;
      dataset.AddArray(
          grid::DataArray(name, grid::DataType::Float32, std::move(raw)));
    }
    if (dataset.ArrayCount() == std::size(kCachedArrays) &&
        in.peek() == std::ifstream::traits_type::eof()) {
      return dataset;
    }
  }

  grid::Dataset dataset = MakeDataset(n);
  CacheHeader header;
  for (int i = 0; i < 3; ++i) {
    header.origin[i] = dataset.geometry().origin[static_cast<size_t>(i)];
    header.spacing[i] = dataset.geometry().spacing[static_cast<size_t>(i)];
  }
  header.dims[0] = header.dims[1] = header.dims[2] = n;
  const std::string tmp = cache + ".tmp" + std::to_string(getpid());
  std::ofstream out(tmp, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const char* name : kCachedArrays) {
    const ByteSpan raw = dataset.GetArray(name).raw();
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
  }
  out.close();
  if (out) {
    std::filesystem::rename(tmp, cache);
  } else {
    std::filesystem::remove(tmp);
  }
  return dataset;
}

std::vector<size_t> CycleOrder(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<size_t> order(spec.cycle.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Fisher-Yates driven by a seeded SplitMix64 stream.
  std::uint64_t state = seed;
  for (size_t i = order.size(); i > 1; --i) {
    state += 0x9E3779B97F4A7C15ull;
    const std::uint64_t r = net::MixBits(state);
    std::swap(order[i - 1], order[static_cast<size_t>(r % i)]);
  }
  return order;
}

Deployment::Deployment(const WorkloadSpec& spec,
                       const grid::Dataset& dataset) {
  memory_.CreateBucket(kBucket);
  io::VndWriter writer(dataset);
  writer.SetCodec(compress::MakeCodec(spec.codec));
  writer.SetBrickSize(spec.brick_edge);
  writer.WriteToStore(store_, kBucket, kKey);

  ndp::NdpClientOptions options;
  // A wedged server fails the request instead of outliving the run.
  options.call_timeout = std::chrono::seconds(60);
  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  for (int i = 0; i < spec.nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->ndp = std::make_unique<ndp::NdpServer>(
        storage::FileGateway(store_, kBucket));
    node->ndp->Bind(node->rpc);
    net::TransportPtr client_end;
    if (spec.tcp) {
      node->tcp = std::make_unique<rpc::TcpRpcServer>(node->rpc);
      client_end = net::TcpConnect("127.0.0.1", node->tcp->port());
    } else {
      net::TransportPair pair = net::CreateInProcPair();
      node->serve_threads.emplace_back(
          [server = &node->rpc,
           end = std::shared_ptr<net::Transport>(std::move(pair.a))] {
            server->ServeTransport(*end);
          });
      client_end = std::move(pair.b);
    }
    auto rpc_client = std::make_shared<rpc::Client>(
        std::make_unique<CountingTransport>(std::move(client_end),
                                            net_counters_));
    clients.push_back(
        std::make_shared<ndp::NdpClient>(rpc_client, kBucket, options));
    nodes_.push_back(std::move(node));
  }

  ndp::StreamOptions stream;
  stream.chunk_bricks = spec.chunk_bricks;
  if (spec.nodes == 1) {
    clients.front()->SetStream(stream);
    fetcher_ = clients.front();
  } else {
    cluster::ShardedClientOptions sharded;
    sharded.hedge_ms = -1;  // no hedges: every node serves at full speed
    auto client = std::make_shared<cluster::ShardedNdpClient>(
        clients, spec.replicas, sharded);
    client->SetStream(stream);
    fetcher_ = client;
  }
}

Deployment::~Deployment() {
  fetcher_.reset();  // closes the client endpoints
  for (const std::unique_ptr<Node>& node : nodes_) {
    if (node->tcp != nullptr) node->tcp->Stop();
    node->rpc.Stop();
    for (std::thread& t : node->serve_threads) t.join();
  }
}

namespace {

// A VmRSS/VmHWM line of /proc/self/status, in KiB.
double StatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return 0;
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

}  // namespace

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

RequestResult RunRequest(Deployment& deployment, const WorkloadSpec& spec,
                         const IsoSet& isos, bool traced) {
  using Clock = std::chrono::steady_clock;
  RequestResult r;
  obs::Tracer& tracer = obs::GlobalTracer();
  const StoreCounters::Snapshot store0 = deployment.store_counters().Read();
  const NetCounters::Snapshot net0 = deployment.net_counters().Read();
  const std::uint64_t shipped0 = deployment.ServerSelectedPoints();
  const obs::Counter& decoded = obs::DefaultRegistry().GetCounter(
      "codec_decompress_bytes_total", {{"codec", spec.codec}});
  const std::uint64_t decoded0 = decoded.value();
  ResetPeakRss();
  const double rss0_kb = StatusKb("VmRSS");

  std::optional<obs::ScopedTraceContext> trace;
  if (traced) {
    tracer.Enable(true);
    trace.emplace(obs::TraceContext::Mint(/*sampled=*/true));
  }
  try {
    const double cpu0 = CpuMs();
    const auto t0 = Clock::now();
    obs::Span root("bench.contour");
    grid::UniformGeometry geometry;
    const contour::SparseField field = deployment.fetcher().FetchSparseField(
        kKey, kArray, isos, &geometry, &r.stats);
    obs::Span post("contour.post");
    r.poly = field.Contour(geometry, isos);
    post.End();
    root.End();
    r.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    r.cpu_ms = CpuMs() - cpu0;
    r.valid_points = field.ValidCount();
  } catch (...) {
    trace.reset();
    tracer.Enable(false);
    tracer.Clear();
    throw;
  }
  if (traced) {
    const std::uint64_t trace_id = trace->context().trace_id;
    trace.reset();
    tracer.Enable(false);
    for (obs::DrainedEvent& e : tracer.Drain()) {
      if (e.trace_id == trace_id) r.events.push_back(std::move(e));
    }
  }
  r.store = deployment.store_counters().Read() - store0;
  r.net = deployment.net_counters().Read() - net0;
  r.shipped_points = deployment.ServerSelectedPoints() - shipped0;
  r.decoded_bytes = decoded.value() - decoded0;
  r.rss_growth_mb = (StatusKb("VmHWM") - rss0_kb) / 1024.0;
  return r;
}

std::uint64_t Deployment::ServerSelectedPoints() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Node>& node : nodes_) {
    total +=
        node->ndp->metrics().GetCounter("ndp_selected_points_total").value();
  }
  return total;
}

}  // namespace vizndp::e2e
