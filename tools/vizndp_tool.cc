// vizndp_tool — command-line front end for the library.
//
//   vizndp_tool gen     --kind impact|nyx --out FILE [--n N] [--timestep T]
//                       [--codec none|gzip|lz4|rle|zlib] [--arrays a,b,...]
//   vizndp_tool info    --in FILE
//   vizndp_tool contour --in FILE --array NAME --iso V[,V...]
//                       [--obj FILE] [--ppm FILE]
//   vizndp_tool select  --in FILE --array NAME --iso V[,V...]
//   vizndp_tool serve   --dir DIR [--port P] [--max-inflight N]
//                       [--mem-budget-mb N] [--drain-ms N]  (storage node)
//   vizndp_tool fetch   --host H --port P --key K --array NAME --iso V[,V...]
//                       [--obj FILE]                 (client node)
//   vizndp_tool metrics --host H --port P [--json|--format F]
//                       [--connect HOST:PORT]...  (fleet: merged view)
//   vizndp_tool top     [--connect HOST:PORT]... [--once]
//                       [--interval-ms N] [--format text|json|prom]
//   vizndp_tool health  --host H --port P            (liveness snapshot)
//   vizndp_tool fuzz    [--target NAME|all] [--seed S] [--iters N]
//
// Every command also accepts the global `--trace FILE` option, which
// records obs spans during the run and writes a Chrome-tracing JSON
// file on exit (open in chrome://tracing or ui.perfetto.dev). `fetch
// --trace` runs the load as one sampled distributed trace, so the file
// is a single clock-aligned timeline of this fetch — client spans, the
// storage node's spans (piggybacked on each reply and shifted into the
// client clock via the NTP-style midpoint offset from its receive/send
// stamps), and derived "wire" spans for the request and reply legs —
// all under one trace id, with retries, busy shed and fallback
// decisions as tagged child spans.
//
// `serve` exposes both the baseline object-read RPCs and the NDP
// pre-filter over TCP for every .vnd object under DIR/data/.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "bench_util/table.h"
#include "cluster/fleet_scraper.h"
#include "cluster/sharded_client.h"
#include "obs/merge.h"
#include "contour/contour_filter.h"
#include "obs/event_log.h"
#include "contour/select.h"
#include "io/vnd_format.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "ndp/scrub_verify.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "net/reconnect.h"
#include "net/tcp.h"
#include "testing/chaos.h"
#include "storage/remote_store.h"
#include "render/render_sink.h"
#include "rpc/server.h"
#include "sim/impact.h"
#include "sim/nyx.h"
#include "storage/fault_store.h"
#include "storage/local_store.h"
#include "storage/memory_store.h"
#include "storage/scrubber.h"
#include "storage/store_rpc.h"
#include "testing/fuzz.h"

using namespace vizndp;

namespace {

[[noreturn]] void Usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, "%s",
               "usage: vizndp_tool <command> [options]\n"
               "\n"
               "commands:\n"
               "  gen     --kind impact|nyx --out FILE [--n N] [--timestep T]\n"
               "          [--codec NAME] [--arrays a,b,...] [--bricks EDGE]\n"
               "  info    --in FILE\n"
               "  contour --in FILE --array NAME --iso V[,V...] [--obj FILE]\n"
               "          [--ppm FILE]\n"
               "  select  --in FILE --array NAME --iso V[,V...]\n"
               "  serve   --dir DIR [--port P] [--timeout-ms N]\n"
               "          [--max-inflight N] [--mem-budget-mb N] [--drain-ms N]\n"
               "          [--scrub-ms N] [--store-fault SPEC]\n"
               "  fetch   --host H --port P --key K --array NAME --iso V[,V...]\n"
               "          [--obj FILE] [--timeout-ms N] [--retries N]\n"
               "          [--fault SPEC] [--fallback]\n"
               "          [--connect HOST:PORT]... [--replicas R] [--hedge-ms X]\n"
               "          [--shard-fault I:SPEC]... [--stream]\n"
               "          [--chunk-bricks N] [--chunk-timeout-ms N]\n"
               "          [--no-progress]\n"
               "  metrics --host H --port P [--json | --format text|json|prom]\n"
               "          [--connect HOST:PORT]...  (fleet-merged scrape)\n"
               "  top     [--connect HOST:PORT]... [--once] [--interval-ms N]\n"
               "          [--format text|json|prom] [--timeout-ms N]\n"
               "          [--slo-p99-ms X] [--slo-error-ratio R]\n"
               "          [--slo-window-s S]\n"
               "  health  --host H --port P\n"
               "  fuzz    [--target NAME|all] [--seed S] [--iters N]\n"
               "  chaos   [--seed S] [--schedules N] [--steps N] [--fetches N]\n"
               "          [--servers N] [--replicas R] [--n EDGE] [--verbose]\n"
               "\n"
               "serve overload control:\n"
               "  --max-inflight N   shed requests beyond N concurrent handlers\n"
               "                     with a retryable busy reply (0 = unlimited)\n"
               "  --mem-budget-mb N  shed ndp.select requests whose decompressed\n"
               "                     array would push reserved memory past N MiB\n"
               "  --drain-ms N       graceful-drain budget on Ctrl-C (finish\n"
               "                     in-flight, reject new; default 5000)\n"
               "\n"
               "serve storage integrity:\n"
               "  --scrub-ms N       background scrub cadence: walk the\n"
               "                     catalog, verify per-brick CRCs, and\n"
               "                     quarantine bad bricks (default 5000;\n"
               "                     0 disables)\n"
               "  --store-fault SPEC inject storage faults, e.g. read.eio*2\n"
               "                     (transient, retry heals), get.fatal+,\n"
               "                     any.delay=5000*3, put.flip=7000 (rot at\n"
               "                     rest; the scrubber quarantines it)\n"
               "\n"
               "fuzz (hostile-input smoke test of every decoder):\n"
               "  --target NAME      inflate|gzip|zlib|lz4|rle|msgpack|\n"
               "                     vnd-header|ndp-select|ndp-stream,\n"
               "                     or all (default all)\n"
               "  --seed S           deterministic mutation seed (default 1)\n"
               "  --iters N          iterations per target (default 2000)\n"
               "\n"
               "chaos (seeded kill/restart/delay/corrupt/busy schedules\n"
               "against an in-process cluster + health monitor; geometry must\n"
               "stay bit-identical to the single-server oracle, counters must\n"
               "match the journal, and every restarted node must rejoin):\n"
               "  --seed S           deterministic schedule seed (default 1)\n"
               "  --schedules N      independent schedules to run (default 20)\n"
               "  --steps N          fault steps per schedule (default 8)\n"
               "\n"
               "fetch fault tolerance:\n"
               "  --timeout-ms N   per-RPC deadline (and TCP connect budget)\n"
               "  --retries N      extra attempts for timed-out/lost calls\n"
               "  --fault SPEC     inject faults, e.g. send.drop*2 or\n"
               "                   recv.delay=2000*3 (testing)\n"
               "  --fallback       degrade to the baseline full-array read\n"
               "                   when the NDP path stays unreachable\n"
               "\n"
               "fetch streaming replies (chunked ndp.select):\n"
               "  --stream         per-brick-batch chunk frames instead of one\n"
               "                   monolithic reply; a lost stream resumes from\n"
               "                   the last cursor (same node, then replicas)\n"
               "  --chunk-bricks N straddling bricks per chunk (default 16;\n"
               "                   implies --stream)\n"
               "  --chunk-timeout-ms N  per-chunk progress deadline: a stream\n"
               "                   with no frame for N ms fails typed and\n"
               "                   resumes (0 = only the overall deadline)\n"
               "  --no-progress    suppress the live progress line on stderr\n"
               "\n"
               "fetch sharded serving (two or more --connect endpoints):\n"
               "  --connect H:P    one storage node; repeat per node. The fetch\n"
               "                   scatter-gathers brick-restricted sub-requests\n"
               "                   and merges bit-identical geometry\n"
               "  --replicas R     copies per shard for failover/hedging (def 2)\n"
               "  --hedge-ms X     hedge delay: X>0 fixed ms, 0 adaptive (tail\n"
               "                   quantile), omit to disable hedging\n"
               "  --shard-fault I:SPEC  inject --fault-style faults into server\n"
               "                   I's connection only (testing)\n"
               "\n"
               "top (live fleet dashboard over ndp.metrics + ndp.health):\n"
               "  --connect H:P    one node per flag (or --host/--port for a\n"
               "                   single server); sweeps every node each frame\n"
               "  --once           one sweep, print, exit (for scripts/CI)\n"
               "  --interval-ms N  frame interval in live mode (default 1000)\n"
               "  --format F       text = dashboard table (cleared + redrawn),\n"
               "                   json = one machine-readable snapshot/frame,\n"
               "                   prom = merged exposition, per-node series\n"
               "                   labeled node=\"i\"\n"
               "  --slo-p99-ms X   pre-filter latency objective (default 250)\n"
               "  --slo-error-ratio R  availability objective (default 0.02)\n"
               "  --slo-window-s S     short burn window; long = 5x, budget =\n"
               "                   60x (default 30)\n"
               "\n"
               "global options:\n"
               "  --trace FILE    record spans, write Chrome-tracing JSON (fetch:\n"
               "                  one clock-aligned timeline of the load,\n"
               "                  client + server + wire tracks)\n"
               "  --journal FILE  write the event journal (JSON) on exit\n");
  std::exit(2);
}

class Args {
 public:
  // Keys listed in `flags` are valueless booleans (stored as "1");
  // every other --key consumes the next argument as its value.
  Args(int argc, char** argv, int first, std::set<std::string> flags = {}) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Usage(("unexpected argument: " + key).c_str());
      key = key.substr(2);
      if (flags.count(key) != 0) {
        values_[key].emplace_back("1");
        continue;
      }
      if (i + 1 >= argc) Usage(("missing value for --" + key).c_str());
      values_[key].emplace_back(argv[++i]);
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  // Last occurrence wins for single-valued options.
  std::optional<std::string> Get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt
                               : std::optional<std::string>(it->second.back());
  }

  // Every occurrence, in command-line order — for repeatable options
  // like fetch's --connect HOST:PORT.
  std::vector<std::string> GetAll(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  std::string Require(const std::string& key) const {
    const auto v = Get(key);
    if (!v) Usage(("missing required option --" + key).c_str());
    return *v;
  }

  long GetLong(const std::string& key, long fallback) const {
    const auto v = Get(key);
    return v ? std::atol(v->c_str()) : fallback;
  }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

std::vector<double> ParseIsovalues(const std::string& spec) {
  std::vector<double> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(std::atof(item.c_str()));
  }
  if (out.empty()) Usage("--iso needs at least one value");
  return out;
}

std::vector<std::string> ParseList(const std::string& spec) {
  std::vector<std::string> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Opens a .vnd file from the local filesystem as a reader.
io::VndReader OpenVnd(storage::MemoryObjectStore& store,
                      const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw IoError("cannot open " + path);
  }
  Bytes image((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  store.CreateBucket("local");
  store.Put("local", "file", image);
  return io::VndReader(storage::FileGateway(store, "local").Open("file"));
}

int CmdGen(const Args& args) {
  const std::string kind = args.Require("kind");
  const std::string out_path = args.Require("out");
  const long n = args.GetLong("n", 64);
  grid::Dataset ds;
  if (kind == "impact") {
    sim::ImpactConfig cfg;
    cfg.n = n;
    const long t = args.GetLong("timestep", 24006);
    const auto arrays = args.Get("arrays");
    ds = arrays ? sim::GenerateImpactTimestep(cfg, t, ParseList(*arrays))
                : sim::GenerateImpactTimestep(cfg, t);
  } else if (kind == "nyx") {
    sim::NyxConfig cfg;
    cfg.n = n;
    const auto arrays = args.Get("arrays");
    ds = arrays ? sim::GenerateNyx(cfg, ParseList(*arrays))
                : sim::GenerateNyx(cfg);
  } else {
    Usage("--kind must be impact or nyx");
  }
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec(args.Get("codec").value_or("none")));
  writer.SetBrickSize(static_cast<std::int32_t>(args.GetLong("bricks", 0)));
  const Bytes image = writer.Serialize();
  std::ofstream out(out_path, std::ios::binary);
  if (!out.good()) throw IoError("cannot open " + out_path);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  std::printf("wrote %s (%zu bytes, %zu arrays, %ld^3)\n", out_path.c_str(),
              image.size(), ds.ArrayCount(), n);
  return 0;
}

int CmdInfo(const Args& args) {
  storage::MemoryObjectStore store;
  const io::VndReader reader = OpenVnd(store, args.Require("in"));
  const io::VndHeader& h = reader.header();
  std::printf("dims: %s   origin: (%g, %g, %g)   spacing: (%g, %g, %g)\n",
              h.dims.ToString().c_str(), h.geometry.origin[0],
              h.geometry.origin[1], h.geometry.origin[2],
              h.geometry.spacing[0], h.geometry.spacing[1],
              h.geometry.spacing[2]);
  bench_util::Table table({"array", "type", "codec", "raw", "stored", "ratio"});
  for (const io::ArrayMeta& m : h.arrays) {
    table.AddRow({m.name, grid::DataTypeName(m.type), m.codec,
                  bench_util::FormatBytes(m.raw_size),
                  bench_util::FormatBytes(m.stored_size),
                  bench_util::FormatRatio(static_cast<double>(m.raw_size) /
                                          static_cast<double>(m.stored_size))});
  }
  table.Print(std::cout);
  return 0;
}

int CmdContour(const Args& args) {
  storage::MemoryObjectStore store;
  const io::VndReader reader = OpenVnd(store, args.Require("in"));
  const std::string array = args.Require("array");
  const std::vector<double> isos = ParseIsovalues(args.Require("iso"));
  const contour::ContourFilter filter(isos);
  const contour::PolyData poly =
      filter.Execute(reader.header().dims, reader.header().geometry,
                     reader.ReadArray(array));
  std::printf("contour of %s at %zu isovalue(s): %zu points, %zu triangles, "
              "%zu lines\n",
              array.c_str(), isos.size(), poly.PointCount(),
              poly.TriangleCount(), poly.LineCount());
  if (const auto obj = args.Get("obj")) {
    poly.WriteObj(*obj);
    std::printf("wrote %s\n", obj->c_str());
  }
  if (const auto ppm = args.Get("ppm")) {
    render::Framebuffer fb(800, 600);
    const render::Camera camera({0.5, -1.3, 1.1}, {0.5, 0.5, 0.4}, {0, 0, 1},
                                55.0, 800.0 / 600.0);
    RenderPolyData(poly, camera, {}, fb);
    fb.WritePpm(*ppm);
    std::printf("wrote %s\n", ppm->c_str());
  }
  return 0;
}

int CmdSelect(const Args& args) {
  storage::MemoryObjectStore store;
  const io::VndReader reader = OpenVnd(store, args.Require("in"));
  const std::string array = args.Require("array");
  const std::vector<double> isos = ParseIsovalues(args.Require("iso"));
  const grid::DataArray data = reader.ReadArray(array);
  const contour::Selection sel =
      contour::SelectInterestingPoints(reader.header().dims, data, isos);
  const Bytes payload = ndp::EncodeSelection(sel);

  std::printf("array %s: %zu of %lld points selected (%.4f%%)\n",
              array.c_str(), sel.ids.size(),
              static_cast<long long>(sel.total_points),
              100.0 * sel.Selectivity());
  std::printf(
      "payload (run-length): %zu bytes = %.1fx reduction vs raw array\n",
      payload.size(),
      static_cast<double>(data.byte_size()) /
          static_cast<double>(std::max<size_t>(1, payload.size())));
  return 0;
}

volatile std::sig_atomic_t g_serve_interrupted = 0;

int CmdServe(const Args& args) {
  const std::string dir = args.Require("dir");
  const auto port = static_cast<std::uint16_t>(args.GetLong("port", 47801));
  // The serve process always records spans: a sampled request's server
  // spans ride back on its reply, and a node records them only while
  // its tracer is on. The ring buffer caps memory.
  obs::GlobalTracer().Enable();
  storage::LocalObjectStore store(dir);
  store.CreateBucket("data");
  // Every server-side read goes through the fault decorator; with no
  // --store-fault spec it is a pass-through.
  storage::FaultInjectingStore faulty_store(store);
  if (const auto spec = args.Get("store-fault")) {
    storage::ApplyStoreFaultSpec(faulty_store, *spec);
    std::printf("store faults armed: %s\n", spec->c_str());
  }
  rpc::Server rpc_server;
  rpc::ServerOptions server_options;
  server_options.request_deadline =
      std::chrono::milliseconds(args.GetLong("timeout-ms", 0));
  server_options.max_inflight =
      static_cast<int>(args.GetLong("max-inflight", 0));
  server_options.mem_budget_bytes =
      static_cast<std::uint64_t>(args.GetLong("mem-budget-mb", 0)) << 20;
  server_options.drain_deadline =
      std::chrono::milliseconds(args.GetLong("drain-ms", 5000));
  rpc_server.SetOptions(server_options);
  storage::BindObjectStoreRpc(rpc_server, faulty_store);
  ndp::NdpServer ndp_server(storage::FileGateway(faulty_store, "data"));
  ndp_server.SetMemoryBudget(&rpc_server.memory_budget());
  // Background scrub: walk the catalog at a jittered cadence, verify
  // per-brick CRCs, and quarantine bad bricks so the pre-filter skips
  // them straight to recovery. --scrub-ms 0 disables.
  const long scrub_ms = args.GetLong("scrub-ms", 5000);
  storage::QuarantineSet quarantine;
  std::unique_ptr<storage::Scrubber> scrubber;
  if (scrub_ms > 0) {
    storage::ScrubberOptions scrub_options;
    scrub_options.period = std::chrono::milliseconds(scrub_ms);
    scrubber = std::make_unique<storage::Scrubber>(
        storage::FileGateway(faulty_store, "data"),
        ndp::MakeVndScrubVerifier(
            storage::FileGateway(faulty_store, "data"), quarantine,
            &rpc_server.memory_budget()),
        quarantine, scrub_options);
    ndp_server.SetQuarantine(&quarantine);
    ndp_server.SetScrubber(scrubber.get());
  }
  ndp_server.Bind(rpc_server);
  if (scrubber != nullptr) scrubber->Start();
  rpc::TcpRpcServer tcp(rpc_server, port);
  // Machine-readable first line — `--port 0` lets the OS pick, and shell
  // harnesses (tools/check.sh) parse the choice from here.
  std::printf("port: %u\n", tcp.port());
  std::fflush(stdout);
  std::printf("serving %s/data on 127.0.0.1:%u (baseline reads + NDP "
              "pre-filter); Ctrl-C drains and stops\n",
              dir.c_str(), tcp.port());
  std::fflush(stdout);
  std::signal(SIGINT, [](int) { g_serve_interrupted = 1; });
  std::signal(SIGTERM, [](int) { g_serve_interrupted = 1; });
  while (g_serve_interrupted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("draining (up to %ld ms)...\n", args.GetLong("drain-ms", 5000));
  if (scrubber != nullptr) {
    scrubber->Stop();
    const storage::ScrubStatus scrub = scrubber->status();
    std::printf("scrub: passes=%llu bricks=%llu corrupt=%llu "
                "quarantined=%llu readmitted=%llu\n",
                static_cast<unsigned long long>(scrub.passes),
                static_cast<unsigned long long>(scrub.bricks_checked),
                static_cast<unsigned long long>(scrub.corrupt_found),
                static_cast<unsigned long long>(scrub.quarantined_now),
                static_cast<unsigned long long>(scrub.readmitted));
  }
  tcp.Stop();
  std::printf("stopped; served %llu request(s), shed %llu as busy\n",
              static_cast<unsigned long long>(rpc_server.requests_served()),
              static_cast<unsigned long long>(
                  rpc_server.metrics().GetCounter("rpc_busy_rejected_total")
                      .value()));
  return 0;
}

// "HOST:PORT" → pair; bare "PORT" assumes localhost.
std::pair<std::string, std::uint16_t> ParseEndpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return {"127.0.0.1", static_cast<std::uint16_t>(std::atoi(spec.c_str()))};
  }
  return {spec.substr(0, colon),
          static_cast<std::uint16_t>(std::atoi(spec.c_str() + colon + 1))};
}

int CmdFetch(const Args& args) {
  ndp::NdpClientOptions options;
  options.call_timeout =
      std::chrono::milliseconds(args.GetLong("timeout-ms", 0));
  options.retry.max_attempts =
      1 + static_cast<int>(std::max(0L, args.GetLong("retries", 0)));

  net::TcpOptions tcp_options;
  tcp_options.connect_timeout = options.call_timeout;

  // Endpoints: either the classic --host/--port single server, or one
  // --connect HOST:PORT per storage node of a sharded serving tier.
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
  for (const std::string& spec : args.GetAll("connect")) {
    endpoints.push_back(ParseEndpoint(spec));
  }
  if (endpoints.empty()) {
    endpoints.emplace_back(
        args.Get("host").value_or("127.0.0.1"),
        static_cast<std::uint16_t>(args.GetLong("port", 47801)));
  }

  // --shard-fault I:SPEC injects faults into server I's connection only
  // (e.g. --shard-fault 1:recv.delay=300 makes shard 1 slow enough that
  // hedges fire); --fault applies to every connection.
  std::map<int, std::string> shard_faults;
  for (const std::string& spec : args.GetAll("shard-fault")) {
    const size_t colon = spec.find(':');
    if (colon == std::string::npos) Usage("--shard-fault needs I:SPEC");
    shard_faults[std::atoi(spec.c_str())] = spec.substr(colon + 1);
  }

  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    net::TransportPtr transport;
    if (endpoints.size() == 1) {
      transport = net::TcpConnect(endpoints[i].first, endpoints[i].second,
                                  tcp_options);  // a lone server must answer
    } else {
      // Sharded tier: every channel re-dials on use, so a node that is
      // down now — not yet started, or killed and restarted — becomes
      // usable the moment it listens again. While it stays down each use
      // fails with peer-closed and the replica chain fails over.
      auto dial = [host = endpoints[i].first, port = endpoints[i].second,
                   tcp_options] { return net::TcpConnect(host, port,
                                                         tcp_options); };
      try {
        (void)dial();  // early warning only; the transport dials lazily
      } catch (const Error& e) {
        std::fprintf(stderr, "[warn] server %zu (%s:%u) unreachable: %s\n",
                     i, endpoints[i].first.c_str(), endpoints[i].second,
                     e.what());
      }
      transport = std::make_unique<net::ReconnectingTransport>(dial);
    }
    // Inject faults into the NDP connection(s) only; a --fallback read
    // uses a separate, clean connection (the baseline path stand-in).
    if (const auto fault = args.Get("fault")) {
      transport = net::WrapWithFaults(std::move(transport), *fault);
    }
    const auto sf = shard_faults.find(static_cast<int>(i));
    if (sf != shard_faults.end()) {
      transport = net::WrapWithFaults(std::move(transport), sf->second);
    }
    clients.push_back(std::make_shared<ndp::NdpClient>(
        std::make_shared<rpc::Client>(std::move(transport)), "data",
        options));
  }

  // Streaming mode: --stream (or --chunk-bricks, which implies it)
  // switches the fetch to chunked replies with cursor resume. The
  // progress line answers "is anything happening?" during a long fetch
  // — chunks, bricks, points so far — without waiting for completion.
  const bool want_stream = args.Has("stream") || args.Has("chunk-bricks");
  const bool show_progress = want_stream && !args.Has("no-progress");
  ndp::StreamOptions stream_options;
  struct ProgressAgg {
    std::mutex mu;
    std::vector<ndp::StreamProgress> per_client;
  };
  auto agg = std::make_shared<ProgressAgg>();
  if (want_stream) {
    stream_options.chunk_bricks = args.GetLong("chunk-bricks", 16);
    stream_options.chunk_timeout =
        std::chrono::milliseconds(args.GetLong("chunk-timeout-ms", 0));
    agg->per_client.resize(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->SetStream(stream_options);
      if (show_progress) {
        // Sharded fetches stream from several nodes at once; aggregate
        // the per-client snapshots so the line shows fleet totals.
        clients[i]->SetStreamProgress(
            [agg, i](const ndp::StreamProgress& p) {
              std::lock_guard lk(agg->mu);
              agg->per_client[i] = p;
              std::uint64_t chunks = 0;
              std::uint64_t points = 0;
              std::uint64_t resumes = 0;
              std::int64_t done = 0;
              std::int64_t total = 0;
              for (const ndp::StreamProgress& q : agg->per_client) {
                chunks += q.chunks;
                points += q.points;
                resumes += q.resumes;
                done += q.bricks_done;
                total += q.stream_bricks;
              }
              const std::string tail =
                  resumes != 0 ? "  resumes " + std::to_string(resumes)
                               : std::string();
              std::fprintf(stderr,
                           "\r[stream] chunks %llu  bricks %lld/%lld  "
                           "points %llu%s   ",
                           static_cast<unsigned long long>(chunks),
                           static_cast<long long>(done),
                           static_cast<long long>(total),
                           static_cast<unsigned long long>(points),
                           tail.c_str());
            });
      }
    }
  }

  std::shared_ptr<ndp::NdpFetcher> fetcher;
  std::shared_ptr<cluster::ShardedNdpClient> sharded;
  if (clients.size() > 1) {
    cluster::ShardedClientOptions sharded_options;
    // Off unless asked: 0 = adaptive (tail-quantile), >0 fixed ms.
    sharded_options.hedge_ms = args.Has("hedge-ms")
                                   ? std::atof(args.Require("hedge-ms").c_str())
                                   : -1.0;
    sharded = std::make_shared<cluster::ShardedNdpClient>(
        clients, static_cast<int>(args.GetLong("replicas", 2)),
        sharded_options);
    fetcher = sharded;
    if (want_stream) sharded->SetStream(stream_options);
  } else {
    fetcher = clients.front();
  }

  ndp::NdpContourSource source(fetcher, args.Require("key"),
                               args.Require("array"),
                               ParseIsovalues(args.Require("iso")));
  std::shared_ptr<rpc::Client> fallback_rpc;
  std::unique_ptr<storage::RemoteObjectStore> fallback_store;
  if (args.Has("fallback")) {
    fallback_rpc = std::make_shared<rpc::Client>(net::TcpConnect(
        endpoints.front().first, endpoints.front().second, tcp_options));
    fallback_store = std::make_unique<storage::RemoteObjectStore>(fallback_rpc);
    source.SetFallback(storage::FileGateway(*fallback_store, "data"));
  }

  const contour::PolyData& poly = source.UpdateAndGetOutput()->AsPolyData();
  const ndp::NdpLoadStats& stats = source.last_stats();
  if (show_progress) std::fprintf(stderr, "\n");
  if (stats.streamed) {
    std::printf("stream: %llu chunk(s), %llu resume(s)\n",
                static_cast<unsigned long long>(stats.stream_chunks),
                static_cast<unsigned long long>(stats.stream_resumes));
  }
  if (stats.used_fallback) {
    std::printf("baseline contour (NDP path unavailable, fell back): "
                "%zu triangles; read %llu raw bytes\n",
                poly.TriangleCount(),
                static_cast<unsigned long long>(stats.raw_bytes));
  } else {
    std::printf("NDP contour: %zu triangles; %llu of %llu points (%.4f%%), "
                "payload %llu bytes\n",
                poly.TriangleCount(),
                static_cast<unsigned long long>(stats.selected_points),
                static_cast<unsigned long long>(stats.total_points),
                100.0 * stats.Selectivity(),
                static_cast<unsigned long long>(stats.payload_bytes));
  }
  if (sharded != nullptr) {
    // The hedging scoreboard for this run (process-wide counters: this
    // fetch is the only traffic in a CLI invocation).
    obs::Registry& reg = obs::DefaultRegistry();
    std::printf(
        "cluster: %d server(s) x %d replica(s); hedges launched %llu, "
        "won %llu, lost %llu; failovers %llu\n",
        sharded->server_count(), sharded->shard_map().replicas(),
        static_cast<unsigned long long>(
            reg.GetCounter("ndp_hedge_launched_total").value()),
        static_cast<unsigned long long>(
            reg.GetCounter("ndp_hedge_won_total").value()),
        static_cast<unsigned long long>(
            reg.GetCounter("ndp_hedge_lost_total").value()),
        static_cast<unsigned long long>(
            reg.GetCounter("cluster_failover_total").value()));
  }
  if (const auto obj = args.Get("obj")) {
    poly.WriteObj(*obj);
    std::printf("wrote %s\n", obj->c_str());
  }
  // Under --trace the load ran as one sampled trace: every attempt's
  // server half came back on its reply, already clock-aligned into this
  // process's buffer, so main's export is the merged timeline.
  if (stats.trace_id != 0) {
    std::printf("trace %s\n", obs::TraceIdHex(stats.trace_id).c_str());
  }
  return 0;
}

// Endpoints for the observability commands: repeatable --connect H:P,
// falling back to the classic --host/--port single server.
std::vector<std::pair<std::string, std::uint16_t>> ScrapeEndpoints(
    const Args& args) {
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
  for (const std::string& spec : args.GetAll("connect")) {
    endpoints.push_back(ParseEndpoint(spec));
  }
  if (endpoints.empty()) {
    endpoints.emplace_back(
        args.Get("host").value_or("127.0.0.1"),
        static_cast<std::uint16_t>(args.GetLong("port", 47801)));
  }
  return endpoints;
}

// One dedicated reconnecting client per endpoint — a dead node fails
// fast (connect timeout) instead of hanging the sweep, and a restarted
// one becomes scrapeable again without rebuilding the client.
std::vector<std::shared_ptr<ndp::NdpClient>> ScrapeClients(
    const std::vector<std::pair<std::string, std::uint16_t>>& endpoints,
    long timeout_ms) {
  ndp::NdpClientOptions options;
  options.call_timeout = std::chrono::milliseconds(timeout_ms);
  net::TcpOptions tcp_options;
  tcp_options.connect_timeout = options.call_timeout;
  std::vector<std::shared_ptr<ndp::NdpClient>> clients;
  for (const auto& [host, port] : endpoints) {
    auto dial = [host, port, tcp_options] {
      return net::TcpConnect(host, port, tcp_options);
    };
    clients.push_back(std::make_shared<ndp::NdpClient>(
        std::make_shared<rpc::Client>(
            std::make_unique<net::ReconnectingTransport>(dial)),
        "data", options));
  }
  return clients;
}

int CmdMetrics(const Args& args) {
  // --format asks the storage node to render server-side (text, json, or
  // prom — Prometheus exposition for a scrape endpoint); --json is the
  // older spelling of --format json.
  const std::string format =
      args.Get("format").value_or(args.Has("json") ? "json" : "text");
  const auto endpoints = ScrapeEndpoints(args);
  if (endpoints.size() == 1) {
    ndp::NdpClient client(
        std::make_shared<rpc::Client>(
            net::TcpConnect(endpoints[0].first, endpoints[0].second)),
        "data");
    std::cout << client.ScrapeMetricsFormatted(format);
    if (format == "json") std::cout << "\n";
    return 0;
  }
  // Several --connect endpoints: scrape them all. text/json render the
  // fleet-merged view; prom keeps per-node series distinguishable with a
  // node="<i>" label (the exposition a Prometheus scraper would want).
  const auto clients =
      ScrapeClients(endpoints, args.GetLong("timeout-ms", 2000));
  std::vector<std::vector<obs::MetricSnapshot>> sources;
  std::vector<obs::MetricSnapshot> labeled;
  for (size_t i = 0; i < clients.size(); ++i) {
    std::vector<obs::MetricSnapshot> snap = clients[i]->ScrapeMetrics();
    if (format == "prom") {
      std::vector<obs::MetricSnapshot> with_node =
          obs::WithLabel(std::move(snap), "node", std::to_string(i));
      labeled.insert(labeled.end(),
                     std::make_move_iterator(with_node.begin()),
                     std::make_move_iterator(with_node.end()));
    } else {
      sources.push_back(std::move(snap));
    }
  }
  if (format == "prom") {
    std::cout << obs::SnapshotToProm(labeled);
    return 0;
  }
  obs::MergeOptions merge_options;
  merge_options.gauge_policy = obs::DefaultFleetGaugePolicy;
  std::cout << obs::FormatSnapshot(obs::MergeSnapshots(sources, merge_options),
                                   format);
  if (format == "json") std::cout << "\n";
  return 0;
}

volatile std::sig_atomic_t g_top_interrupted = 0;

int CmdTop(const Args& args) {
  const auto endpoints = ScrapeEndpoints(args);
  const auto clients =
      ScrapeClients(endpoints, args.GetLong("timeout-ms", 2000));
  const std::chrono::milliseconds interval(args.GetLong("interval-ms", 1000));
  cluster::FleetScraperOptions fleet_opts;
  fleet_opts.objectives = cluster::DefaultFleetObjectives(
      std::atof(args.Get("slo-p99-ms").value_or("250").c_str()),
      std::atof(args.Get("slo-error-ratio").value_or("0.02").c_str()),
      std::atof(args.Get("slo-window-s").value_or("30").c_str()));
  cluster::FleetScraper scraper(clients, fleet_opts);
  const std::string format = args.Get("format").value_or("text");
  if (format != "text" && format != "json" && format != "prom") {
    Usage("top --format must be text, json, or prom");
  }
  auto render = [&](const cluster::FleetScraper::FleetSnapshot& snap) {
    if (format == "json") {
      std::cout << cluster::FleetSnapshotJson(snap) << "\n";
    } else if (format == "prom") {
      std::cout << cluster::FleetSnapshotProm(snap);
    } else {
      std::cout << cluster::FleetSnapshotText(snap);
    }
    std::cout.flush();
  };
  if (args.Has("once")) {
    render(*scraper.ScrapeOnce());
    return 0;
  }
  // Live dashboard: sweep on the interval, clear + redraw between
  // frames (text only — json/prom stream one block per sweep).
  std::signal(SIGINT, [](int) { g_top_interrupted = 1; });
  std::signal(SIGTERM, [](int) { g_top_interrupted = 1; });
  while (g_top_interrupted == 0) {
    const auto snap = scraper.ScrapeOnce();
    if (format == "text") std::fputs("\033[H\033[2J", stdout);
    render(*snap);
    const auto wake = std::chrono::steady_clock::now() + interval;
    while (g_top_interrupted == 0 &&
           std::chrono::steady_clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return 0;
}

int CmdHealth(const Args& args) {
  const std::string host = args.Get("host").value_or("127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.GetLong("port", 47801));
  ndp::NdpClient client(
      std::make_shared<rpc::Client>(net::TcpConnect(host, port)), "data");
  const ndp::NdpClient::HealthReport health = client.Health();
  std::printf("draining: %s   in-flight: %lld   memory: %s",
              health.draining ? "yes" : "no",
              static_cast<long long>(health.inflight),
              bench_util::FormatBytes(health.mem_in_use).c_str());
  if (health.mem_limit != 0) {
    std::printf(" of %s budget", bench_util::FormatBytes(health.mem_limit).c_str());
  }
  std::printf("\n");
  if (!health.requests.empty()) {
    bench_util::Table table({"method", "trace", "age"});
    for (const auto& r : health.requests) {
      table.AddRow({r.method,
                    r.trace_id == 0 ? "-" : obs::TraceIdHex(r.trace_id),
                    std::to_string(r.age_us / 1000) + " ms"});
    }
    table.Print(std::cout);
  }
  return 0;
}

int CmdFuzz(const Args& args) {
  const std::string wanted = args.Get("target").value_or("all");
  const auto seed = static_cast<std::uint64_t>(args.GetLong("seed", 1));
  const auto iters = static_cast<std::uint64_t>(args.GetLong("iters", 2000));

  std::vector<vizndp::testing::FuzzTarget> targets =
      vizndp::testing::BuiltinFuzzTargets();
  bool matched = false;
  bench_util::Table table({"target", "iterations", "accepted", "rejected"});
  for (const auto& target : targets) {
    if (wanted != "all" && wanted != target.name) continue;
    matched = true;
    const vizndp::testing::FuzzReport report =
        vizndp::testing::RunFuzzTarget(target, seed, iters);
    table.AddRow({target.name, std::to_string(report.iterations),
                  std::to_string(report.accepted),
                  std::to_string(report.rejected)});
  }
  if (!matched) {
    std::string names;
    for (const auto& t : targets) names += " " + t.name;
    Usage(("unknown --target; available:" + names).c_str());
  }
  table.Print(std::cout);
  std::printf("every non-accepted input rejected with a typed error "
              "(seed %llu)\n",
              static_cast<unsigned long long>(seed));
  return 0;
}

int CmdChaos(const Args& args) {
  vizndp::testing::ChaosOptions options;
  options.seed = static_cast<std::uint64_t>(args.GetLong("seed", 1));
  options.schedules = static_cast<int>(args.GetLong("schedules", 20));
  options.steps = static_cast<int>(args.GetLong("steps", 8));
  options.fetches_per_step = static_cast<int>(args.GetLong("fetches", 2));
  options.servers = static_cast<int>(args.GetLong("servers", 3));
  options.replicas = static_cast<int>(args.GetLong("replicas", 2));
  options.n = static_cast<int>(args.GetLong("n", 16));
  options.verbose = args.Has("verbose");

  const vizndp::testing::ChaosReport report =
      vizndp::testing::RunChaos(options);
  std::printf("%s\n", report.Summary().c_str());
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::printf("chaos %s: %d schedule(s), seed %llu\n",
              report.ok() ? "PASS" : "FAIL", report.schedules,
              static_cast<unsigned long long>(options.seed));
  return report.ok() ? 0 : 1;
}

// Valueless boolean flags accepted by each command (everything else
// takes a value).
std::set<std::string> BoolFlags(const std::string& command) {
  if (command == "metrics") return {"json"};
  if (command == "fetch") return {"fallback", "stream", "no-progress"};
  if (command == "chaos") return {"verbose"};
  if (command == "top") return {"once"};
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2, BoolFlags(command));
  const auto trace_path = args.Get("trace");
  if (trace_path) obs::GlobalTracer().Enable();
  try {
    int rc = 2;
    if (command == "gen") rc = CmdGen(args);
    else if (command == "info") rc = CmdInfo(args);
    else if (command == "contour") rc = CmdContour(args);
    else if (command == "select") rc = CmdSelect(args);
    else if (command == "serve") rc = CmdServe(args);
    else if (command == "fetch") rc = CmdFetch(args);
    else if (command == "metrics") rc = CmdMetrics(args);
    else if (command == "top") rc = CmdTop(args);
    else if (command == "health") rc = CmdHealth(args);
    else if (command == "fuzz") rc = CmdFuzz(args);
    else if (command == "chaos") rc = CmdChaos(args);
    else Usage(("unknown command: " + command).c_str());
    if (trace_path) {
      std::ofstream out(*trace_path, std::ios::binary);
      if (!out.good()) throw IoError("cannot open " + *trace_path);
      obs::GlobalTracer().WriteChromeJson(out);
      std::printf("wrote %s (%zu trace events)\n", trace_path->c_str(),
                  obs::GlobalTracer().event_count());
    }
    if (const auto journal_path = args.Get("journal")) {
      std::ofstream out(*journal_path, std::ios::binary);
      if (!out.good()) throw IoError("cannot open " + *journal_path);
      out << obs::GlobalEventLog().Json() << "\n";
      std::printf("wrote %s (event journal)\n", journal_path->c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
