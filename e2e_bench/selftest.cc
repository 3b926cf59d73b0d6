#include "selftest.h"

#include <cmath>
#include <string>
#include <thread>

#include "compress/codec.h"
#include "contour/marching_cubes.h"
#include "io/vnd_format.h"
#include "net/inproc.h"
#include "reducer.h"
#include "workload.h"

namespace vizndp::e2e {

namespace {

constexpr std::int64_t kN = 32;

struct Checker {
  std::ostream& log;
  bool ok = true;

  void Expect(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      log << "[selftest] FAIL: " << what << "\n";
    }
  }
  void Near(double got, double want, const std::string& what) {
    Expect(std::abs(got - want) < 1e-9,
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
};

// Both ends of an in-proc connection counted independently: what one
// end sent must be what the other received, frame for frame.
void DecoratorCounts(Checker& c, const grid::Dataset& dataset) {
  for (const std::int64_t chunk_bricks : {0, 2}) {
    const std::string mode = chunk_bricks == 0 ? "one-shot" : "streamed";
    storage::MemoryObjectStore memory;
    StoreCounters store_counters;
    CountingStore store(memory, store_counters);
    store.CreateBucket("data");
    io::VndWriter writer(dataset);
    writer.SetCodec(compress::MakeCodec("lz4"));
    writer.SetBrickSize(8);
    writer.WriteToStore(store, "data", kKey);

    rpc::Server server;
    ndp::NdpServer ndp(storage::FileGateway(store, "data"));
    ndp.Bind(server);
    NetCounters client_side;
    NetCounters server_side;
    net::TransportPair pair = net::CreateInProcPair();
    CountingTransport server_end(std::move(pair.a), server_side);
    std::thread serve([&] { server.ServeTransport(server_end); });
    ndp::NdpLoadStats stats;
    {
      ndp::NdpClient client(
          std::make_shared<rpc::Client>(std::make_unique<CountingTransport>(
              std::move(pair.b), client_side)),
          "data");
      ndp::StreamOptions stream;
      stream.chunk_bricks = chunk_bricks;
      client.SetStream(stream);
      grid::UniformGeometry geometry;
      client.FetchSparseField(kKey, kArray, {0.5}, &geometry, &stats);
    }
    server.Stop();
    serve.join();

    const NetCounters::Snapshot cs = client_side.Read();
    const NetCounters::Snapshot ss = server_side.Read();
    c.Expect(cs.frames_up == 1 && ss.frames_down == 1,
             mode + ": one request frame each way");
    c.Expect(cs.bytes_up == ss.bytes_down,
             mode + ": request bytes sent == received");
    c.Expect(cs.frames_down == ss.frames_up,
             mode + ": reply frames sent == received");
    c.Expect(cs.bytes_down == ss.bytes_up,
             mode + ": reply bytes sent == received");
    // Streamed: header, one frame per data chunk, terminal.
    const std::uint64_t reply_frames =
        chunk_bricks == 0 ? 1 : stats.stream_chunks + 2;
    c.Expect(cs.frames_down == reply_frames,
             mode + ": reply frame count follows the protocol");
    c.Expect(chunk_bricks == 0 || stats.stream_chunks >= 2,
             mode + ": the stream has several chunks");
    c.Expect(cs.bytes_down > stats.payload_bytes,
             mode + ": reply frames carry the payload");
    const StoreCounters::Snapshot st = store_counters.Read();
    c.Expect(st.ops > 0 && st.bytes_read >= stats.stored_bytes,
             mode + ": store reads cover the bytes the server reports");
  }
}

obs::DrainedEvent Ev(std::string name, std::uint64_t start_ms,
                     std::uint64_t end_ms, std::uint64_t id,
                     std::uint64_t parent) {
  return {std::move(name), std::string("t"), start_ms * 1000,
          (end_ms - start_ms) * 1000, /*trace_id=*/1, id, parent};
}

void ReducerSelfTimes(Checker& c) {
  // A serial one-shot request.
  const Reduction one = Reduce({
      Ev("bench.contour", 0, 100, 1, 0),
      Ev("ndp.fetch", 0, 60, 2, 1),
      Ev("ndp.partial", 0, 40, 3, 2),
      Ev("rpc.call:ndp.select", 0, 38, 4, 3),
      Ev("rpc.attempt:ndp.select", 1, 38, 5, 4),
      Ev("wire:request", 1, 3, 6, 5),
      Ev("rpc.dispatch:ndp.select", 3, 33, 7, 5),
      Ev("ndp.select", 4, 32, 8, 7),
      Ev("ndp.read", 4, 24, 9, 8),
      Ev("gateway.read", 5, 7, 10, 9),
      Ev("codec.decompress:lz4", 8, 18, 11, 9),
      Ev("ndp.pack", 25, 30, 12, 8),
      Ev("wire:reply", 33, 38, 13, 5),
      Ev("ndp.decode", 38, 40, 14, 3),
      Ev("ndp.scatter", 50, 55, 15, 2),
      Ev("contour.post", 62, 98, 16, 1),
  });
  c.Near(one.SelfMs("ndp.read"), 8, "ndp.read self");
  c.Near(one.SelfMs("ndp.fetch"), 15, "ndp.fetch self (field build)");
  c.Near(one.SelfMs("rpc.dispatch:"), 2, "rpc.dispatch self");
  c.Near(one.client_wait_ms, 8, "client wait, one-shot");
  c.Near(one.unattributed_ms, 4, "unattributed, one-shot");
  double layers = 0;
  for (const auto& [layer, ms] : one.LayerSelfMs()) layers += ms;
  c.Near(layers + one.unattributed_ms, 100,
         "layer self times + unattributed == wall");

  // Parallel shards, a child sticking out of its parent, a stream whose
  // client callbacks overlap the server dispatch, and an orphan.
  const Reduction fan = Reduce({
      Ev("bench.contour", 0, 100, 1, 0),
      Ev("cluster.fetch", 0, 50, 2, 1),
      Ev("cluster.shard0", 0, 40, 3, 2),
      Ev("cluster.shard1", 5, 35, 4, 2),
      Ev("cluster.shard2", 10, 30, 5, 2),
      Ev("rpc.stream:ndp.select", 30, 45, 6, 5),
      Ev("rpc.dispatch:ndp.select", 32, 40, 7, 6),
      Ev("ndp.decode", 38, 42, 8, 6),
      Ev("ndp.scatter", 60, 61, 9, 999),
      Ev("wire:request", 30, 36, 10, 6),
  });
  for (const auto& [layer, ms] : fan.LayerSelfMs()) {
    c.Expect(layer != "net", "a stream's wire pseudo-spans are dropped");
  }
  c.Near(fan.SelfMs("cluster.fetch"), 10, "cluster.fetch self over shards");
  c.Near(fan.SelfMs("cluster.shard2"), 20, "child clipped to its parent");
  c.Near(fan.client_wait_ms, 5, "client wait, streamed");
  c.Near(fan.unattributed_ms, 50, "unattributed, fan-out");
  const std::vector<double> shards = fan.Durations("cluster.shard");
  c.Expect(shards == std::vector<double>{40, 30, 20}, "shard durations");
  c.Expect(LayerOf("gateway.read") == "storage" &&
               LayerOf("codec.decompress:lz4") == "compress" &&
               LayerOf("wire:reply") == "net" &&
               LayerOf("rpc.dispatch:ndp.select") == "rpc" &&
               LayerOf("bench.contour").empty(),
           "span names map to layers");
}

// A copy of `from` keeping its first `triangles` triangles; `nudge`
// moves the first triangle's first vertex by one ulp.
contour::PolyData Copy(const contour::PolyData& from, size_t triangles,
                       bool nudge) {
  contour::PolyData out;
  const contour::PolyData::Index moved = from.triangles()[0][0];
  for (size_t i = 0; i < from.points().size(); ++i) {
    contour::Vec3 p = from.points()[i];
    if (nudge && i == moved) p.x = std::nextafter(p.x, 2.0);
    out.AddPoint(p);
  }
  for (size_t i = 0; i < triangles; ++i) {
    const auto& t = from.triangles()[i];
    out.AddTriangle(t[0], t[1], t[2]);
  }
  return out;
}

void OracleRejects(Checker& c, const grid::Dataset& dataset) {
  const std::vector<double> iso = {0.5};
  const contour::PolyData oracle = contour::MarchingCubes(
      dataset.dims(), dataset.geometry(), dataset.GetArray(kArray), iso);
  const size_t n = oracle.TriangleCount();
  c.Expect(n > 1, "oracle has triangles");
  if (n <= 1) return;
  c.Expect(MatchesOracle(Copy(oracle, n, false), oracle),
           "oracle accepts an identical copy");
  c.Expect(!MatchesOracle(Copy(oracle, n, true), oracle),
           "oracle rejects a vertex moved by one ulp");
  c.Expect(!MatchesOracle(Copy(oracle, n - 1, false), oracle),
           "oracle rejects a dropped triangle");
}

// Every workload's wiring at 32^3, twice per seed: same requests, same
// bytes on the wire, geometry equal to the oracle.
void SameSeedSameWire(Checker& c, const grid::Dataset& dataset) {
  constexpr std::uint64_t kSeed = 3;
  for (const WorkloadSpec& spec : Workloads()) {
    std::vector<IsoSet> seen[2];
    std::uint64_t wire[2] = {0, 0};
    for (int run = 0; run < 2; ++run) {
      Deployment deployment(spec, dataset);
      for (const size_t request : CycleOrder(spec, kSeed)) {
        const IsoSet& isos = spec.cycle[request];
        const RequestResult r = RunRequest(deployment, spec, isos, false);
        const contour::PolyData oracle = contour::MarchingCubes(
            dataset.dims(), dataset.geometry(), dataset.GetArray(kArray),
            isos);
        c.Expect(MatchesOracle(r.poly, oracle),
                 spec.name + ": 32^3 contour equals the oracle");
        seen[run].push_back(isos);
        wire[run] += r.net.bytes_up + r.net.bytes_down;
      }
    }
    c.Expect(seen[0] == seen[1], spec.name + ": same request sequence");
    c.Expect(wire[0] == wire[1] && wire[0] > 0,
             spec.name + ": same wire bytes per contour");
    bool order_varies = false;
    for (std::uint64_t s = 0; s < 8 && !order_varies; ++s) {
      order_varies = CycleOrder(spec, s) != CycleOrder(spec, kSeed);
    }
    c.Expect(order_varies, spec.name + ": the seed picks the cycle order");
  }
}

}  // namespace

bool RunSelfTests(std::ostream& log) {
  Checker c{log};
  const grid::Dataset dataset = MakeDataset(kN);
  DecoratorCounts(c, dataset);
  ReducerSelfTimes(c);
  OracleRejects(c, dataset);
  SameSeedSameWire(c, dataset);
  if (c.ok) log << "[selftest] all checks pass\n";
  return c.ok;
}

}  // namespace vizndp::e2e
