// Failure injection: corrupt objects, tampered payloads, dead peers, and
// concurrent access. The system must fail loudly (typed exceptions), keep
// serving after per-request failures, and never return wrong geometry.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "bench_util/testbed.h"
#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "ndp/protocol.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "sim/impact.h"

namespace vizndp {
namespace {

using namespace std::chrono_literals;
using bench_util::Testbed;

Bytes MakeVndImage(int n = 16, const std::string& codec = "gzip") {
  sim::ImpactConfig cfg;
  cfg.n = n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec(codec));
  return writer.Serialize();
}

TEST(Fault, CorruptBlobFailsLoudlyAndServerSurvives) {
  Testbed testbed;
  Bytes image = MakeVndImage();
  Bytes corrupted = image;
  corrupted[corrupted.size() - 10] ^= 0xFF;  // inside the v02 blob
  testbed.store().Put(testbed.bucket(), "bad.vnd", corrupted);
  testbed.store().Put(testbed.bucket(), "good.vnd", image);

  // The pre-filter hits the CRC mismatch server-side; the client sees a
  // typed CorruptDataError naming the failure (carried across the wire
  // by the error prefix) rather than silent bad geometry.
  try {
    testbed.ndp_client().Contour("bad.vnd", "v02", {0.1});
    FAIL() << "expected CorruptDataError";
  } catch (const CorruptDataError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  // Same server connection keeps working afterwards.
  EXPECT_GT(testbed.ndp_client().Contour("good.vnd", "v02", {0.1})
                .TriangleCount(),
            0u);
}

TEST(Fault, TruncatedObjectFails) {
  Testbed testbed;
  Bytes image = MakeVndImage();
  image.resize(image.size() / 2);
  testbed.store().Put(testbed.bucket(), "trunc.vnd", image);
  EXPECT_THROW(testbed.ndp_client().Contour("trunc.vnd", "v02", {0.1}),
               RpcError);
  // Baseline path fails too — now at open, where the header validation
  // catches blobs overrunning the physical file.
  EXPECT_THROW(io::VndReader(testbed.RemoteGateway().Open("trunc.vnd")),
               DecodeError);
}

TEST(Fault, MissingObjectAndMissingArray) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "ok.vnd", MakeVndImage());
  // A missing object is a *storage* failure: the typed IoError crosses
  // the wire (and, being permanent, is never retried client-side).
  EXPECT_THROW(testbed.ndp_client().Contour("nope.vnd", "v02", {0.1}),
               IoError);
  // A missing array is an application error: still a generic RpcError.
  EXPECT_THROW(testbed.ndp_client().Contour("ok.vnd", "prs", {0.1}), RpcError);
  // Server still healthy.
  EXPECT_GT(
      testbed.ndp_client().Contour("ok.vnd", "v02", {0.1}).TriangleCount(),
      0u);
}

TEST(Fault, TamperedSelectionPayloadRejected) {
  // Build a valid payload, then flip bytes; the decoder must throw, not
  // reconstruct garbage.
  const grid::Dims dims{8, 8, 8};
  std::vector<float> f(512, 0.0f);
  f[static_cast<size_t>(dims.Index(4, 4, 4))] = 1.0f;
  const auto a = grid::DataArray::FromVector("f", f);
  const double iso[] = {0.5};
  const contour::Selection sel =
      contour::SelectInterestingPoints(dims, a, iso);
  const Bytes payload = ndp::EncodeSelection(sel);
  // Claim twice as many points as the payload carries.
  Bytes counterfeit = payload;
  StoreLE<std::uint64_t>(sel.ids.size() * 2, counterfeit.data() + 2);
  EXPECT_THROW(ndp::DecodeSelection(counterfeit, dims), DecodeError);
  // Truncate the value block.
  Bytes truncated = payload;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(ndp::DecodeSelection(truncated, dims), DecodeError);
}

TEST(Fault, GzipCorruptionFuzzAllDetected) {
  // CRC-32 detects every burst error up to 32 bits, so any single-bit
  // flip anywhere in a gzip member must either throw or (for flips in
  // don't-care header fields like MTIME/XFL) still decode exactly.
  std::mt19937 rng(31337);
  Bytes input(20000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<Byte>((i / 13) % 7 * 37 + (rng() % 3));
  }
  const auto codec = compress::MakeCodec("gzip");
  const Bytes good = codec->Compress(input);
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[pos] ^= static_cast<Byte>(1u << bit);
      try {
        const Bytes out = codec->Decompress(bad, input.size());
        ASSERT_EQ(out, input) << "pos " << pos << " bit " << bit;
      } catch (const Error&) {
        // Detected — the expected outcome.
      }
    }
  }
}

TEST(Fault, TruncationFuzz) {
  // Every truncation point of every codec either throws or (for plain
  // prefix-transparent formats) returns data that fails the size check.
  Bytes input(5000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<Byte>(i * 31);
  }
  for (const std::string& name : compress::RegisteredCodecNames()) {
    if (name == "none") continue;
    const auto codec = compress::MakeCodec(name);
    const Bytes good = codec->Compress(input);
    for (size_t cut = 0; cut < good.size(); cut += 97) {
      const Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
      try {
        const Bytes out = codec->Decompress(bad, input.size());
        EXPECT_NE(out, input) << name << " cut " << cut;  // cannot be whole
      } catch (const Error&) {
      }
    }
  }
}

TEST(Fault, ScatterLastWriteWins) {
  contour::SparseField field(grid::Dims{2, 2, 2}, grid::DataType::Float32);
  const std::vector<grid::PointId> ids = {3, 3};
  const auto values =
      grid::DataArray::FromVector("v", std::vector<float>{1.0f, 2.0f});
  field.Scatter(ids, values);
  EXPECT_EQ(field.ValidCount(), 1);  // duplicate id counted once
}

TEST(Fault, ConcurrentStoreAccess) {
  storage::MemoryObjectStore store;
  store.CreateBucket("b");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int i = 0; i < 200; ++i) {
          std::string key = "k";
          key += std::to_string(t);
          key += '_';
          key += std::to_string(i % 8);
          store.Put("b", key, Bytes(64, static_cast<Byte>(i)));
          const Bytes back = store.Get("b", key);
          if (back.size() != 64) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Fault, ConcurrentNdpClientsOnOneTestbed) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", MakeVndImage(12, "lz4"));
  // The shared NdpClient serializes calls internally; hammer it from
  // multiple threads and require identical results.
  const contour::PolyData reference =
      testbed.ndp_client().Contour("t.vnd", "v02", {0.1});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        const contour::PolyData poly =
            testbed.ndp_client().Contour("t.vnd", "v02", {0.1});
        if (!poly.GeometricallyEquals(reference, 0.0)) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Graceful degradation (the PR's acceptance scenario): black-hole the NDP
// connection and require the pipeline to produce the dense baseline's
// exact geometry through the fallback path, with counters telling the
// story.
// ---------------------------------------------------------------------------

// Builds an NdpClient over a fault-injected connection to the testbed's
// server, with short deadlines and a fixed retry budget.
struct DegradedClient {
  net::FaultInjectingTransport* faults = nullptr;  // owned by rpc_client
  std::shared_ptr<rpc::Client> rpc_client;
  obs::Registry metrics;
  std::shared_ptr<ndp::NdpClient> ndp_client;

  explicit DegradedClient(Testbed& testbed) {
    auto faulty = std::make_unique<net::FaultInjectingTransport>(
        testbed.ConnectToServer());
    faults = faulty.get();
    rpc_client = std::make_shared<rpc::Client>(std::move(faulty));
    rpc_client->SetMetrics(&metrics);
    ndp::NdpClientOptions options;
    options.call_timeout = 50ms;
    options.retry.max_attempts = 3;
    options.retry.base_delay = 200us;
    options.retry.jitter = 0.0;
    ndp_client = std::make_shared<ndp::NdpClient>(rpc_client, "data", options);
  }

  double Counter(const std::string& name) {
    const auto snapshot = metrics.Snapshot();
    const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
    return m == nullptr ? 0.0 : m->value;
  }
};

TEST(Fault, GracefulDegradationProducesBaselineGeometry) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", MakeVndImage());

  // The dense baseline: full array read + classic contour filter.
  io::VndReader reader(testbed.LocalGateway().Open("t.vnd"));
  const contour::ContourFilter filter(std::vector<double>{0.1});
  const contour::PolyData baseline =
      filter.Execute(reader.header().dims, reader.header().geometry,
                     reader.ReadArray("v02"));
  ASSERT_GT(baseline.TriangleCount(), 0u);

  DegradedClient degraded(testbed);
  // Every request into the NDP connection silently vanishes.
  degraded.faults->ScriptSend({net::FaultAction::Drop()}, /*loop_last=*/true);

  const double fallbacks_before =
      obs::DefaultRegistry().GetCounter("ndp_fallback_total").value();

  ndp::NdpContourSource source(degraded.ndp_client, "t.vnd", "v02", {0.1});
  source.SetFallback(testbed.LocalGateway());
  const contour::PolyData& poly = source.UpdateAndGetOutput()->AsPolyData();

  // Bit-identical geometry: the fallback runs the same filter over the
  // same values, so zero tolerance.
  EXPECT_TRUE(poly.GeometricallyEquals(baseline, 0.0));
  EXPECT_TRUE(source.last_stats().used_fallback);

  // The counters reflect the event: every attempt timed out, the retries
  // were burned, and exactly one fallback happened.
  EXPECT_DOUBLE_EQ(degraded.Counter("rpc_timeouts_total{method=ndp.select}"),
                   3.0);
  EXPECT_DOUBLE_EQ(degraded.Counter("rpc_retries_total{method=ndp.select}"),
                   2.0);
  EXPECT_DOUBLE_EQ(
      obs::DefaultRegistry().GetCounter("ndp_fallback_total").value(),
      fallbacks_before + 1.0);
}

TEST(Fault, ServerDeathMidRunFallsBackOnNextExecute) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", MakeVndImage());

  DegradedClient degraded(testbed);
  // First select passes; the connection then hard-fails forever.
  degraded.faults->ScriptSend(
      {net::FaultAction::Pass(), net::FaultAction::Disconnect()});

  ndp::NdpContourSource source(degraded.ndp_client, "t.vnd", "v02", {0.1});
  source.SetFallback(testbed.LocalGateway());

  const contour::PolyData first = source.UpdateAndGetOutput()->AsPolyData();
  EXPECT_FALSE(source.last_stats().used_fallback);

  source.Modified();  // force a re-execute against the now-dead server
  const contour::PolyData second = source.UpdateAndGetOutput()->AsPolyData();
  EXPECT_TRUE(source.last_stats().used_fallback);
  EXPECT_TRUE(second.GeometricallyEquals(first, 0.0));
}

TEST(Fault, HealthyServerNeverTriggersFallback) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "t.vnd", MakeVndImage());

  DegradedClient healthy(testbed);  // no faults scripted = clean path
  ndp::NdpContourSource source(healthy.ndp_client, "t.vnd", "v02", {0.1});
  source.SetFallback(testbed.LocalGateway());
  const contour::PolyData& poly = source.UpdateAndGetOutput()->AsPolyData();
  EXPECT_GT(poly.TriangleCount(), 0u);
  EXPECT_FALSE(source.last_stats().used_fallback);
  EXPECT_DOUBLE_EQ(healthy.Counter("rpc_timeouts_total{method=ndp.select}"),
                   0.0);
}

TEST(Fault, ApplicationErrorsDoNotFallBack) {
  // An RpcError means the server is alive and rejected the request (here:
  // an array that does not exist). Falling back would hide the caller's
  // mistake behind a quietly different read path. Corrupt data is the
  // deliberate exception — it *does* degrade to the baseline read; see
  // integrity_test.cc.
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "ok.vnd", MakeVndImage());

  DegradedClient degraded(testbed);
  ndp::NdpContourSource source(degraded.ndp_client, "ok.vnd", "nope", {0.1});
  source.SetFallback(testbed.LocalGateway());
  EXPECT_THROW(source.UpdateAndGetOutput(), RpcError);
}

TEST(Fault, OverwriteDuringUseGivesEitherOldOrNewObject) {
  // Object replacement is atomic at the Get level: a read returns one
  // complete version, never an interleaving.
  storage::MemoryObjectStore store;
  store.CreateBucket("b");
  const Bytes v1(1000, 0xAA);
  const Bytes v2(1000, 0xBB);
  store.Put("b", "k", v1);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      store.Put("b", "k", (i & 1) ? v2 : v1);
    }
    stop = true;
  });
  while (!stop) {
    const Bytes got = store.Get("b", "k");
    if (got != v1 && got != v2) ++torn;
  }
  writer.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace vizndp
