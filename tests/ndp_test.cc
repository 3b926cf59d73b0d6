#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <random>
#include <thread>

#include "bench_util/testbed.h"
#include "contour/marching_cubes.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "ndp/catalog.h"
#include "ndp/protocol.h"
#include "net/inproc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/elements.h"
#include "sim/impact.h"

namespace vizndp::ndp {
namespace {

using bench_util::Testbed;
using bench_util::TestbedConfig;

contour::Selection MakeSelection(unsigned seed, const grid::Dims& dims,
                                 std::vector<float>* field_out = nullptr) {
  std::mt19937 rng(seed);
  std::vector<float> f(static_cast<size_t>(dims.PointCount()));
  for (auto& v : f) v = static_cast<float>(rng() % 1000) / 999.0f;
  const auto array = grid::DataArray::FromVector("f", f);
  const double isos[] = {0.5};
  if (field_out != nullptr) *field_out = std::move(f);
  return contour::SelectInterestingPoints(dims, array, isos);
}

TEST(Varint, RoundTripEdgeCases) {
  const std::uint64_t cases[] = {0,    1,    127,  128,   16383, 16384,
                                 1ull << 32, (1ull << 63), UINT64_MAX};
  for (const std::uint64_t v : cases) {
    Bytes buf;
    AppendVarint(v, buf);
    size_t pos = 0;
    EXPECT_EQ(ReadVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedThrows) {
  Bytes buf;
  AppendVarint(1ull << 40, buf);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_THROW(ReadVarint(buf, pos), DecodeError);
}

TEST(Varint, OverflowRejected) {
  Bytes buf(11, 0xFF);  // would exceed 64 bits
  size_t pos = 0;
  EXPECT_THROW(ReadVarint(buf, pos), DecodeError);
}

TEST(Encoding, RoundTripRecoversSelection) {
  const grid::Dims dims{9, 9, 9};
  const contour::Selection sel = MakeSelection(1, dims);
  ASSERT_GT(sel.ids.size(), 0u);
  const Bytes payload = EncodeSelection(sel);
  const DecodedSelection back = DecodeSelection(payload, dims);
  EXPECT_EQ(back.ids, sel.ids);
  EXPECT_EQ(back.values.raw().size(), sel.values.raw().size());
  EXPECT_TRUE(std::equal(back.values.raw().begin(), back.values.raw().end(),
                         sel.values.raw().begin()));
}

TEST(Encoding, EmptySelection) {
  contour::Selection sel;
  sel.dims = {4, 4, 4};
  sel.total_points = 64;
  sel.values = grid::DataArray("f", grid::DataType::Float32, Bytes{});
  const Bytes payload = EncodeSelection(sel);
  const DecodedSelection back = DecodeSelection(payload, sel.dims);
  EXPECT_TRUE(back.ids.empty());
}

std::string Hex(ByteSpan bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const Byte b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// The wire is pinned byte for byte: a selection payload and the select
// request in its plain and fully optional forms, as older peers send and
// expect them.
TEST(Encoding, WireBytesArePinned) {
  contour::Selection sel;
  sel.dims = {4, 4, 4};
  sel.total_points = 64;
  sel.ids = {1, 2, 3, 9, 40, 41};
  sel.values = grid::DataArray::FromVector(
      "f", std::vector<float>{0.5f, 1.0f, -2.0f, 0.25f, 3.0f, 8.0f});
  EXPECT_EQ(Hex(EncodeSelection(sel)),
            "03" "00" "0600000000000000"  // tag, dtype, count
            "0103" "0501" "1e02"          // (gap, run) pairs
            "0000003f" "0000803f" "000000c0" "0000803e" "00004040" "00000041");

  SelectRequest request;
  request.bucket = "data";
  request.key = "ts.vnd";
  request.array = "v02";
  request.isovalues = {0.5, 2.0};
  const auto wire = [&] {
    return Hex(msgpack::Encode(msgpack::Value(SelectRequestToParams(request))));
  };
  const std::string head =
      "a464617461" "a674732e766e64" "a3763032"        // bucket, key, array
      "92" "cb3fe0000000000000" "cb4000000000000000"  // isovalues
      "03";                                           // the tag
  EXPECT_EQ(wire(), "95" + head);
  request.bricks = std::vector<std::int64_t>{0, 3};
  request.stream = StreamParams{16, 2};
  EXPECT_EQ(wire(), "97" + head + "920003" +
                        "82" "ac6368756e6b5f627269636b73" "10"  // chunk_bricks
                        "ac726573756d655f6166746572" "02");     // resume_after
}

// A payload header (tag, dtype, u64 count) followed by `tail`.
Bytes PayloadWith(Byte tag, Byte dtype, std::uint64_t count,
                  const Bytes& tail) {
  Bytes payload(10 + tail.size());
  payload[0] = tag;
  payload[1] = dtype;
  StoreLE<std::uint64_t>(count, payload.data() + 2);
  std::copy(tail.begin(), tail.end(), payload.begin() + 10);
  return payload;
}

TEST(Encoding, MalformedPayloadsThrow) {
  const grid::Dims dims{4, 4, 4};
  EXPECT_THROW(DecodeSelection(Bytes{0, 0}, dims), DecodeError);
  contour::Selection sel;
  sel.dims = dims;
  sel.total_points = 64;
  sel.ids = {1, 2, 3};
  sel.values = grid::DataArray::FromVector(
      "f", std::vector<float>{0.1f, 0.2f, 0.3f});
  const Bytes payload = EncodeSelection(sel);
  ASSERT_NO_THROW(DecodeSelection(payload, dims));
  // Any tag but run-length's.
  for (const Byte tag : {0, 1, 2, 4, 99}) {
    Bytes bad = payload;
    bad[0] = tag;
    EXPECT_THROW(DecodeSelection(bad, dims), DecodeError) << int{tag};
  }
  // An unknown data type byte.
  Bytes bad_type = payload;
  bad_type[1] = 9;
  EXPECT_THROW(DecodeSelection(bad_type, dims), DecodeError);
  // Valid header claiming more ids than the payload carries.
  Bytes truncated = payload;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(DecodeSelection(truncated, dims), DecodeError);
  // A gap that would overflow int64 after a run ending at 6.
  Bytes overflow;
  for (const std::uint64_t v : {5ull, 1ull, (1ull << 63) - 1, 1ull}) {
    AppendVarint(v, overflow);
  }
  overflow.resize(overflow.size() + 2 * sizeof(float));
  EXPECT_THROW(DecodeSelection(PayloadWith(kRunLengthTag, 0, 2, overflow),
                               dims),
               DecodeError);
  // Counts the payload's bytes cannot back, rejected before the ids are
  // reserved: that reserve would take 2 GiB for a 1024x1024x256 grid,
  // and throw bad_alloc for 2^59 ids.
  EXPECT_THROW(DecodeSelection(PayloadWith(kRunLengthTag, 0, 1ull << 28,
                                           Bytes{0, 1}),
                               grid::Dims{1024, 1024, 256}),
               DecodeError);
  EXPECT_THROW(DecodeSelection(PayloadWith(kRunLengthTag, 0, 1ull << 59,
                                           Bytes{0, 1}),
                               grid::Dims{1 << 20, 1 << 20, 1 << 20}),
               DecodeError);
}

TEST(Encoding, IdsOutsideGridRejected) {
  contour::Selection sel;
  sel.dims = {4, 4, 4};  // 64 points
  sel.total_points = 64;
  sel.ids = {62, 63, 64};
  sel.values = grid::DataArray::FromVector(
      "f", std::vector<float>{1.0f, 2.0f, 3.0f});
  const Bytes payload = EncodeSelection(sel);
  EXPECT_THROW(DecodeSelection(payload, sel.dims), DecodeError);
  sel.ids = {70};
  sel.values = grid::DataArray::FromVector("f", std::vector<float>{1.0f});
  EXPECT_THROW(DecodeSelection(EncodeSelection(sel), sel.dims), DecodeError);
}

struct PopulatedTestbed {
  Testbed testbed;
  grid::Dataset dataset;
  static constexpr const char* kKey = "ts24006.vnd";

  explicit PopulatedTestbed(const std::string& codec = "none")
      : dataset(MakeImpact()) {
    io::VndWriter writer(dataset);
    writer.SetCodec(compress::MakeCodec(codec));
    writer.WriteToStore(testbed.store(), testbed.bucket(), kKey);
  }

  static grid::Dataset MakeImpact() {
    sim::ImpactConfig cfg;
    cfg.n = 24;
    return sim::GenerateImpactTimestep(cfg, 24006, {"v02", "v03"});
  }
};

TEST(NdpServer, SelectReturnsExpectedMetadata) {
  PopulatedTestbed fx;
  NdpServer server(fx.testbed.LocalGateway());
  SelectRequest request;
  request.key = PopulatedTestbed::kKey;
  request.array = "v02";
  request.isovalues = {0.1};
  const msgpack::Value reply = server.Select(request);
  const msgpack::Value& header = reply.At(kOneShotHeaderKey);
  const msgpack::Value& chunk = reply.At(kOneShotChunkKey);
  EXPECT_EQ(header.At("dims").As<msgpack::Array>().at(0).AsInt(), 24);
  EXPECT_EQ(header.At("dtype").As<std::string>(), "float32");
  EXPECT_GT(reply.At("selected").AsUint(), 0u);
  EXPECT_EQ(header.At("total_points").AsUint(), 24u * 24 * 24);
  EXPECT_GT(chunk.At("payload").As<Bytes>().size(), 0u);
  EXPECT_LT(chunk.At("payload").As<Bytes>().size(),
            reply.At("raw_bytes").AsUint());
}

// An rpc::Server whose `method` is `handler`, and an NdpClient over an
// in-proc connection to it: a storage node that misbehaves on purpose.
struct FakeNode {
  rpc::Server server;
  std::thread serve;
  std::shared_ptr<NdpClient> client;

  FakeNode(const std::string& method, rpc::Server::Handler handler) {
    server.Bind(method, std::move(handler));
    net::TransportPair pair = net::CreateInProcPair();
    serve = std::thread(
        [this, t = std::move(pair.b)] { server.ServeTransport(*t); });
    client = std::make_shared<NdpClient>(
        std::make_shared<rpc::Client>(std::move(pair.a)), "data");
  }
  ~FakeNode() {
    client.reset();
    server.Stop();
    serve.join();
  }
  FakeNode(const FakeNode&) = delete;
  FakeNode& operator=(const FakeNode&) = delete;
};

// A one-shot reply carries the stream's data map, so its payload is
// CRC-checked like a streamed chunk: a flipped bit is corruption, never
// wrong geometry, and the baseline fallback then serves the oracle.
TEST(NdpOneShot, FlippedPayloadBitFailsItsCrcAndFallsBack) {
  PopulatedTestbed fx("lz4");
  const std::vector<double> isovalues = {0.5};
  FakeNode node(kRpcNdpSelect, [&](const msgpack::Array& p) {
    msgpack::Value reply =
        fx.testbed.ndp_server().Select(SelectRequestFromParams(p));
    for (auto& [k, chunk] : reply.AsMutable<msgpack::Map>()) {
      if (k != msgpack::Value(kOneShotChunkKey)) continue;
      for (auto& [ck, payload] : chunk.AsMutable<msgpack::Map>()) {
        // The last byte lies in the value block.
        if (ck == msgpack::Value("payload")) {
          payload.AsMutable<Bytes>().back() ^= 0x01;
        }
      }
    }
    return reply;
  });

  grid::UniformGeometry geometry;
  EXPECT_THROW((void)node.client->FetchSparseField(
                   PopulatedTestbed::kKey, "v02", isovalues, &geometry),
               CorruptDataError);

  io::VndReader reader(fx.testbed.LocalGateway().Open(PopulatedTestbed::kKey));
  const contour::PolyData oracle =
      contour::MarchingCubes(reader.header().dims, reader.header().geometry,
                             reader.ReadArray("v02"), isovalues);
  ASSERT_GT(oracle.TriangleCount(), 0u);
  NdpContourSource source(node.client, PopulatedTestbed::kKey, "v02",
                          isovalues);
  source.SetFallback(fx.testbed.LocalGateway());
  EXPECT_TRUE(source.UpdateAndGetOutput()->AsPolyData().GeometricallyEquals(
      oracle, 0.0));
  EXPECT_TRUE(source.last_stats().used_fallback);
}

// The client sizes its field from the header, so a one-shot header
// gets the stream's checks: hostile dims are a typed DecodeError (which
// the fallback catches), never an allocation failure.
TEST(NdpOneShot, HostileHeaderDimsAreADecodeError) {
  constexpr std::int64_t kHuge = std::int64_t{1} << 20;
  for (const grid::Dims dims : {grid::Dims{-1, 1, 1},
                                grid::Dims{kHuge, kHuge, kHuge}}) {
    FakeNode node(kRpcNdpSelect, [dims](const msgpack::Array&) {
      StreamHeader header;
      header.dims = dims;
      header.total_points = dims.PointCount();
      msgpack::Map reply;
      for (const char* key : {"stored_bytes", "raw_bytes", "bricks_read",
                              "selected", "read_s", "select_s"}) {
        reply.emplace_back(msgpack::Value(key), msgpack::Value(0));
      }
      reply.emplace_back(msgpack::Value(kOneShotHeaderKey),
                         StreamHeaderToValue(header));
      return msgpack::Value(std::move(reply));
    });
    grid::UniformGeometry geometry;
    EXPECT_THROW((void)node.client->FetchSparseField("ts.vnd", "v02", {0.5},
                                                     &geometry),
                 DecodeError)
        << dims.nx;
  }
}

void EraseKey(msgpack::Value& map, const char* key) {
  std::erase_if(map.AsMutable<msgpack::Map>(), [&](const auto& entry) {
    return entry.first == msgpack::Value(key);
  });
}

// The client reads every key NdpServer always sends as required: a reply
// that lacks one is an Error, not a report filled in with zeros. Each
// stub serves a real node's reply, first whole, then less one key.
TEST(NdpClientParse, ReplyMissingARequiredKeyThrows) {
  PopulatedTestbed fx;
  rpc::Client node(fx.testbed.ConnectToServer());

  msgpack::Value health = node.Call(kRpcNdpHealth);
  FakeNode health_stub(kRpcNdpHealth,
                       [&](const msgpack::Array&) { return health; });
  EXPECT_NO_THROW((void)health_stub.client->Health());
  EraseKey(health, "window");
  EXPECT_THROW((void)health_stub.client->Health(), Error);

  msgpack::Value info =
      node.Call(kRpcNdpInfo, {msgpack::Value(fx.testbed.bucket()),
                              msgpack::Value(PopulatedTestbed::kKey)});
  FakeNode info_stub(kRpcNdpInfo,
                     [&](const msgpack::Array&) { return info; });
  EXPECT_NO_THROW((void)info_stub.client->Info(PopulatedTestbed::kKey));
  for (auto& [key, arrays] : info.AsMutable<msgpack::Map>()) {
    if (key != msgpack::Value("arrays")) continue;
    for (msgpack::Value& array : arrays.AsMutable<msgpack::Array>()) {
      EraseKey(array, "bricks");
    }
  }
  EXPECT_THROW((void)info_stub.client->Info(PopulatedTestbed::kKey), Error);
}

TEST(NdpServer, InfoListsArrays) {
  PopulatedTestbed fx("gzip");
  NdpServer server(fx.testbed.LocalGateway());
  const msgpack::Value info = server.Info(PopulatedTestbed::kKey);
  const auto& arrays = info.At("arrays").As<msgpack::Array>();
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_EQ(arrays.at(0).At("name").As<std::string>(), "v02");
  EXPECT_EQ(arrays.at(0).At("codec").As<std::string>(), "gzip");
}

class NdpEndToEndTest : public ::testing::TestWithParam<std::string> {};

// The core claim: NDP over the emulated testbed returns the same contour
// as the traditional full-read pipeline, for every storage codec.
TEST_P(NdpEndToEndTest, ContourMatchesBaselineExactly) {
  PopulatedTestbed fx(GetParam());
  const std::vector<double> isovalues = {0.1, 0.5};

  // Baseline: remote gateway, full array read, classic marching cubes.
  io::VndReader reader(fx.testbed.RemoteGateway().Open(PopulatedTestbed::kKey));
  const grid::DataArray v02 = reader.ReadArray("v02");
  const contour::PolyData baseline = contour::MarchingCubes(
      reader.header().dims, reader.header().geometry, v02, isovalues);

  // NDP: pre-filter on the storage node, post-filter here.
  NdpLoadStats stats;
  const contour::PolyData ndp = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", isovalues, &stats);

  ASSERT_EQ(ndp.TriangleCount(), baseline.TriangleCount());
  EXPECT_TRUE(ndp.GeometricallyEquals(baseline, 0.0));
  EXPECT_GT(stats.selected_points, 0u);
  EXPECT_LT(stats.selected_points, stats.total_points);
  EXPECT_GT(stats.server_read_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Codecs, NdpEndToEndTest,
                         ::testing::Values("none", "gzip", "lz4"));

TEST(NdpEndToEnd, MovesFarFewerBytesThanBaseline) {
  PopulatedTestbed fx;
  const std::vector<double> isovalues = {0.1};

  fx.testbed.link().Reset();
  io::VndReader reader(fx.testbed.RemoteGateway().Open(PopulatedTestbed::kKey));
  (void)reader.ReadArray("v02");
  const std::uint64_t baseline_bytes = fx.testbed.link().bytes_transferred();

  fx.testbed.link().Reset();
  (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02",
                                        isovalues);
  const std::uint64_t ndp_bytes = fx.testbed.link().bytes_transferred();

  // The full v02 array is 24^3 * 4 B = 55 KiB; the selection is a small
  // fraction of it (paper Fig. 6).
  EXPECT_GT(baseline_bytes, 24u * 24 * 24 * 4);
  EXPECT_LT(ndp_bytes * 2, baseline_bytes);
}

TEST(NdpEndToEnd, MultiArrayPipelinesShareOneServer) {
  // The paper runs one contour filter instance per array (v02 + v03).
  PopulatedTestbed fx;
  const std::vector<double> isovalues = {0.1};
  NdpLoadStats v02_stats, v03_stats;
  const contour::PolyData water = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", isovalues, &v02_stats);
  const contour::PolyData asteroid = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v03", isovalues, &v03_stats);
  EXPECT_GT(water.TriangleCount(), 0u);
  EXPECT_GT(asteroid.TriangleCount(), 0u);
  // Asteroid is far more selective (paper Fig. 6).
  EXPECT_LT(v03_stats.selected_points, v02_stats.selected_points);
}

TEST(NdpEndToEnd, UnknownArrayGivesRpcError) {
  PopulatedTestbed fx;
  EXPECT_THROW(fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey,
                                               "bogus", {0.1}),
               RpcError);
}

TEST(NdpStats, HistogramAndRangeMatchTheArray) {
  PopulatedTestbed fx;
  const NdpClient::ArrayStats stats =
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 32);
  const auto [lo, hi] = fx.dataset.GetArray("v02").Range();
  EXPECT_DOUBLE_EQ(stats.min, lo);
  EXPECT_DOUBLE_EQ(stats.max, hi);
  EXPECT_EQ(stats.count, 24u * 24 * 24);
  ASSERT_EQ(stats.histogram.size(), 32u);
  std::uint64_t total = 0;
  for (const auto c : stats.histogram) total += c;
  EXPECT_EQ(total, stats.count);
  // v02 is mostly exact 0 (air) and exact 1 (water): the end bins dominate.
  EXPECT_GT(stats.histogram.front() + stats.histogram.back(),
            stats.count / 2);
}

TEST(NdpStats, SuggestIsovaluesSpansTheDistribution) {
  PopulatedTestbed fx;
  const NdpClient::ArrayStats stats =
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 128);
  const std::vector<double> suggested = SuggestIsovalues(stats, 3);
  ASSERT_EQ(suggested.size(), 3u);
  for (const double iso : suggested) {
    EXPECT_GE(iso, stats.min);
    EXPECT_LE(iso, stats.max);
  }
  EXPECT_LE(suggested[0], suggested[1]);
  EXPECT_LE(suggested[1], suggested[2]);
  // Suggested values must produce nonempty contours.
  const contour::PolyData poly = fx.testbed.ndp_client().Contour(
      PopulatedTestbed::kKey, "v02", {suggested[1]});
  EXPECT_GT(poly.TriangleCount(), 0u);
}

// 4^3 points with values 0..63, stored as array "ramp" of "ramp.vnd"
// after `edit` has changed some of them.
void StoreRamp(Testbed& testbed,
               const std::function<void(std::vector<float>&)>& edit = {}) {
  grid::Dataset ds(grid::Dims{4, 4, 4});
  std::vector<float> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i);
  }
  if (edit) edit(values);
  ds.AddArray(grid::DataArray::FromVector("ramp", values));
  io::VndWriter writer(ds);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "ramp.vnd");
}

std::uint64_t HistogramSum(const msgpack::Value& stats_reply) {
  std::uint64_t sum = 0;
  for (const msgpack::Value& bin :
       stats_reply.At("histogram").As<msgpack::Array>()) {
    sum += bin.AsUint();
  }
  return sum;
}

TEST(NdpStats, BinCountsMatchKnownSyntheticArray) {
  // Four bins over [0, 63] must each hold exactly 16 values (bin width
  // 15.75; value 63 clamps into the last).
  Testbed testbed;
  StoreRamp(testbed);

  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("ramp.vnd", "ramp", 4);
  EXPECT_DOUBLE_EQ(reply.At("min").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(reply.At("max").AsDouble(), 63.0);
  EXPECT_EQ(reply.At("count").AsUint(), 64u);
  const auto& histogram = reply.At("histogram").As<msgpack::Array>();
  ASSERT_EQ(histogram.size(), 4u);
  for (const msgpack::Value& bin : histogram) {
    EXPECT_EQ(bin.AsUint(), 16u);
  }
}

TEST(NdpStats, NanValuesAreSkipped) {
  // The count is what was binned, so it equals the histogram's sum, as
  // SuggestIsovalues assumes.
  Testbed testbed;
  StoreRamp(testbed, [](std::vector<float>& values) {
    values[10] = std::numeric_limits<float>::quiet_NaN();
  });
  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("ramp.vnd", "ramp", 4);
  EXPECT_DOUBLE_EQ(reply.At("min").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(reply.At("max").AsDouble(), 63.0);
  EXPECT_EQ(reply.At("count").AsUint(), 63u);
  EXPECT_EQ(HistogramSum(reply), 63u);
  EXPECT_EQ(reply.At("histogram").As<msgpack::Array>()[0].AsUint(), 15u);
}

TEST(NdpStats, InfiniteRangeStaysDefined) {
  // An infinite range makes every bin position infinite or NaN; each
  // must still land in a bin, never reach the integer cast unclamped.
  Testbed testbed;
  StoreRamp(testbed, [](std::vector<float>& values) {
    values.front() = -std::numeric_limits<float>::infinity();
    values.back() = std::numeric_limits<float>::infinity();
  });
  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("ramp.vnd", "ramp", 4);
  EXPECT_EQ(reply.At("min").AsDouble(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(reply.At("max").AsDouble(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(reply.At("count").AsUint(), 64u);
  EXPECT_EQ(HistogramSum(reply), 64u);
}

TEST(NdpStats, BrickIndexedFileUsesHeaderRangeFastPath) {
  Testbed testbed;
  grid::Dataset ds = PopulatedTestbed::MakeImpact();
  io::VndWriter writer(ds);
  writer.SetBrickSize(8);
  writer.WriteToStore(testbed.store(), testbed.bucket(), "bricked.vnd");

  NdpServer server(testbed.LocalGateway());
  const msgpack::Value reply = server.Stats("bricked.vnd", "v02", 16);

  // Same range the data itself gives.
  const auto [lo, hi] = ds.GetArray("v02").Range();
  EXPECT_DOUBLE_EQ(reply.At("min").AsDouble(), lo);
  EXPECT_DOUBLE_EQ(reply.At("max").AsDouble(), hi);
}

TEST(NdpStats, RejectsBadBinCounts) {
  PopulatedTestbed fx;
  EXPECT_THROW(fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 0),
               RpcError);
  EXPECT_THROW(
      fx.testbed.ndp_client().Stats(PopulatedTestbed::kKey, "v02", 100000),
      RpcError);
}

TEST(NdpObservability, MetricsScrapeAgreesWithLoadStats) {
  PopulatedTestbed fx;
  NdpLoadStats stats;
  (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02", {0.1},
                                        &stats);

  const std::vector<obs::MetricSnapshot> scraped =
      fx.testbed.ndp_client().ScrapeMetrics();

  const obs::MetricSnapshot* bytes_out =
      obs::FindMetric(scraped, "ndp_bytes_out_total");
  ASSERT_NE(bytes_out, nullptr);
  EXPECT_DOUBLE_EQ(bytes_out->value,
                   static_cast<double>(stats.payload_bytes));

  const obs::MetricSnapshot* selected =
      obs::FindMetric(scraped, "ndp_selected_points_total");
  ASSERT_NE(selected, nullptr);
  EXPECT_DOUBLE_EQ(selected->value,
                   static_cast<double>(stats.selected_points));

  // The rpc dispatcher's per-method view of the same single fetch.
  const obs::MetricSnapshot* select_requests =
      obs::FindMetric(scraped, "rpc_requests_total{method=ndp.select}");
  ASSERT_NE(select_requests, nullptr);
  EXPECT_DOUBLE_EQ(select_requests->value, 1.0);
  const obs::MetricSnapshot* select_latency =
      obs::FindMetric(scraped, "rpc_dispatch_seconds{method=ndp.select}");
  ASSERT_NE(select_latency, nullptr);
  EXPECT_EQ(select_latency->count, 1u);

  // Span-derived client phase timings are consistent with the total.
  EXPECT_GT(stats.client_s, 0.0);
  EXPECT_LE(stats.client_decode_s + stats.client_scatter_s, stats.client_s);
}

TEST(NdpObservability, TraceCapturesSplitPipelinePhases) {
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Clear();
  tracer.Enable();
  {
    PopulatedTestbed fx("lz4");
    (void)fx.testbed.ndp_client().Contour(PopulatedTestbed::kKey, "v02",
                                          {0.1});
  }
  tracer.Enable(false);
  const std::string json = tracer.ChromeJson();
  tracer.Clear();

  // Server half: read (with the codec nested inside), scan, pack.
  for (const char* span :
       {"ndp.read", "codec.decompress:lz4", "ndp.select.scan", "ndp.pack",
        "rpc.dispatch:ndp.select",
        // Client half: round trip, decode, scatter.
        "rpc.call:ndp.select", "ndp.fetch", "ndp.decode", "ndp.scatter"}) {
    EXPECT_NE(json.find(std::string("\"") + span + "\""), std::string::npos)
        << "missing span: " << span;
  }
  // Both halves render on their own named tracks.
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
}

TEST(Catalog, PutListOpenRoundTrip) {
  Testbed testbed;
  TimestepCatalog catalog(testbed.LocalGateway());
  sim::ImpactConfig cfg;
  cfg.n = 12;
  for (const std::int64_t t : {0LL, 24006LL, 48013LL}) {
    catalog.Put(t, sim::GenerateImpactTimestep(cfg, t, {"v02"}),
                compress::MakeCodec("lz4"));
  }
  EXPECT_EQ(catalog.Timesteps(), (std::vector<std::int64_t>{0, 24006, 48013}));
  EXPECT_TRUE(catalog.Contains(24006));
  EXPECT_FALSE(catalog.Contains(7));
  EXPECT_EQ(catalog.Open(0).header().dims.nx, 12);
}

TEST(Catalog, IgnoresForeignKeys) {
  Testbed testbed;
  testbed.store().Put(testbed.bucket(), "tsXYZ.vnd", ToBytes("junk"));
  testbed.store().Put(testbed.bucket(), "ts12.txt", ToBytes("junk"));
  testbed.store().Put(testbed.bucket(), "other.vnd", ToBytes("junk"));
  TimestepCatalog catalog(testbed.LocalGateway());
  EXPECT_TRUE(catalog.Timesteps().empty());
}

TEST(MovieDriver, BaselineAndNdpProduceIdenticalMovies) {
  Testbed testbed;
  // Storage-side catalog for population + the server; client-side remote
  // catalog for the baseline run.
  TimestepCatalog storage_catalog(testbed.LocalGateway());
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const std::vector<std::int64_t> steps = {0, 24006, 48013};
  for (const std::int64_t t : steps) {
    storage_catalog.Put(t, sim::GenerateImpactTimestep(cfg, t, {"v02"}),
                        compress::MakeCodec("gzip"));
  }

  const ContourMovieDriver driver("v02", {0.1});
  std::vector<contour::PolyData> baseline_frames;
  TimestepCatalog remote_catalog(testbed.RemoteGateway());
  const auto baseline_info = driver.RunBaseline(
      remote_catalog, [&](const ContourMovieDriver::FrameInfo&,
                          const contour::PolyData& poly) {
        baseline_frames.push_back(poly);
      });

  std::vector<contour::PolyData> ndp_frames;
  const auto ndp_info = driver.RunNdp(
      testbed.ndp_client(), steps,
      [&](const ContourMovieDriver::FrameInfo& info,
          const contour::PolyData& poly) {
        EXPECT_TRUE(info.ndp_stats.has_value());
        ndp_frames.push_back(poly);
      });

  ASSERT_EQ(baseline_info.size(), steps.size());
  ASSERT_EQ(ndp_info.size(), steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(baseline_info[i].timestep, ndp_info[i].timestep);
    EXPECT_EQ(baseline_info[i].triangles, ndp_info[i].triangles);
    EXPECT_TRUE(ndp_frames[i].GeometricallyEquals(baseline_frames[i], 0.0));
  }
}

TEST(NdpPipeline, SourceIntegratesWithSinks) {
  PopulatedTestbed fx;
  NdpContourSource source(fx.testbed.ndp_client_ptr(), PopulatedTestbed::kKey,
                          "v02", {0.1});
  pipeline::PolyStatsSink sink;
  sink.SetInputConnection(0, &source);
  sink.Update();
  EXPECT_GT(sink.stats().triangles, 0u);
  EXPECT_GT(source.last_stats().selected_points, 0u);

  // Interactive isovalue change re-runs the NDP fetch.
  source.SetIsovalues({0.5});
  sink.Update();
  EXPECT_EQ(source.execution_count(), 2u);
}

}  // namespace
}  // namespace vizndp::ndp
