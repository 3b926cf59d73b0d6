// Streaming replies with mid-stream recovery: the chunked ndp.select
// contract. A streamed fetch must reconstruct the exact field the
// monolithic reply produces — through chunking, stalls, resumes, replica
// hops, and client cancellation — and every degradation must be visible
// in metrics and the event journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util/testbed.h"
#include "common/error.h"
#include "compress/checksum.h"
#include "contour/marching_cubes.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "msgpack/unpack.h"
#include "ndp/bricked_select.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "ndp/protocol.h"
#include "net/fault.h"
#include "net/inproc.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rpc/protocol.h"
#include "sim/impact.h"

namespace vizndp::ndp {
namespace {

using namespace std::chrono_literals;
using bench_util::ClusterTestbed;
using bench_util::ClusterTestbedConfig;
using bench_util::Testbed;

const std::vector<double> kIsos = {0.2, 0.5};

void StoreDataset(storage::ObjectStore& store, const std::string& bucket,
                  const std::string& key, int n, std::int32_t brick_edge) {
  sim::ImpactConfig cfg;
  cfg.n = n;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(brick_edge);
  writer.WriteToStore(store, bucket, key);
}

std::uint64_t CounterValue(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

// ---------------------------------------------------------------------------
// Wire codec.

SelectRequest Request(std::string key, std::vector<double> isovalues) {
  SelectRequest request;
  request.bucket = "data";
  request.key = std::move(key);
  request.array = "v02";
  request.isovalues = std::move(isovalues);
  return request;
}

TEST(StreamCodec, SelectRequestRoundTripsAndRejectsHostileParams) {
  SelectRequest full = Request("ts.vnd", {0.2, 0.5});
  full.encoding = SelectionEncoding::kBitmap;
  full.bricks = std::vector<std::int64_t>{1, 4};
  full.stream = StreamParams{7, 41};
  const msgpack::Array params = SelectRequestToParams(full);
  ASSERT_EQ(params.size(), 7u);
  const SelectRequest back = SelectRequestFromParams(params);
  EXPECT_EQ(back.bucket, "data");
  EXPECT_EQ(back.key, "ts.vnd");
  EXPECT_EQ(back.array, "v02");
  EXPECT_EQ(back.isovalues, full.isovalues);
  EXPECT_EQ(back.encoding, SelectionEncoding::kBitmap);
  EXPECT_EQ(back.bricks, full.bricks);
  ASSERT_TRUE(back.stream.has_value());
  EXPECT_EQ(back.stream->chunk_bricks, 7);
  EXPECT_EQ(back.stream->resume_after, 41);

  // Trailing optional slots are omitted, and a Nil holds the
  // restriction's slot when the stream map follows.
  SelectRequest plain = Request("ts.vnd", {0.5});
  EXPECT_EQ(SelectRequestToParams(plain).size(), 5u);
  plain.stream = StreamParams{2, -1};
  const msgpack::Array streamed = SelectRequestToParams(plain);
  ASSERT_EQ(streamed.size(), 7u);
  EXPECT_TRUE(streamed[5].IsNil());
  EXPECT_FALSE(SelectRequestFromParams(streamed).bricks.has_value());
  // An empty restriction means all bricks; a Nil stream map, one-shot.
  msgpack::Array empty = streamed;
  empty[5] = msgpack::Value(msgpack::Array{});
  empty[6] = msgpack::Value();
  const SelectRequest all = SelectRequestFromParams(empty);
  EXPECT_FALSE(all.bricks.has_value());
  EXPECT_FALSE(all.stream.has_value());

  const auto with = [&](size_t slot, msgpack::Value v) {
    msgpack::Array p = params;
    p[slot] = std::move(v);
    return p;
  };
  SelectRequest zero_chunks = full;
  zero_chunks.stream = StreamParams{0, -1};
  SelectRequest below_cursor = full;
  below_cursor.stream = StreamParams{4, -2};
  const std::vector<msgpack::Array> hostile = {
      msgpack::Array(params.begin(), params.begin() + 4),  // no tag
      with(1, msgpack::Value(7)),                           // key
      with(3, msgpack::Value(msgpack::Array{msgpack::Value("x")})),
      with(4, msgpack::Value(std::uint64_t{4})),  // tag above kRunLength
      with(5, msgpack::Value("bricks")),          // restriction
      SelectRequestToParams(zero_chunks),
      SelectRequestToParams(below_cursor),
  };
  for (const msgpack::Array& bad : hostile) {
    EXPECT_THROW((void)SelectRequestFromParams(bad), DecodeError)
        << msgpack::Value(bad).ToString();
  }
}

StreamHeader TestHeader() {
  StreamHeader h;
  h.dims = grid::Dims{6, 6, 6};
  h.dtype = grid::DataType::Float32;
  h.bricks_total = 8;
  h.stream_bricks = 4;
  h.total_points = h.dims.PointCount();
  return h;
}

StreamChunk TestChunk(std::int64_t cursor) {
  contour::Selection sel;
  sel.dims = grid::Dims{6, 6, 6};
  sel.total_points = sel.dims.PointCount();
  std::vector<float> values;
  for (std::int64_t i = 0; i < 16; ++i) {
    sel.ids.push_back(static_cast<grid::PointId>(cursor * 20 + i));
    values.push_back(0.5f * static_cast<float>(i));
  }
  sel.values = grid::DataArray::FromVector("v", values);
  StreamChunk chunk;
  chunk.cursor = cursor;
  chunk.bricks = 1;
  chunk.selected = 16;
  chunk.payload = EncodeSelection(sel, SelectionEncoding::kRunLength);
  return chunk;
}

TEST(StreamCodec, DecoderAcceptsWellFormedStream) {
  StreamDecoder decoder;
  EXPECT_FALSE(decoder.Feed(StreamHeaderToValue(TestHeader())).has_value());
  ASSERT_TRUE(decoder.got_header());
  EXPECT_EQ(decoder.header().bricks_total, 8);

  const auto c1 = decoder.Feed(StreamChunkToValue(TestChunk(1)));
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->cursor, 1);
  const auto decoded = DecodeSelection(c1->payload, decoder.header().dims);
  EXPECT_EQ(decoded.ids.size(), 16u);

  EXPECT_TRUE(decoder.Feed(StreamChunkToValue(TestChunk(4))).has_value());
  EXPECT_EQ(decoder.cursor(), 4);
  decoder.Finish();
  EXPECT_TRUE(decoder.finished());
}

TEST(StreamCodec, DecoderEnforcesResumeCursor) {
  // A resumed stream must never re-deliver bricks at or below the
  // cursor the client already scattered.
  StreamDecoder decoder(/*resume_after=*/3);
  (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
  EXPECT_THROW((void)decoder.Feed(StreamChunkToValue(TestChunk(3))),
               DecodeError);
  StreamDecoder fresh(/*resume_after=*/3);
  (void)fresh.Feed(StreamHeaderToValue(TestHeader()));
  EXPECT_TRUE(fresh.Feed(StreamChunkToValue(TestChunk(4))).has_value());
}

// Rewrites one key of a stamped map, leaving its crc32 as stamped.
void Relabel(msgpack::Value& map, const std::string& key,
             msgpack::Value value) {
  for (auto& [k, v] : map.AsMutable<msgpack::Map>()) {
    if (k == msgpack::Value(key)) v = std::move(value);
  }
}

TEST(StreamCodec, DecoderRejectsHostileFrames) {
  // Data before the header.
  {
    StreamDecoder decoder;
    EXPECT_THROW((void)decoder.Feed(StreamChunkToValue(TestChunk(1))),
                 DecodeError);
  }
  // Duplicate header.
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    EXPECT_THROW((void)decoder.Feed(StreamHeaderToValue(TestHeader())),
                 DecodeError);
  }
  // CRC lies, typed as corruption, not a generic decode error: the
  // stamp covers every field the client acts on, so a payload, a cursor
  // or an origin changed after stamping all fail it.
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    msgpack::Value map = StreamChunkToValue(TestChunk(1));
    Bytes payload = map.At("payload").As<Bytes>();
    payload.back() ^= 0x01;
    Relabel(map, "payload", std::move(payload));
    EXPECT_THROW((void)decoder.Feed(map), CorruptDataError);
  }
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    msgpack::Value map = StreamChunkToValue(TestChunk(1));
    Relabel(map, "cursor", msgpack::Value(std::int64_t{5}));
    EXPECT_THROW((void)decoder.Feed(map), CorruptDataError);
  }
  {
    StreamDecoder decoder;
    msgpack::Value map = StreamHeaderToValue(TestHeader());
    Relabel(map, "origin",
            msgpack::Value(msgpack::Array{msgpack::Value(0.5),
                                          msgpack::Value(0.0),
                                          msgpack::Value(0.0)}));
    EXPECT_THROW((void)decoder.Feed(map), CorruptDataError);
  }
  // Cursor beyond the advertised brick count.
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    EXPECT_THROW((void)decoder.Feed(StreamChunkToValue(TestChunk(8))),
                 DecodeError);
  }
  // Non-ascending cursors.
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    (void)decoder.Feed(StreamChunkToValue(TestChunk(4)));
    EXPECT_THROW((void)decoder.Feed(StreamChunkToValue(TestChunk(2))),
                 DecodeError);
  }
  // Terminal discipline: not before the header, never twice, nothing
  // after it.
  {
    StreamDecoder decoder;
    EXPECT_THROW(decoder.Finish(), DecodeError);
  }
  {
    StreamDecoder decoder;
    (void)decoder.Feed(StreamHeaderToValue(TestHeader()));
    decoder.Finish();
    EXPECT_THROW(decoder.Finish(), DecodeError);
    EXPECT_THROW((void)decoder.Feed(StreamChunkToValue(TestChunk(1))),
                 DecodeError);
  }
}

TEST(StreamCodec, DecodeSelectionRejectsHostileCount) {
  // Regression: a wire-supplied count must be bounded before any
  // allocation — typed rejection, never bad_alloc.
  Bytes payload;
  payload.push_back(static_cast<Byte>(SelectionEncoding::kRunLength));
  payload.push_back(static_cast<Byte>(grid::DataType::Float32));
  for (int i = 0; i < 8; ++i) payload.push_back(0xff);  // count = 2^64-1
  payload.push_back(0x00);
  EXPECT_THROW((void)DecodeSelection(payload, grid::Dims{6, 6, 6}),
               DecodeError);
}

// ---------------------------------------------------------------------------
// Single-node streaming end-to-end.

TEST(Stream, StreamedFetchMatchesMonolithic) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 8);

  NdpLoadStats mono_stats;
  grid::UniformGeometry mono_geo;
  const contour::SparseField mono = bed.ndp_client().FetchSparseField(
      "ts.vnd", "v02", kIsos, &mono_geo, &mono_stats);
  const contour::PolyData mono_poly = mono.Contour(mono_geo, kIsos);
  ASSERT_GT(mono_poly.TriangleCount(), 0u);

  StreamOptions so;
  so.chunk_bricks = 2;
  bed.ndp_client().SetStream(so);
  std::vector<StreamProgress> progress;
  bed.ndp_client().SetStreamProgress(
      [&](const StreamProgress& p) { progress.push_back(p); });

  NdpLoadStats stats;
  grid::UniformGeometry geo;
  const contour::SparseField streamed =
      bed.ndp_client().FetchSparseField("ts.vnd", "v02", kIsos, &geo, &stats);

  EXPECT_TRUE(
      streamed.Contour(geo, kIsos).GeometricallyEquals(mono_poly, 0.0));
  EXPECT_EQ(streamed.ValidCount(), mono.ValidCount());
  EXPECT_EQ(geo.origin[0], mono_geo.origin[0]);
  EXPECT_EQ(geo.spacing[2], mono_geo.spacing[2]);

  EXPECT_TRUE(stats.streamed);
  EXPECT_FALSE(stats.stream_cancelled);
  EXPECT_GE(stats.stream_chunks, 2u);
  EXPECT_EQ(stats.stream_resumes, 0u);
  EXPECT_EQ(stats.selected_points, mono_stats.selected_points);
  EXPECT_EQ(stats.total_points, mono_stats.total_points);
  EXPECT_EQ(stats.bricks_total, mono_stats.bricks_total);
  EXPECT_EQ(stats.bricks_read, mono_stats.bricks_read);
  EXPECT_EQ(stats.stored_bytes, mono_stats.stored_bytes);

  // The progress line saw the stream grow to its final shape.
  ASSERT_GE(progress.size(), 2u);
  EXPECT_EQ(progress.back().chunks, stats.stream_chunks);
  EXPECT_GT(progress.back().stream_bricks, 0);
  EXPECT_LE(progress.front().bricks_done, progress.back().bricks_done);
}

// Captures a streamed select's frames, for driving NdpServer directly.
struct CapturingSink : rpc::StreamSink {
  std::vector<msgpack::Value> frames;

  bool Emit(const msgpack::Value& chunk) override {
    frames.push_back(chunk);
    return true;
  }
  bool Cancelled() const override { return false; }
};

// The data chunks of `frames`, validated as a client would.
std::vector<StreamChunk> DataChunks(const CapturingSink& sink,
                                    std::int64_t resume_after,
                                    StreamHeader* header = nullptr) {
  StreamDecoder decoder(resume_after);
  std::vector<StreamChunk> chunks;
  for (const msgpack::Value& frame : sink.frames) {
    if (auto chunk = decoder.Feed(frame)) chunks.push_back(std::move(*chunk));
  }
  decoder.Finish();
  if (header != nullptr) *header = decoder.header();
  return chunks;
}

TEST(Stream, UnbrickedArrayStreamsAsOneChunk) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "mono.vnd", 24, /*brick_edge=*/0);

  NdpLoadStats mono_stats;
  grid::UniformGeometry mono_geo;
  const contour::SparseField mono = bed.ndp_client().FetchSparseField(
      "mono.vnd", "v02", kIsos, &mono_geo, &mono_stats);

  StreamOptions so;
  so.chunk_bricks = 4;
  bed.ndp_client().SetStream(so);
  NdpLoadStats stats;
  grid::UniformGeometry geo;
  const contour::SparseField streamed = bed.ndp_client().FetchSparseField(
      "mono.vnd", "v02", kIsos, &geo, &stats);

  // An unbricked array is a one-brick index: the stream is a header,
  // one chunk for brick 0 and the terminal.
  EXPECT_TRUE(stats.streamed);
  EXPECT_EQ(stats.stream_chunks, 1u);
  EXPECT_EQ(stats.bricks_total, 1);
  EXPECT_EQ(stats.bricks_read, mono_stats.bricks_read);
  EXPECT_EQ(streamed.ValidCount(), mono.ValidCount());
  EXPECT_TRUE(streamed.Contour(geo, kIsos)
                  .GeometricallyEquals(mono.Contour(mono_geo, kIsos), 0.0));

  // The chunk's cursor is brick 0, so a resume after it has nothing left.
  CapturingSink fresh;
  SelectRequest request = Request("mono.vnd", kIsos);
  request.stream = StreamParams{4, -1};
  bed.ndp_server().Select(request, &fresh);
  const std::vector<StreamChunk> chunks = DataChunks(fresh, -1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].cursor, 0);
  EXPECT_EQ(chunks[0].bricks, 1);

  CapturingSink resumed;
  request.stream = StreamParams{4, 0};
  bed.ndp_server().Select(request, &resumed);
  StreamHeader header;
  EXPECT_TRUE(DataChunks(resumed, 0, &header).empty());
  EXPECT_EQ(header.bricks_total, 1);
  EXPECT_EQ(header.stream_bricks, 0);
}

// A one-shot reply's points, read as the client reads them: its header
// map, then its data map when some brick straddled.
std::vector<grid::PointId> OneShotIds(const msgpack::Value& reply) {
  StreamDecoder decoder;
  (void)decoder.Feed(reply.At(kOneShotHeaderKey));
  const msgpack::Value* chunk = reply.Find(kOneShotChunkKey);
  if (chunk == nullptr) return {};
  return DecodeSelection(decoder.Feed(*chunk)->payload, decoder.header().dims)
      .ids;
}

// One plan serves both reply shapes: at the straddle predicate's edges
// (a brick's exact min is not straddled, its exact max is), restricted
// or not, from any resume cursor, the one-shot reply reads exactly the
// bricks the stream's chunks cover and selects the same points.
TEST(Stream, OneShotAndStreamShareOnePlan) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);
  const io::VndReader reader(
      storage::FileGateway(bed.store(), bed.bucket()).Open("ts.vnd"));
  const grid::Dims dims = reader.header().dims;
  const io::ArrayMeta& meta = *reader.header().Find("v02");
  const auto& entries = meta.bricks->entries;
  const auto edge = std::find_if(
      entries.begin(), entries.end(),
      [](const io::BrickEntry& e) { return e.min < 0.5 && e.max >= 0.5; });
  ASSERT_NE(edge, entries.end());
  const auto edge_brick = static_cast<std::int64_t>(edge - entries.begin());
  const auto bricks_total = static_cast<std::int64_t>(entries.size());
  const auto in_restriction = [&](std::int64_t b) {
    return b % 2 == edge_brick % 2;
  };
  std::vector<std::int64_t> restriction;
  for (std::int64_t b = 0; b < bricks_total; ++b) {
    if (in_restriction(b)) restriction.push_back(b);
  }

  for (const double iso : {edge->min, edge->max}) {
    const std::vector<double> isos = {iso};
    const std::vector<std::int64_t> plan =
        PlanBricks(dims, meta, isos).bricks;
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(std::binary_search(plan.begin(), plan.end(), edge_brick),
              iso == edge->max);
    for (const bool restricted : {false, true}) {
      for (const std::int64_t cursor :
           {std::int64_t{-1}, plan[plan.size() / 2], plan.back()}) {
        SCOPED_TRACE("iso " + std::to_string(iso) + (restricted ? " R" : "") +
                     " cursor " + std::to_string(cursor));
        // One-shot names the stream's bricks above the cursor directly.
        std::vector<std::int64_t> above;
        for (std::int64_t b = cursor + 1; b < bricks_total; ++b) {
          if (!restricted || in_restriction(b)) above.push_back(b);
        }
        SelectRequest one_shot = Request("ts.vnd", isos);
        if (restricted || cursor >= 0) one_shot.bricks = above;
        const msgpack::Value one = bed.ndp_server().Select(one_shot);
        const std::vector<grid::PointId> one_ids = OneShotIds(one);

        CapturingSink sink;
        SelectRequest streamed = Request("ts.vnd", isos);
        if (restricted) streamed.bricks = restriction;
        streamed.stream = StreamParams{3, cursor};
        const msgpack::Value terminal =
            bed.ndp_server().Select(streamed, &sink);
        std::int64_t chunk_bricks = 0;
        std::vector<grid::PointId> ids;
        for (const StreamChunk& chunk : DataChunks(sink, cursor)) {
          chunk_bricks += chunk.bricks;
          const DecodedSelection sel = DecodeSelection(chunk.payload, dims);
          ids.insert(ids.end(), sel.ids.begin(), sel.ids.end());
        }
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

        EXPECT_EQ(one.At("bricks_read").AsInt(), chunk_bricks);
        EXPECT_EQ(terminal.At("bricks_read").AsInt(), chunk_bricks);
        EXPECT_EQ(ids, one_ids);
      }
    }
  }
}

// Set once the client's cancel frame has gone out.
struct CancelGate {
  std::mutex mu;
  std::condition_variable cv;
  bool cancel_sent = false;
};

bool FrameHasType(ByteSpan frame, std::int64_t type) {
  const msgpack::Value v = msgpack::Decode(frame);
  const auto& fields = v.As<msgpack::Array>();
  return !fields.empty() && fields[0] == msgpack::Value(type);
}

// Client end: opens the gate once a cancel frame has been sent.
class CancelSignalTransport : public net::Transport {
 public:
  CancelSignalTransport(net::TransportPtr inner, CancelGate& gate)
      : inner_(std::move(inner)), gate_(gate) {}

  void Send(ByteSpan frame) override {
    inner_->Send(frame);
    if (FrameHasType(frame, rpc::kCancelType)) {
      {
        std::lock_guard<std::mutex> lock(gate_.mu);
        gate_.cancel_sent = true;
      }
      gate_.cv.notify_all();
    }
  }
  Bytes Receive(net::Deadline deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  net::TransportPtr inner_;
  CancelGate& gate_;
};

// Server end: holds the `hold`-th chunk frame (the stream header is
// chunk frame 1) until the gate opens.
class HoldChunkTransport : public net::Transport {
 public:
  HoldChunkTransport(net::TransportPtr inner, CancelGate& gate, int hold)
      : inner_(std::move(inner)), gate_(gate), hold_(hold) {}

  void Send(ByteSpan frame) override {
    if (FrameHasType(frame, rpc::kChunkType) && ++chunks_ == hold_) {
      std::unique_lock<std::mutex> lock(gate_.mu);
      gate_.cv.wait_for(lock, 10s, [this] { return gate_.cancel_sent; });
    }
    inner_->Send(frame);
  }
  Bytes Receive(net::Deadline deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  net::TransportPtr inner_;
  CancelGate& gate_;
  const int hold_;
  int chunks_ = 0;
};

// A client connection the test serves itself, on the testbed's
// rpc::Server, so it can order the cancel race.
struct CancelRig {
  CancelGate gate;
  HoldChunkTransport server_end;
  std::unique_ptr<NdpClient> client;
  std::thread serve;

  CancelRig(Testbed& bed, net::TransportPair pair, int hold_chunk)
      : server_end(std::move(pair.b), gate, hold_chunk),
        client(std::make_unique<NdpClient>(
            std::make_shared<rpc::Client>(
                std::make_unique<CancelSignalTransport>(std::move(pair.a),
                                                        gate)),
            bed.bucket())),
        serve([this, &bed] { bed.rpc_server().ServeTransport(server_end); }) {}

  ~CancelRig() {
    client.reset();  // closes the client end: the serve loop returns
    serve.join();
  }
};

TEST(Stream, ClientCancelStopsTheStreamAndIsAccounted) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);

  // The client's predicate runs before each data chunk is delivered, so
  // it cancels when the second data chunk (chunk frame 3) arrives. The
  // server end holds the third data chunk until that cancel frame is
  // out, so the next chunk boundary must see it: the stream cannot
  // finish first.
  CancelRig rig(bed, net::CreateInProcPair(), /*hold_chunk=*/4);
  NdpClient& client = *rig.client;

  // Cancellation is accounted where it is detected: on the server.
  const std::uint64_t cancels_before =
      bed.ndp_server().metrics().GetCounter("ndp_stream_cancelled_total")
          .value();
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  StreamOptions so;
  so.chunk_bricks = 1;
  client.SetStream(so);
  std::atomic<std::uint64_t> chunks_seen{0};
  client.SetStreamProgress(
      [&](const StreamProgress& p) { chunks_seen = p.chunks; });
  client.SetStreamCancel([&] { return chunks_seen.load() >= 1; });

  NdpLoadStats stats;
  grid::UniformGeometry geo;
  const contour::SparseField partial =
      client.FetchSparseField("ts.vnd", "v02", kIsos, &geo, &stats);

  EXPECT_TRUE(stats.streamed);
  EXPECT_TRUE(stats.stream_cancelled);
  EXPECT_GE(stats.stream_chunks, 1u);
  // Partial by construction: the cancel landed mid-stream.
  NdpLoadStats full_stats;
  client.SetStream(StreamOptions{});
  client.SetStreamCancel({});
  grid::UniformGeometry full_geo;
  const contour::SparseField full = client.FetchSparseField(
      "ts.vnd", "v02", kIsos, &full_geo, &full_stats);
  EXPECT_LT(partial.ValidCount(), full.ValidCount());

  // Cancellation is audited 1:1 — counter and journal event move
  // together (the chaos invariant).
  EXPECT_EQ(
      bed.ndp_server().metrics().GetCounter("ndp_stream_cancelled_total")
          .value(),
      cancels_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.stream_cancel", seq), 1u);
}

// NdpClient over a fault-injected connection to the testbed's server.
struct FaultyStreamClient {
  net::FaultInjectingTransport* faults = nullptr;  // owned by rpc_client
  std::shared_ptr<rpc::Client> rpc_client;
  obs::Registry rpc_metrics;
  std::shared_ptr<NdpClient> client;

  FaultyStreamClient(Testbed& bed, const StreamOptions& stream) {
    auto faulty =
        std::make_unique<net::FaultInjectingTransport>(bed.ConnectToServer());
    faults = faulty.get();
    rpc_client = std::make_shared<rpc::Client>(std::move(faulty));
    rpc_client->SetMetrics(&rpc_metrics);
    NdpClientOptions options;
    options.call_timeout = 5000ms;
    options.retry.max_attempts = 2;
    options.retry.base_delay = 200us;
    options.retry.jitter = 0.0;
    client = std::make_shared<NdpClient>(rpc_client, "data", options);
    client->SetStream(stream);
  }

  double RpcCounter(const std::string& name) {
    const auto snapshot = rpc_metrics.Snapshot();
    const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
    return m == nullptr ? 0.0 : m->value;
  }
};

TEST(Stream, StallSurfacesTypedErrorWhenResumesExhausted) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);

  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 100ms;
  so.max_resumes = 0;  // no recovery: the typed error must escape
  FaultyStreamClient faulty(bed, so);
  // Let the header and first chunks through, then hold a frame far past
  // the per-chunk progress deadline.
  faulty.faults->ScriptReceive(
      {net::FaultAction::Pass(), net::FaultAction::Pass(),
       net::FaultAction::Delay(1000ms)},
      /*loop_last=*/true);

  grid::UniformGeometry geo;
  EXPECT_THROW((void)faulty.client->FetchSparseField("ts.vnd", "v02", kIsos,
                                                     &geo, nullptr),
               StreamStallError);
  EXPECT_GE(faulty.RpcCounter("rpc_stream_stalls_total{method=ndp.select}"), 1.0);
}

TEST(Stream, StallResumesFromCursorAndCompletes) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);

  NdpLoadStats mono_stats;
  grid::UniformGeometry mono_geo;
  const contour::SparseField mono = bed.ndp_client().FetchSparseField(
      "ts.vnd", "v02", kIsos, &mono_geo, &mono_stats);

  const std::uint64_t resumes_before = CounterValue("ndp_stream_resume_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 100ms;
  so.max_resumes = 3;
  FaultyStreamClient faulty(bed, so);
  // One mid-stream stall; every frame after it flows normally, so the
  // resumed call replays only the unscattered tail.
  faulty.faults->ScriptReceive({net::FaultAction::Pass(),
                                net::FaultAction::Pass(),
                                net::FaultAction::Pass(),
                                net::FaultAction::Delay(1000ms)});

  NdpLoadStats stats;
  grid::UniformGeometry geo;
  const contour::SparseField streamed = faulty.client->FetchSparseField(
      "ts.vnd", "v02", kIsos, &geo, &stats);

  EXPECT_TRUE(stats.streamed);
  EXPECT_GE(stats.stream_resumes, 1u);
  EXPECT_EQ(streamed.ValidCount(), mono.ValidCount());
  EXPECT_TRUE(streamed.Contour(geo, kIsos)
                  .GeometricallyEquals(mono.Contour(mono_geo, kIsos), 0.0));
  EXPECT_EQ(stats.selected_points, mono_stats.selected_points);

  EXPECT_GE(CounterValue("ndp_stream_resume_total"), resumes_before + 1);
  EXPECT_GE(obs::GlobalEventLog().CountSince("ndp.stream_resume", seq), 1u);
  EXPECT_GE(faulty.RpcCounter("rpc_stream_stalls_total{method=ndp.select}"), 1.0);
}

// ---------------------------------------------------------------------------
// Sharded streaming.

TEST(Stream, ShardedStreamingMatchesReference) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);

  StreamOptions so;
  so.chunk_bricks = 2;
  cluster.sharded_client()->SetStream(so);

  NdpLoadStats stats;
  const contour::PolyData streamed =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos, &stats);

  EXPECT_TRUE(streamed.GeometricallyEquals(reference, 0.0));
  EXPECT_TRUE(stats.streamed);
  EXPECT_GE(stats.stream_chunks, 3u);  // at least one chunk per shard
  EXPECT_FALSE(stats.used_fallback);
}

// An isovalue no brick straddles: every select, sharded or not, is a
// header and a terminal with no data chunk — in the one-shot shape the
// reply carries no "chunk" map — and the fetch is an empty field, not
// an error.
TEST(Stream, ShardedStreamWithNoStraddlingBrickIsEmpty) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);

  const std::vector<double> above_all = {1e9};
  for (const std::int64_t chunk_bricks : {0, 2}) {
    SCOPED_TRACE("chunk_bricks " + std::to_string(chunk_bricks));
    StreamOptions so;
    so.chunk_bricks = chunk_bricks;
    cluster.sharded_client()->SetStream(so);  // and every node's client
    NdpLoadStats stats;
    const contour::PolyData poly =
        cluster.sharded_client()->Contour("ts.vnd", "v02", above_all, &stats);

    EXPECT_EQ(poly.TriangleCount(), 0u);
    EXPECT_EQ(stats.stream_chunks, 0u);
    EXPECT_EQ(stats.selected_points, 0u);
    EXPECT_EQ(stats.bricks_read, 0);
    EXPECT_EQ(cluster.server_client(0)
                  ->Contour("ts.vnd", "v02", above_all)
                  .TriangleCount(),
              0u);
  }
}

// Flips bit 0x20 of the cursor in the first `budget` data chunks that
// arrive on the connections it wraps, leaving each chunk's CRC as the
// server stamped it.
class CursorFlipTransport : public net::Transport {
 public:
  CursorFlipTransport(net::TransportPtr inner, std::atomic<int>& budget)
      : inner_(std::move(inner)), budget_(budget) {}

  void Send(ByteSpan frame) override { inner_->Send(frame); }
  void Close() override { inner_->Close(); }
  Bytes Receive(net::Deadline deadline) override {
    Bytes frame = inner_->Receive(deadline);
    msgpack::Value v = msgpack::Decode(frame);
    auto& fields = v.AsMutable<msgpack::Array>();
    if (fields.size() < 3 || fields[0] != msgpack::Value(rpc::kChunkType)) {
      return frame;
    }
    const msgpack::Value* cursor = fields[2].Find("cursor");
    if (cursor == nullptr || budget_.fetch_sub(1) <= 0) return frame;
    Relabel(fields[2], "cursor", msgpack::Value(cursor->AsInt() ^ 0x20));
    return msgpack::Encode(v);
  }

 private:
  net::TransportPtr inner_;
  std::atomic<int>& budget_;
};

// A cursor is the resume token, so the chunk's CRC covers it: a relabeled
// cursor is corruption, the stream hops to the replica from its last
// good cursor, and no brick in between is skipped.
TEST(Stream, RelabeledCursorFailsItsCrcAndTheReplicaResumesBitIdentical) {
  std::atomic<int> flips{4};
  ClusterTestbedConfig config;
  config.servers = 2;
  config.replicas = 2;
  config.sharded.hedge_ms = -1;
  config.decorate = [&](net::TransportPtr inner, int server) {
    return server == 0 ? std::make_unique<CursorFlipTransport>(
                             std::move(inner), flips)
                       : std::move(inner);
  };
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
  const std::vector<double> isos = {0.5};
  const io::VndReader reader(cluster.LocalGateway().Open("ts.vnd"));
  const contour::PolyData oracle =
      contour::MarchingCubes(reader.header().dims, reader.header().geometry,
                             reader.ReadArray("v02"), isos);

  StreamOptions so;
  so.chunk_bricks = 1;
  cluster.sharded_client()->SetStream(so);
  NdpLoadStats stats;
  const contour::PolyData streamed =
      cluster.sharded_client()->Contour("ts.vnd", "v02", isos, &stats);

  EXPECT_LT(flips.load(), 4);  // node 0 really relabeled a cursor
  EXPECT_EQ(streamed.TriangleCount(), oracle.TriangleCount());
  EXPECT_TRUE(streamed.GeometricallyEquals(oracle, 0.0));
  EXPECT_FALSE(stats.used_fallback);
}

TEST(Stream, MidStreamDisconnectResumesOnReplica) {
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 2;
  config.client_options.call_timeout = 5000ms;
  config.client_options.retry.max_attempts = 2;
  config.client_options.retry.base_delay = 200us;
  config.client_options.retry.jitter = 0.0;
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 4);

  const contour::PolyData reference =
      cluster.server_client(1)->Contour("ts.vnd", "v02", kIsos);

  const std::uint64_t resumes_before = CounterValue("ndp_stream_resume_total");
  const std::uint64_t failovers_before = CounterValue("cluster_failover_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  StreamOptions so;
  so.chunk_bricks = 1;
  so.max_resumes = 1;
  cluster.sharded_client()->SetStream(so);

  // Arm the kill from the stream itself: the first data chunk node 0
  // delivers scripts its channel to hard-fail on the next frame, so the
  // failure always lands mid-stream (header + one chunk scattered).
  std::atomic<bool> armed{false};
  cluster.server_client(0)->SetStreamProgress([&](const StreamProgress&) {
    if (!armed.exchange(true)) {
      cluster.fault(0).ScriptReceive({net::FaultAction::Disconnect()});
    }
  });

  NdpLoadStats stats;
  const contour::PolyData streamed =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos, &stats);

  ASSERT_TRUE(armed.load());  // node 0 really was streaming when killed
  EXPECT_TRUE(streamed.GeometricallyEquals(reference, 0.0));
  EXPECT_TRUE(stats.streamed);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_GE(stats.stream_resumes, 1u);

  // The replica hop carried the cursor: resume accounting and failover
  // accounting both moved, and each counter matches its journal event.
  EXPECT_GE(CounterValue("ndp_stream_resume_total"), resumes_before + 1);
  EXPECT_GE(CounterValue("cluster_failover_total"), failovers_before + 1);
  EXPECT_GE(obs::GlobalEventLog().CountSince("ndp.stream_resume", seq), 1u);
  EXPECT_GE(obs::GlobalEventLog().CountSince("cluster.failover", seq), 1u);
}

}  // namespace
}  // namespace vizndp::ndp
