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
#include <optional>
#include <thread>
#include <vector>

#include "bench_util/testbed.h"
#include "cluster/shard_map.h"
#include "cluster/sharded_client.h"
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

// A decoded selection's ids, expanded from its runs.
std::vector<grid::PointId> Ids(const DecodedSelection& sel) {
  std::vector<grid::PointId> ids;
  for (const contour::PointRun& run : sel.runs) {
    for (std::int64_t i = 0; i < run.length; ++i) ids.push_back(run.start + i);
  }
  return ids;
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
  full.bricks = std::vector<std::int64_t>{1, 4};
  full.stream = StreamParams{7, 41};
  const msgpack::Array params = SelectRequestToParams(full);
  ASSERT_EQ(params.size(), 7u);
  EXPECT_EQ(params[4].AsUint(), kRunLengthTag);
  const SelectRequest back = SelectRequestFromParams(params);
  EXPECT_EQ(back.bucket, "data");
  EXPECT_EQ(back.key, "ts.vnd");
  EXPECT_EQ(back.array, "v02");
  EXPECT_EQ(back.isovalues, full.isovalues);
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
  std::vector<msgpack::Array> hostile = {
      msgpack::Array(params.begin(), params.begin() + 4),  // no tag
      with(1, msgpack::Value(7)),                           // key
      with(3, msgpack::Value(msgpack::Array{msgpack::Value("x")})),
      with(5, msgpack::Value("bricks")),  // restriction
      SelectRequestToParams(zero_chunks),
      SelectRequestToParams(below_cursor),
  };
  // Any tag but run-length's: the retired layouts', the next one up, and
  // a negative one.
  for (const std::int64_t tag : {0, 1, 2, 4, -3}) {
    hostile.push_back(with(4, msgpack::Value(tag)));
  }
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
  chunk.payload = EncodeSelection(sel);
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
  EXPECT_EQ(Ids(decoded).size(), 16u);

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
  payload.push_back(kRunLengthTag);
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
  return Ids(
      DecodeSelection(decoder.Feed(*chunk)->payload, decoder.header().dims));
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
          const std::vector<grid::PointId> sel =
              Ids(DecodeSelection(chunk.payload, dims));
          ids.insert(ids.end(), sel.begin(), sel.end());
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

  // The client's deliver returns false for the second data chunk (chunk
  // frame 3), which cancels. The server end holds the third data chunk
  // until that cancel frame is out, so the next chunk boundary must see
  // it: the stream cannot finish first.
  CancelRig rig(bed, net::CreateInProcPair(), /*hold_chunk=*/4);
  NdpClient& client = *rig.client;

  // Cancellation is accounted where it is detected: on the server.
  const std::uint64_t cancels_before =
      bed.ndp_server().metrics().GetCounter("ndp_stream_cancelled_total")
          .value();
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();

  StreamAccumulator acc;
  acc.stream.chunk_bricks = 1;
  std::optional<contour::SparseField> partial;
  client.StreamSelect(
      "ts.vnd", "v02", kIsos, nullptr, acc,
      [&](DecodedSelection&& sel) {
        if (acc.chunks >= 1) return false;
        partial->Scatter(sel.runs, sel.type, sel.values());
        return true;
      },
      [&](const StreamHeader& h) { partial.emplace(h.dims, h.dtype); });

  EXPECT_TRUE(acc.streamed());
  EXPECT_TRUE(acc.cancelled);
  EXPECT_GE(acc.chunks, 1u);
  // Partial by construction: the cancel landed mid-stream.
  NdpLoadStats full_stats;
  grid::UniformGeometry full_geo;
  const contour::SparseField full = client.FetchSparseField(
      "ts.vnd", "v02", kIsos, &full_geo, &full_stats);
  EXPECT_LT(partial->ValidCount(), full.ValidCount());

  // Cancellation is audited 1:1 — counter and journal event move
  // together (the chaos invariant).
  EXPECT_EQ(
      bed.ndp_server().metrics().GetCounter("ndp_stream_cancelled_total")
          .value(),
      cancels_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.stream_cancel", seq), 1u);
}

// Server end: as the first data chunk goes out, takes every byte the
// stream's first batch left free and caps the budget at that hold, so
// the next batch cannot reserve until the test releases it.
class BudgetHoldTransport : public net::Transport {
 public:
  BudgetHoldTransport(net::TransportPtr inner, rpc::MemoryBudget& budget)
      : inner_(std::move(inner)), budget_(budget) {}

  void Send(ByteSpan frame) override {
    if (FrameHasType(frame, rpc::kChunkType) && ++chunks_ == 2) {
      std::lock_guard<std::mutex> lock(mu_);
      const std::uint64_t free = budget_.limit() - budget_.in_use();
      hold_.emplace(budget_, free);
      budget_.SetLimit(free);
      cv_.notify_all();
    }
    inner_->Send(frame);
  }
  Bytes Receive(net::Deadline deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, 10s, [this] { return hold_.has_value(); });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_.reset();
  }

 private:
  net::TransportPtr inner_;
  rpc::MemoryBudget& budget_;
  int chunks_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<rpc::MemoryBudget::Reservation> hold_;
};

// A streamed connection to the testbed's server whose NdpServer draws on
// `budget`, held full from the second batch on.
struct BudgetRig {
  BudgetHoldTransport server_end;
  std::unique_ptr<NdpClient> client;
  std::thread serve;

  BudgetRig(Testbed& bed, rpc::MemoryBudget& budget,
            net::TransportPair pair = net::CreateInProcPair())
      : server_end(std::move(pair.b), budget),
        client(std::make_unique<NdpClient>(
            std::make_shared<rpc::Client>(std::move(pair.a)),
            bed.bucket())),
        serve([this, &bed] { bed.rpc_server().ServeTransport(server_end); }) {
    bed.ndp_server().SetMemoryBudget(&budget);
  }

  ~BudgetRig() {
    client.reset();  // closes the client end: the serve loop returns
    serve.join();
  }

  // Streams ts.vnd one brick per chunk with no resume budget, counting
  // delivered chunks into `delivered`.
  contour::SparseField Stream(StreamAccumulator& acc,
                              std::atomic<int>& delivered) {
    acc.stream.chunk_bricks = 1;
    acc.stream.max_resumes = 0;
    std::optional<contour::SparseField> field;
    client->StreamSelect(
        "ts.vnd", "v02", kIsos, nullptr, acc,
        [&](DecodedSelection&& sel) {
          field->Scatter(sel.runs, sel.type, sel.values());
          ++delivered;
          return true;
        },
        [&](const StreamHeader& h) { field.emplace(h.dims, h.dtype); });
    return std::move(*field);
  }
};

// A started stream never sheds: its next batch waits for the budget
// to free, and the stream completes from the same call.
TEST(Stream, MidStreamReservationWaitsForARelease) {
  rpc::MemoryBudget budget(1 << 20);
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);
  grid::UniformGeometry mono_geo;
  const contour::SparseField mono =
      bed.ndp_client().FetchSparseField("ts.vnd", "v02", kIsos, &mono_geo);

  BudgetRig rig(bed, budget);
  std::atomic<int> delivered{0};
  int delivered_at_release = -1;
  std::thread releaser([&] {
    rig.server_end.WaitHeld();
    std::this_thread::sleep_for(100ms);  // batch 2 waits for room
    delivered_at_release = delivered.load();
    rig.server_end.Release();
  });
  StreamAccumulator acc;
  const contour::SparseField streamed = rig.Stream(acc, delivered);
  releaser.join();

  EXPECT_EQ(delivered_at_release, 1);  // batch 2 waited for the release
  EXPECT_EQ(acc.resumes, 0u);
  EXPECT_GE(delivered.load(), 2);
  EXPECT_EQ(streamed.ValidCount(), mono.ValidCount());
  EXPECT_TRUE(streamed.Contour(mono_geo, kIsos)
                  .GeometricallyEquals(mono.Contour(mono_geo, kIsos), 0.0));
}

// A budget that never frees fails the stream after its bounded wait, as
// a plain error: `!busy:` would tell the client to retry the whole call
// and duplicate the chunks it already has.
TEST(Stream, StarvedMidStreamReservationIsNotBusy) {
  rpc::MemoryBudget budget(1 << 20);
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);

  BudgetRig rig(bed, budget);
  std::atomic<int> delivered{0};
  StreamAccumulator acc;
  try {
    (void)rig.Stream(acc, delivered);
    ADD_FAILURE() << "a stream with a full budget completed";
  } catch (const BusyError& e) {
    ADD_FAILURE() << "mid-stream starvation shed as busy: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("starved"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(delivered.load(), 1);
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

TEST(Stream, PlainCallAfterAbandonedStreamSkipsItsLeftovers) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);

  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 100ms;
  so.max_resumes = 0;  // the stalled stream is abandoned, not resumed
  FaultyStreamClient faulty(bed, so);
  // The header and first chunk arrive, the next frame is held past the
  // progress deadline (and lost), and the rest of the stream still comes.
  faulty.faults->ScriptReceive({net::FaultAction::Pass(),
                                net::FaultAction::Pass(),
                                net::FaultAction::Delay(1000ms)});
  grid::UniformGeometry geo;
  EXPECT_THROW((void)faulty.client->FetchSparseField("ts.vnd", "v02", kIsos,
                                                     &geo, nullptr),
               StreamStallError);
  // Let the handler stop first (the stall cancelled the stream, unless
  // it had already ended), so every frame it leaves is on the wire
  // before the next call goes out.
  for (int i = 0; i < 500 && bed.rpc_server().inflight() > 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(bed.rpc_server().inflight(), 0);
  EXPECT_DOUBLE_EQ(faulty.RpcCounter("rpc_stale_replies_total"), 0.0);

  // The next plain call on the same client reads the stream's remaining
  // chunks and terminal, each one stale, and then its own reply.
  const std::uint64_t frames_before = faulty.faults->stats().frames_received;
  const NdpClient::FileInfo info = faulty.client->Info("ts.vnd");
  EXPECT_EQ(info.dims, (grid::Dims{32, 32, 32}));
  ASSERT_EQ(info.arrays.size(), 1u);
  EXPECT_EQ(info.arrays[0].name, "v02");
  const std::uint64_t leftovers =
      faulty.faults->stats().frames_received - frames_before - 1;
  EXPECT_GE(leftovers, 2u);  // at least one chunk and the terminal
  EXPECT_DOUBLE_EQ(faulty.RpcCounter("rpc_stale_replies_total"),
                   static_cast<double>(leftovers));
}

// Every server-side store read of `bed` takes 5 ms, so a 32^3 select in
// one-brick chunks still emits for a good while after a 100 ms stall.
void SlowStoreReads(Testbed& bed) {
  bed.store_fault().Script(storage::StoreOp::kRead,
                           {storage::StoreFaultAction::Delay(5ms)},
                           /*loop_last=*/true);
}

std::uint64_t ServerCancels(Testbed& bed) {
  return bed.ndp_server()
      .metrics()
      .GetCounter("ndp_stream_cancelled_total")
      .value();
}

// A plain call sent while the abandoned stream's handler still emits is
// answered as soon as the stream stops: the stalled client cancelled it,
// so no deadline runs out and nothing is retried.
TEST(Stream, PlainCallWhileAbandonedStreamEmitsIsAnswered) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);
  SlowStoreReads(bed);

  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 100ms;
  so.max_resumes = 0;
  FaultyStreamClient faulty(bed, so);  // call_timeout 5 s, 2 attempts
  faulty.faults->ScriptReceive({net::FaultAction::Pass(),
                                net::FaultAction::Pass(),
                                net::FaultAction::Delay(1000ms)});
  const std::uint64_t cancels_before = ServerCancels(bed);
  grid::UniformGeometry geo;
  EXPECT_THROW((void)faulty.client->FetchSparseField("ts.vnd", "v02", kIsos,
                                                     &geo, nullptr),
               StreamStallError);

  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  const auto start = std::chrono::steady_clock::now();
  const NdpClient::FileInfo info = faulty.client->Info("ts.vnd");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(info.dims, (grid::Dims{32, 32, 32}));
  EXPECT_LT(elapsed, 2s);
  EXPECT_DOUBLE_EQ(faulty.RpcCounter("rpc_timeouts_total{method=ndp.info}"),
                   0.0);
  EXPECT_DOUBLE_EQ(faulty.RpcCounter("rpc_retries_total{method=ndp.info}"),
                   0.0);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("rpc.timeout", seq), 0u);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("rpc.retry", seq), 0u);
  // The handler was still emitting when the cancel came, and the server
  // counted it once, where it read it.
  EXPECT_EQ(ServerCancels(bed), cancels_before + 1);
}

// A stream that runs past its overall deadline is abandoned like a
// stalled one: the client cancels it, so the next plain call on the
// connection is answered within its own deadline instead of waiting
// behind the rest of the stream.
TEST(Stream, PlainCallAfterTimedOutStreamIsAnswered) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);
  SlowStoreReads(bed);

  NdpClientOptions options;
  options.call_timeout = 150ms;
  NdpClient client(std::make_shared<rpc::Client>(bed.ConnectToServer()),
                   "data", options);
  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 0ms;
  so.max_resumes = 0;
  client.SetStream(so);
  const std::uint64_t cancels_before = ServerCancels(bed);
  grid::UniformGeometry geo;
  EXPECT_THROW(
      (void)client.FetchSparseField("ts.vnd", "v02", kIsos, &geo, nullptr),
      TimeoutError);

  const NdpClient::FileInfo info = client.Info("ts.vnd");
  EXPECT_EQ(info.dims, (grid::Dims{32, 32, 32}));
  EXPECT_EQ(ServerCancels(bed), cancels_before + 1);
}

// The resume a stall triggers reaches the server while the abandoned
// stream's handler still emits. The stall's cancel stops that stream,
// so the resume is served next and completes without a second stall.
TEST(Stream, ResumeWhileAbandonedStreamEmitsCompletes) {
  Testbed bed;
  StoreDataset(bed.store(), bed.bucket(), "ts.vnd", 32, 4);
  grid::UniformGeometry mono_geo;
  const contour::SparseField mono = bed.ndp_client().FetchSparseField(
      "ts.vnd", "v02", kIsos, &mono_geo, nullptr);
  SlowStoreReads(bed);

  StreamOptions so;
  so.chunk_bricks = 1;
  so.chunk_timeout = 100ms;
  so.max_resumes = 3;
  FaultyStreamClient faulty(bed, so);
  faulty.faults->ScriptReceive({net::FaultAction::Pass(),
                                net::FaultAction::Pass(),
                                net::FaultAction::Delay(1000ms)});
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  NdpLoadStats stats;
  grid::UniformGeometry geo;
  const contour::SparseField streamed = faulty.client->FetchSparseField(
      "ts.vnd", "v02", kIsos, &geo, &stats);

  EXPECT_EQ(stats.stream_resumes, 1u);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.stream_resume", seq), 1u);
  EXPECT_DOUBLE_EQ(
      faulty.RpcCounter("rpc_stream_stalls_total{method=ndp.select}"), 1.0);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("rpc.stream_stall", seq), 1u);
  EXPECT_EQ(streamed.ValidCount(), mono.ValidCount());
  EXPECT_TRUE(streamed.Contour(geo, kIsos)
                  .GeometricallyEquals(mono.Contour(mono_geo, kIsos), 0.0));
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

// While shut, holds back every frame of the connections it wraps.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool shut = false;

  void Set(bool now_shut) {
    {
      std::lock_guard<std::mutex> lock(mu);
      shut = now_shut;
    }
    cv.notify_all();
  }
};

class GateTransport : public net::Transport {
 public:
  GateTransport(net::TransportPtr inner, Gate& gate)
      : inner_(std::move(inner)), gate_(gate) {}

  void Send(ByteSpan frame) override { inner_->Send(frame); }
  void Close() override { inner_->Close(); }
  Bytes Receive(net::Deadline deadline) override {
    {
      std::unique_lock<std::mutex> lock(gate_.mu);
      gate_.cv.wait_for(lock, 10s, [this] { return !gate_.shut; });
    }
    return inner_->Receive(deadline);
  }

 private:
  net::TransportPtr inner_;
  Gate& gate_;
};

// A stream hedges until its first data chunk, and the hedge's loser is
// still a replica: when the winner dies mid-stream, the stream hops to
// the loser's node and continues from the winner's cursor.
TEST(Stream, HedgeLoserContinuesTheWinnersStreamFromItsCursor) {
  Gate gate;  // node 1's channel
  ClusterTestbedConfig config;
  config.servers = 2;
  config.replicas = 2;
  config.client_options.call_timeout = 5000ms;
  config.client_options.retry.base_delay = 200us;
  config.client_options.retry.jitter = 0.0;
  config.sharded.hedge_ms = 30;
  config.decorate = [&](net::TransportPtr inner, int server) {
    return server == 1
               ? std::make_unique<GateTransport>(std::move(inner), gate)
               : std::move(inner);
  };
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "ts.vnd", 32, 8);
  const contour::PolyData reference =
      cluster.server_client(0)->Contour("ts.vnd", "v02", kIsos);
  (void)cluster.sharded_client()->Info("ts.vnd");  // cached before faults

  StreamOptions so;
  so.chunk_bricks = 1;
  so.max_resumes = 1;
  cluster.sharded_client()->SetStream(so);
  // Node 0 answers its first frame 80 ms late, so its shard hedges onto
  // node 1, whose channel stays shut until node 0 has delivered: node 0
  // wins and node 1's hedge loses. That first delivered chunk then cuts
  // node 0's channel for good.
  cluster.fault(0).ScriptReceive({net::FaultAction::Delay(80ms)});
  gate.Set(/*now_shut=*/true);
  std::atomic<bool> cut{false};
  cluster.server_client(0)->SetStreamProgress([&](const StreamProgress&) {
    if (cut.exchange(true)) return;
    cluster.fault(0).ScriptReceive({net::FaultAction::Disconnect()});
    gate.Set(/*now_shut=*/false);
  });

  const std::uint64_t launched_before =
      CounterValue("ndp_hedge_launched_total");
  const std::uint64_t lost_before = CounterValue("ndp_hedge_lost_total");
  const std::uint64_t rescues_before =
      CounterValue("cluster_unrestricted_fallback_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  NdpLoadStats stats;
  const contour::PolyData streamed =
      cluster.sharded_client()->Contour("ts.vnd", "v02", kIsos, &stats);

  ASSERT_TRUE(cut.load());  // node 0 really won and was cut mid-stream
  EXPECT_TRUE(streamed.GeometricallyEquals(reference, 0.0));
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_GT(CounterValue("ndp_hedge_launched_total"), launched_before);
  EXPECT_GT(CounterValue("ndp_hedge_lost_total"), lost_before);
  EXPECT_EQ(CounterValue("cluster_unrestricted_fallback_total"),
            rescues_before);
  // The hop's resume names node 1: the loser's replica took the cursor.
  size_t hops_to_loser = 0;
  for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
    hops_to_loser += e.seq > seq && e.name == "ndp.stream_resume" &&
                     e.detail.ends_with(" server=1");
  }
  EXPECT_GE(hops_to_loser, 1u);
}

// A hedge loser is never resumed, so it holds its node's client no
// longer than its own call and adds no resume to the ladder's
// accounting. It learns that it lost at its first chunk, when its
// deliver is refused, or, if it fails before any chunk, when it asks the
// walk whether to resume. The primary's stall comes either in the drain
// after its refused chunk (its terminal is late) or before its header
// (its first frame is late).
TEST(Stream, HedgeLoserWhoseDrainStallsIsNotResumed) {
  const cluster::ShardMap map(2, 2);
  const int primary = map.ShardOfKey("mono.vnd");
  const int backup = 1 - primary;
  struct Case {
    const char* stalls;
    std::vector<net::FaultAction> primary_receives;
  };
  const std::vector<Case> cases = {
      {"in the drain",
       {net::FaultAction::Pass(), net::FaultAction::Pass(),
        net::FaultAction::Delay(3s)}},
      {"before the header", {net::FaultAction::Delay(3s)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("the primary stalls ") + c.stalls);
    Gate gate;  // the primary's channel
    ClusterTestbedConfig config;
    config.servers = 2;
    config.replicas = 2;
    config.client_options.call_timeout = 5000ms;
    config.client_options.retry.base_delay = 200us;
    config.client_options.retry.jitter = 0.0;
    config.decorate = [&](net::TransportPtr inner, int server) {
      return server == primary
                 ? std::make_unique<GateTransport>(std::move(inner), gate)
                 : std::move(inner);
    };
    ClusterTestbed cluster(config);
    StoreDataset(cluster.store(), cluster.bucket(), "mono.vnd", 24,
                 /*brick_edge=*/0);
    const contour::PolyData reference =
        cluster.server_client(backup)->Contour("mono.vnd", "v02", kIsos);

    cluster::ShardedClientOptions options;
    options.hedge_ms = 30;
    auto sharded = std::make_unique<cluster::ShardedNdpClient>(
        std::vector{cluster.server_client(0), cluster.server_client(1)},
        /*replicas=*/2, options);
    (void)sharded->Info("mono.vnd");  // cached before faults
    StreamOptions so;
    so.chunk_bricks = 4;
    so.chunk_timeout = 1s;
    so.max_resumes = 2;
    sharded->SetStream(so);
    // The primary stays shut until the backup has delivered, so the
    // hedge wins. Then the primary's late frame outlives the chunk
    // deadline: in the drain, after its header and its one data chunk
    // (which is refused), or at its header, before it delivers anything.
    gate.Set(/*now_shut=*/true);
    cluster.fault(primary).ScriptReceive(c.primary_receives);
    cluster.server_client(backup)->SetStreamProgress(
        [&](const StreamProgress&) { gate.Set(/*now_shut=*/false); });

    const std::uint64_t won_before = CounterValue("ndp_hedge_won_total");
    const std::uint64_t resumes_before =
        CounterValue("ndp_stream_resume_total");
    const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
    const contour::PolyData streamed =
        sharded->Contour("mono.vnd", "v02", kIsos);
    sharded.reset();  // joins the parked loser once its call has ended

    EXPECT_TRUE(streamed.GeometricallyEquals(reference, 0.0));
    EXPECT_EQ(CounterValue("ndp_hedge_won_total"), won_before + 1);
    // The loser really stalled, and nothing resumed it.
    EXPECT_GE(obs::GlobalEventLog().CountSince("rpc.stream_stall", seq), 1u);
    EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.stream_resume", seq), 0u);
    EXPECT_EQ(CounterValue("ndp_stream_resume_total"), resumes_before);
  }
}

// A hop prefers an untried replica over one whose attempt is still
// running without having delivered: that is usually the wedged primary
// that caused the hedge, and the hop would queue behind it on that
// node's client.
TEST(Stream, HopPrefersAnUntriedReplicaToAWedgedPrimary) {
  const cluster::ShardMap map(3, 3);
  const std::vector<int> chain = map.ReplicaChain(map.ShardOfKey("mono.vnd"));
  ASSERT_EQ(chain.size(), 3u);
  const int wedged = chain[0];
  const int winner = chain[1];
  const int untried = chain[2];
  Gate gate;  // the wedged primary's channel
  ClusterTestbedConfig config;
  config.servers = 3;
  config.replicas = 3;
  config.client_options.call_timeout = 5000ms;
  config.client_options.retry.base_delay = 200us;
  config.client_options.retry.jitter = 0.0;
  config.sharded.hedge_ms = 30;
  config.decorate = [&](net::TransportPtr inner, int server) {
    return server == wedged
               ? std::make_unique<GateTransport>(std::move(inner), gate)
               : std::move(inner);
  };
  ClusterTestbed cluster(config);
  StoreDataset(cluster.store(), cluster.bucket(), "mono.vnd", 24,
               /*brick_edge=*/0);
  const contour::PolyData reference =
      cluster.server_client(untried)->Contour("mono.vnd", "v02", kIsos);
  (void)cluster.sharded_client()->Info("mono.vnd");  // cached before faults

  StreamOptions so;
  so.chunk_bricks = 4;
  so.max_resumes = 0;  // a cut winner fails at once and hops
  cluster.sharded_client()->SetStream(so);
  // The primary is shut for the whole fetch, so the hedge wins; its
  // first delivered chunk then cuts its own channel.
  gate.Set(/*now_shut=*/true);
  std::atomic<bool> cut{false};
  cluster.server_client(winner)->SetStreamProgress([&](const StreamProgress&) {
    if (!cut.exchange(true)) {
      cluster.fault(winner).ScriptReceive({net::FaultAction::Disconnect()});
    }
  });

  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  NdpLoadStats stats;
  const contour::PolyData streamed =
      cluster.sharded_client()->Contour("mono.vnd", "v02", kIsos, &stats);
  gate.Set(/*now_shut=*/false);  // lets the refused primary drain

  ASSERT_TRUE(cut.load());
  EXPECT_TRUE(streamed.GeometricallyEquals(reference, 0.0));
  EXPECT_FALSE(stats.used_fallback);
  size_t to_untried = 0;
  size_t to_wedged = 0;
  for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
    if (e.seq <= seq || e.name != "ndp.stream_resume") continue;
    to_untried += e.detail.ends_with(" server=" + std::to_string(untried));
    to_wedged += e.detail.ends_with(" server=" + std::to_string(wedged));
  }
  EXPECT_EQ(to_untried, 1u);
  EXPECT_EQ(to_wedged, 0u);
}

}  // namespace
}  // namespace vizndp::ndp
