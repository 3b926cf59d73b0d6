// End-to-end data integrity: per-brick CRCs (VND format v2), the
// transient-corruption recovery ladder (verify → re-read → baseline),
// and hostile-header rejection, other format versions included.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "bench_util/testbed.h"
#include "common/worker_pool.h"
#include "compress/checksum.h"
#include "compress/lz4.h"
#include "contour/contour_filter.h"
#include "io/vnd_format.h"
#include "msgpack/pack.h"
#include "ndp/bricked_select.h"
#include "ndp/ndp_client.h"
#include "ndp/ndp_server.h"
#include "net/inproc.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace vizndp {
namespace {

Bytes MakeBrickedImage() {
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006, {"v02"});
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(4);
  return writer.Serialize();
}

// ObjectStore decorator base: forwards every call to `inner`.
class ForwardingStore : public storage::ObjectStore {
 public:
  explicit ForwardingStore(storage::ObjectStore& inner) : inner_(inner) {}

  Bytes GetRange(const std::string& bucket, const std::string& key,
                 std::uint64_t offset, std::uint64_t length) override {
    return inner_.GetRange(bucket, key, offset, length);
  }
  void CreateBucket(const std::string& b) override { inner_.CreateBucket(b); }
  bool BucketExists(const std::string& b) const override {
    return inner_.BucketExists(b);
  }
  void Put(const std::string& b, const std::string& k,
           ByteSpan data) override {
    inner_.Put(b, k, data);
  }
  Bytes Get(const std::string& b, const std::string& k) override {
    return inner_.Get(b, k);
  }
  storage::ObjectInfo Stat(const std::string& b,
                           const std::string& k) override {
    return inner_.Stat(b, k);
  }
  bool Exists(const std::string& b, const std::string& k) override {
    return inner_.Exists(b, k);
  }
  void Delete(const std::string& b, const std::string& k) override {
    inner_.Delete(b, k);
  }
  std::vector<storage::ObjectInfo> List(const std::string& b,
                                        const std::string& p) override {
    return inner_.List(b, p);
  }

 private:
  storage::ObjectStore& inner_;
};

// Flips one byte in the first ranged read at or past `min_offset` (the
// blob base: header reads stay clean) — a transient fault, healed by
// the very next read of the same range.
class FlakyStore : public ForwardingStore {
 public:
  FlakyStore(storage::ObjectStore& inner, std::uint64_t min_offset)
      : ForwardingStore(inner), min_offset_(min_offset) {}

  bool flipped() const { return flipped_; }

  Bytes GetRange(const std::string& bucket, const std::string& key,
                 std::uint64_t offset, std::uint64_t length) override {
    Bytes out = ForwardingStore::GetRange(bucket, key, offset, length);
    if (!flipped_ && offset >= min_offset_ && !out.empty()) {
      out[out.size() / 2] ^= 0x01;
      flipped_ = true;
    }
    return out;
  }

 private:
  std::uint64_t min_offset_;
  bool flipped_ = false;
};

// Flips the byte at each of `offsets` (absolute) in the first ranged read
// that covers it, and never again: each planted rot is transient.
class RotOnceStore : public ForwardingStore {
 public:
  RotOnceStore(storage::ObjectStore& inner, std::vector<std::uint64_t> offsets)
      : ForwardingStore(inner), pending_(std::move(offsets)) {}

  Bytes GetRange(const std::string& bucket, const std::string& key,
                 std::uint64_t offset, std::uint64_t length) override {
    Bytes out = ForwardingStore::GetRange(bucket, key, offset, length);
    std::erase_if(pending_, [&](std::uint64_t at) {
      if (at < offset || at >= offset + out.size()) return false;
      out[static_cast<size_t>(at - offset)] ^= 0x01;
      return true;
    });
    return out;
  }

 private:
  std::vector<std::uint64_t> pending_;
};

contour::PolyData CleanBaseline(const Bytes& image, double iso) {
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  store.Put("data", "t.vnd", image);
  io::VndReader reader(storage::FileGateway(store, "data").Open("t.vnd"));
  const contour::ContourFilter filter(std::vector<double>{iso});
  return filter.Execute(reader.header().dims, reader.header().geometry,
                        reader.ReadArray("v02"));
}

// The offset in the object of the middle byte of `array`'s brick `b`.
std::uint64_t BrickMiddle(const io::VndHeader& header,
                          const io::ArrayMeta& meta, std::int64_t b) {
  const io::BrickEntry& e = meta.bricks->entries[static_cast<size_t>(b)];
  return header.blob_base + meta.offset + e.offset + e.stored_size / 2;
}

// A copy of `image` with `mask` XORed into the middle byte of the first
// v02 brick whose [min, max] straddles `iso`, so the pre-filter must read
// it. Rot at rest: every read of the copy sees the same bad byte. Empty
// when no brick straddles.
Bytes RotStraddlingBrick(const Bytes& image, double iso, Byte mask) {
  const io::VndHeader header = io::ParseVndHeader(image);
  const io::ArrayMeta* meta = header.Find("v02");
  if (meta == nullptr || !meta->bricks.has_value()) return {};
  for (size_t b = 0; b < meta->bricks->entries.size(); ++b) {
    const io::BrickEntry& e = meta->bricks->entries[b];
    if (e.min < iso && e.max >= iso && e.stored_size > 0) {
      Bytes rotted = image;
      rotted[static_cast<size_t>(
          BrickMiddle(header, *meta, static_cast<std::int64_t>(b)))] ^= mask;
      return rotted;
    }
  }
  return {};
}

double GlobalCounter(const std::string& name) {
  return obs::DefaultRegistry().GetCounter(name).value();
}

TEST(Integrity, Crc32StreamMatchesOneShot) {
  Bytes data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<Byte>((i * 31 + 7) & 0xff);
  }
  const std::uint32_t one_shot = compress::Crc32(data);
  compress::Crc32Stream stream;
  // Uneven chunking, including empty updates.
  const size_t cuts[] = {0, 1, 2, 130, 130, 500, 999, 1000};
  size_t pos = 0;
  for (const size_t cut : cuts) {
    stream.Update(ByteSpan(data).subspan(pos, cut - pos));
    pos = cut;
  }
  EXPECT_EQ(stream.value(), one_shot);
  stream.Reset();
  stream.Update(data);
  EXPECT_EQ(stream.value(), one_shot);
}

TEST(Integrity, WriterRecordsPerBrickCrcs) {
  const Bytes image = MakeBrickedImage();
  const io::VndHeader h = io::ParseVndHeader(image);
  const io::ArrayMeta* meta = h.Find("v02");
  ASSERT_NE(meta, nullptr);
  ASSERT_TRUE(meta->bricks.has_value());
  // Every entry's crc32 matches the stored brick bytes, and the
  // whole-blob CRC still covers the concatenation.
  compress::Crc32Stream blob_crc;
  for (const io::BrickEntry& e : meta->bricks->entries) {
    const ByteSpan brick = ByteSpan(image).subspan(
        static_cast<size_t>(h.blob_base + meta->offset + e.offset),
        static_cast<size_t>(e.stored_size));
    EXPECT_EQ(compress::Crc32(brick), e.crc32);
    blob_crc.Update(brick);
  }
  EXPECT_EQ(blob_crc.value(), meta->crc32);
}

TEST(Integrity, TransientCorruptBrickHealsAndMatchesBaseline) {
  const Bytes image = MakeBrickedImage();
  const io::VndHeader header = io::ParseVndHeader(image);
  const contour::PolyData baseline = CleanBaseline(image, 0.1);
  ASSERT_GT(baseline.TriangleCount(), 0u);

  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  store.Put("data", "t.vnd", image);
  FlakyStore flaky(store, header.blob_base);

  rpc::Server server;
  ndp::NdpServer ndp_server{storage::FileGateway(flaky, "data")};
  ndp_server.Bind(server);
  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve([&] { server.ServeTransport(*pair.b); });

  const double corrupt_before = GlobalCounter("corrupt_brick_total");
  const double reread_before = GlobalCounter("brick_reread_total");

  {
    auto client = std::make_shared<rpc::Client>(std::move(pair.a));
    ndp::NdpClient ndp(client, "data");
    ndp::NdpLoadStats stats;
    const contour::PolyData poly = ndp.Contour("t.vnd", "v02", {0.1}, &stats);

    // The flip happened, the re-read healed it, and the geometry is
    // bit-for-bit the baseline's — corruption cost one extra brick
    // fetch, not correctness.
    EXPECT_TRUE(flaky.flipped());
    EXPECT_FALSE(stats.used_fallback);
    EXPECT_TRUE(poly.GeometricallyEquals(baseline, 0.0));
    EXPECT_DOUBLE_EQ(GlobalCounter("corrupt_brick_total"),
                     corrupt_before + 1);
    EXPECT_DOUBLE_EQ(GlobalCounter("brick_reread_total"), reread_before + 1);
  }
  // Scope exit destroyed every owner of the rpc client, closing the
  // transport; the serve thread sees the peer close and exits.
  serve.join();
}

TEST(Integrity, PersistentCorruptionDegradesToBaselinePath) {
  const Bytes image = MakeBrickedImage();
  const contour::PolyData baseline = CleanBaseline(image, 0.1);
  ASSERT_GT(baseline.TriangleCount(), 0u);

  // Corrupt a brick the pre-filter must read (its [min, max] straddles
  // the isovalue), permanently: re-reads see the same bad byte.
  const Bytes corrupted = RotStraddlingBrick(image, 0.1, 0xFF);
  ASSERT_FALSE(corrupted.empty());

  storage::MemoryObjectStore bad_store;
  bad_store.CreateBucket("data");
  bad_store.Put("data", "t.vnd", corrupted);
  storage::MemoryObjectStore good_store;
  good_store.CreateBucket("data");
  good_store.Put("data", "t.vnd", image);

  rpc::Server server;
  ndp::NdpServer ndp_server{storage::FileGateway(bad_store, "data")};
  ndp_server.Bind(server);
  net::TransportPair pair = net::CreateInProcPair();
  std::thread serve([&] { server.ServeTransport(*pair.b); });

  const double fallbacks_before = GlobalCounter("ndp_fallback_total");

  {
    auto client = std::make_shared<rpc::Client>(std::move(pair.a));
    auto ndp = std::make_shared<ndp::NdpClient>(client, "data");
    ndp::NdpContourSource source(ndp, "t.vnd", "v02", {0.1});
    source.SetFallback(storage::FileGateway(good_store, "data"));
    const contour::PolyData& poly = source.UpdateAndGetOutput()->AsPolyData();

    // Full ladder: brick CRC fail → re-read fails → typed error crosses
    // the wire → client degrades to the baseline read against the clean
    // replica. Geometry is bit-identical.
    EXPECT_TRUE(source.last_stats().used_fallback);
    EXPECT_TRUE(poly.GeometricallyEquals(baseline, 0.0));
    EXPECT_DOUBLE_EQ(GlobalCounter("ndp_fallback_total"),
                     fallbacks_before + 1);
  }
  serve.join();
}

// Rot at rest is found where it is read: the CRC check and its one
// re-read fail the fetch typed, counted once. A clean re-Put heals the
// object on the same running server, with no CRC failure after it.
TEST(Integrity, CleanRePutHealsRottedBrickWithoutRestart) {
  const Bytes image = MakeBrickedImage();
  const contour::PolyData baseline = CleanBaseline(image, 0.1);
  ASSERT_GT(baseline.TriangleCount(), 0u);

  // Flip one bit in a brick the pre-filter must read.
  const Bytes rotted = RotStraddlingBrick(image, 0.1, 0x01);
  ASSERT_FALSE(rotted.empty());

  bench_util::Testbed bed;
  bed.store().Put(bed.bucket(), "t.vnd", rotted);
  const double corrupt_before = GlobalCounter("corrupt_brick_total");
  const double reread_before = GlobalCounter("brick_reread_total");
  const std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  grid::UniformGeometry geometry;
  EXPECT_THROW(
      bed.ndp_client().FetchSparseField("t.vnd", "v02", {0.1}, &geometry),
      CorruptDataError);
  EXPECT_DOUBLE_EQ(GlobalCounter("corrupt_brick_total"), corrupt_before + 1);
  EXPECT_DOUBLE_EQ(GlobalCounter("brick_reread_total"), reread_before + 1);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.corrupt_brick", seq), 1u);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.brick_reread", seq), 1u);

  bed.store().Put(bed.bucket(), "t.vnd", image);
  const contour::PolyData healed =
      bed.ndp_client().Contour("t.vnd", "v02", {0.1});
  EXPECT_TRUE(healed.GeometricallyEquals(baseline, 0.0));
  EXPECT_DOUBLE_EQ(GlobalCounter("corrupt_brick_total"), corrupt_before + 1);
  EXPECT_DOUBLE_EQ(GlobalCounter("brick_reread_total"), reread_before + 1);
}

// 64^3 float64 random values in LZ4 bricks of edge 8: every brick
// straddles any isovalue in (0, 1), and the whole plan is 2.7 MiB of
// decoded slabs, one batch of two parts on a machine with two threads.
Bytes MakeTwoPartImage() {
  const grid::Dims dims{64, 64, 64};
  std::mt19937 rng(64);
  std::vector<double> f(static_cast<size_t>(dims.PointCount()));
  for (double& v : f) v = static_cast<double>(rng() % 1000) / 999.0;
  grid::Dataset ds(dims);
  ds.AddArray(grid::DataArray::FromVector("v02", f));
  io::VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.SetBrickSize(8);
  return writer.Serialize();
}

contour::Selection SelectWholePlan(storage::ObjectStore& store,
                                   ndp::BrickedSelectStats* stats) {
  const io::VndReader reader(
      storage::FileGateway(store, "data").Open("t.vnd"));
  const std::vector<double> isos = {0.5};
  const ndp::BrickPlan plan = ndp::PlanBricks(
      reader.header().dims, *reader.header().Find("v02"), isos);
  return ndp::SelectBricks(reader, "v02", isos, plan, plan.bricks, stats);
}

// Two rotted bricks in different parts of one batch, the plan's first
// and last: the calling thread settles them in brick order, each with
// one count and one re-read, and a persistent rot fails on the lower.
TEST(Integrity, RotInTwoPartsIsSettledInBrickOrder) {
  const Bytes image = MakeTwoPartImage();
  const io::VndHeader header = io::ParseVndHeader(image);
  const io::ArrayMeta& meta = *header.Find("v02");
  const auto last = static_cast<std::int64_t>(meta.bricks->entries.size()) - 1;
  const std::vector<std::uint64_t> rot = {BrickMiddle(header, meta, 0),
                                          BrickMiddle(header, meta, last)};
  storage::MemoryObjectStore clean;
  clean.CreateBucket("data");
  clean.Put("data", "t.vnd", image);
  const contour::Selection oracle = contour::SelectInterestingPoints(
      header.dims,
      io::VndReader(storage::FileGateway(clean, "data").Open("t.vnd"))
          .ReadArray("v02"),
      std::vector<double>{0.5});

  // Transient: only the batch's run read sees each flip.
  RotOnceStore flaky(clean, rot);
  std::uint64_t seq = obs::GlobalEventLog().LastSeq();
  ndp::BrickedSelectStats stats;
  const contour::Selection healed = SelectWholePlan(flaky, &stats);
  EXPECT_EQ(stats.parts, static_cast<std::int64_t>(
                             std::min<size_t>(2, DefaultPool().threads())));
  EXPECT_EQ(stats.corrupt_bricks, 2);
  EXPECT_EQ(stats.brick_rereads, 2);
  std::vector<std::string> journal;
  for (const obs::LogEvent& e : obs::GlobalEventLog().Events()) {
    if (e.seq > seq) journal.push_back(e.name + " " + e.detail);
  }
  const std::string at_last = "array=v02 brick=" + std::to_string(last);
  EXPECT_EQ(journal, (std::vector<std::string>{
                         "ndp.corrupt_brick array=v02 brick=0",
                         "ndp.brick_reread array=v02 brick=0",
                         "ndp.corrupt_brick " + at_last,
                         "ndp.brick_reread " + at_last}));
  EXPECT_EQ(healed.ids, oracle.ids);
  EXPECT_EQ(std::memcmp(healed.values.View<double>().data(),
                        oracle.values.View<double>().data(),
                        oracle.values.View<double>().size_bytes()),
            0);

  // Persistent: rot at rest in both bricks. Brick 0 fails its re-read
  // and is thrown; the last brick is never counted or re-read.
  Bytes rotted = image;
  for (const std::uint64_t at : rot) rotted[static_cast<size_t>(at)] ^= 0x01;
  storage::MemoryObjectStore bad;
  bad.CreateBucket("data");
  bad.Put("data", "t.vnd", rotted);
  seq = obs::GlobalEventLog().LastSeq();
  try {
    SelectWholePlan(bad, nullptr);
    FAIL() << "expected CorruptDataError";
  } catch (const CorruptDataError& e) {
    EXPECT_TRUE(std::string(e.what()).ends_with("v02 brick 0")) << e.what();
  }
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.corrupt_brick", seq), 1u);
  EXPECT_EQ(obs::GlobalEventLog().CountSince("ndp.brick_reread", seq), 1u);
}

// ---- hostile header construction helpers ----

Bytes ImageFromHeader(msgpack::Map header, size_t blob_bytes) {
  const Bytes hb = msgpack::Encode(msgpack::Value(std::move(header)));
  // Magic, version 2, header size, header, then zeroed blob bytes.
  Bytes out(12 + hb.size() + blob_bytes);
  const Byte magic[4] = {'V', 'N', 'D', 'F'};
  std::copy(magic, magic + 4, out.data());
  StoreLE<std::uint32_t>(2, out.data() + 4);
  StoreLE<std::uint32_t>(static_cast<std::uint32_t>(hb.size()), out.data() + 8);
  std::copy(hb.begin(), hb.end(), out.data() + 12);
  return out;
}

msgpack::Map BaseHeader(std::int64_t nx, std::int64_t ny, std::int64_t nz) {
  using msgpack::Value;
  msgpack::Map h;
  h.emplace_back(Value("dims"),
                 Value(msgpack::Array{Value(nx), Value(ny), Value(nz)}));
  h.emplace_back(Value("origin"),
                 Value(msgpack::Array{Value(0.0), Value(0.0), Value(0.0)}));
  h.emplace_back(Value("spacing"),
                 Value(msgpack::Array{Value(1.0), Value(1.0), Value(1.0)}));
  return h;
}

msgpack::Value ArrayEntry(const std::string& name, std::uint64_t raw,
                          std::uint64_t stored, std::uint64_t offset,
                          const std::string& codec = "none") {
  using msgpack::Value;
  msgpack::Map m;
  m.emplace_back(Value("name"), Value(name));
  m.emplace_back(Value("type"), Value("float32"));
  m.emplace_back(Value("codec"), Value(codec));
  m.emplace_back(Value("raw_size"), Value(raw));
  m.emplace_back(Value("stored_size"), Value(stored));
  m.emplace_back(Value("offset"), Value(offset));
  m.emplace_back(Value("crc32"), Value(std::uint64_t{0}));
  return Value(std::move(m));
}

// Both parse paths reject `image`: the bytes alone, and a reader
// opening them from a store.
void ExpectRejectedOnOpen(const Bytes& image, const std::string& what) {
  EXPECT_THROW(io::ParseVndHeader(image), DecodeError) << what;
  storage::MemoryObjectStore store;
  store.CreateBucket("data");
  store.Put("data", "v.vnd", image);
  EXPECT_THROW(
      (void)io::VndReader(storage::FileGateway(store, "data").Open("v.vnd")),
      DecodeError)
      << what;
}

TEST(Integrity, HostileHeadersRejectedOnOpen) {
  using msgpack::Value;

  // Truncated preamble and bad magic.
  EXPECT_THROW(io::ParseVndHeader(Bytes{0x56, 0x4e}), DecodeError);
  Bytes bad_magic = MakeBrickedImage();
  bad_magic[0] = 'X';
  EXPECT_THROW(io::ParseVndHeader(bad_magic), DecodeError);

  // Any version but 2, the one the writer emits, on both parse paths.
  // The header is the well-formed one of the last case, with no brick
  // entries, so only the version is wrong: 1 is rejected like the rest.
  for (const std::uint32_t version : {1u, 3u, 99u}) {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 32, 32, 0)}));
    Bytes bad_version = ImageFromHeader(std::move(h), 32);
    StoreLE<std::uint32_t>(version, bad_version.data() + 4);
    ExpectRejectedOnOpen(bad_version, "version " + std::to_string(version));
  }

  // A codec this build does not decode, on both parse paths: the file
  // is rejected at open, not at its first read. rle and zlib were
  // written by earlier builds; zstd never was.
  for (const std::string codec : {"rle", "zlib", "zstd"}) {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 32, 32, 0, codec)}));
    ExpectRejectedOnOpen(ImageFromHeader(std::move(h), 32), codec);
  }

  // Header-size field larger than the file.
  Bytes lying_header = MakeBrickedImage();
  StoreLE<std::uint32_t>(0xffffffffu, lying_header.data() + 8);
  EXPECT_THROW(io::ParseVndHeader(lying_header), DecodeError);

  // Truncated blob region: a declared array overruns the physical file.
  Bytes truncated = MakeBrickedImage();
  truncated.resize(truncated.size() - 16);
  EXPECT_THROW(io::ParseVndHeader(truncated), DecodeError);

  // Non-positive dims.
  {
    msgpack::Map h = BaseHeader(0, 8, 8);
    h.emplace_back(Value("arrays"), Value(msgpack::Array{}));
    EXPECT_THROW(io::ParseVndHeader(ImageFromHeader(std::move(h), 0)),
                 DecodeError);
  }

  // raw_size that disagrees with the grid.
  {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 9999, 32, 0)}));
    EXPECT_THROW(io::ParseVndHeader(ImageFromHeader(std::move(h), 32)),
                 DecodeError);
  }

  // Overlapping array blobs (offset lies).
  {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 32, 32, 0),
                                        ArrayEntry("b", 32, 32, 16)}));
    EXPECT_THROW(io::ParseVndHeader(ImageFromHeader(std::move(h), 64)),
                 DecodeError);
  }

  // Array blob pointing past the end of the file.
  {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 32, 32, 4096)}));
    EXPECT_THROW(io::ParseVndHeader(ImageFromHeader(std::move(h), 32)),
                 DecodeError);
  }

  // A well-formed hand-built header still parses (the helpers above are
  // not rejected for incidental reasons).
  {
    msgpack::Map h = BaseHeader(2, 2, 2);
    h.emplace_back(Value("arrays"),
                   Value(msgpack::Array{ArrayEntry("a", 32, 32, 0)}));
    const io::VndHeader parsed =
        io::ParseVndHeader(ImageFromHeader(std::move(h), 32));
    EXPECT_EQ(parsed.arrays.size(), 1u);
  }
}

}  // namespace
}  // namespace vizndp
