#include <gtest/gtest.h>

#include "io/vnd_format.h"
#include "sim/impact.h"
#include "storage/memory_store.h"

namespace vizndp::io {
namespace {

grid::Dataset MakeDataset() {
  grid::Dataset ds(grid::Dims{8, 8, 8});
  std::vector<float> v02(512), v03(512), rho(512);
  for (size_t i = 0; i < 512; ++i) {
    v02[i] = static_cast<float>(i % 7) / 7.0f;
    v03[i] = (i > 200 && i < 260) ? 1.0f : 0.0f;
    rho[i] = 1.0f + 0.001f * static_cast<float>(i);
  }
  ds.AddArray(grid::DataArray::FromVector("v02", v02));
  ds.AddArray(grid::DataArray::FromVector("v03", v03));
  ds.AddArray(grid::DataArray::FromVector("rho", rho));
  return ds;
}

struct StoreFixture {
  storage::MemoryObjectStore store;
  StoreFixture() { store.CreateBucket("data"); }
  storage::FileGateway gateway() { return {store, "data"}; }
};

class VndCodecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VndCodecTest, RoundTripWithCodec) {
  StoreFixture fx;
  const grid::Dataset ds = MakeDataset();
  VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec(GetParam()));
  writer.WriteToStore(fx.store, "data", "t0.vnd");

  VndReader reader(fx.gateway().Open("t0.vnd"));
  EXPECT_EQ(reader.header().dims, ds.dims());
  EXPECT_EQ(reader.ArrayNames(),
            (std::vector<std::string>{"v02", "v03", "rho"}));
  const grid::Dataset back = reader.ReadAll();
  EXPECT_EQ(back, ds);
}

INSTANTIATE_TEST_SUITE_P(Codecs, VndCodecTest,
                         ::testing::Values("none", "gzip", "lz4"));

TEST(Vnd, PerArrayCodecOverride) {
  StoreFixture fx;
  const grid::Dataset ds = MakeDataset();
  VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("none"));
  writer.SetArrayCodec("v03", compress::MakeCodec("gzip"));
  writer.WriteToStore(fx.store, "data", "t0.vnd");

  VndReader reader(fx.gateway().Open("t0.vnd"));
  EXPECT_EQ(reader.header().Find("v02")->codec, "none");
  EXPECT_EQ(reader.header().Find("v03")->codec, "gzip");
  // v03 is a long run field; gzip must shrink it.
  EXPECT_LT(reader.StoredSize("v03"), reader.StoredSize("v02"));
  EXPECT_EQ(reader.ReadAll(), ds);
}

TEST(Vnd, SelectiveReadFetchesOnlySelectedBytes) {
  storage::SsdModel ssd;
  storage::MemoryObjectStore store(&ssd);
  store.CreateBucket("data");
  const grid::Dataset ds = MakeDataset();
  VndWriter writer(ds);
  writer.WriteToStore(store, "data", "t0.vnd");

  storage::FileGateway gateway(store, "data");
  VndReader reader(gateway.Open("t0.vnd"));
  ssd.Reset();
  const grid::Dataset picked = reader.ReadSelected({"v02"});
  EXPECT_EQ(picked.ArrayCount(), 1u);
  // Only the v02 blob (2 KiB) is read — not the 6 KiB of all arrays.
  EXPECT_EQ(ssd.bytes_read(), 512u * 4);
}

TEST(Vnd, GeometryPersists) {
  StoreFixture fx;
  grid::Dataset ds(grid::Dims{4, 4, 4});
  ds.set_geometry({{1.0, 2.0, 3.0}, {0.5, 0.25, 0.125}});
  ds.AddArray(grid::DataArray::FromVector("a", std::vector<float>(64, 1.0f)));
  VndWriter(ds).WriteToStore(fx.store, "data", "g.vnd");
  VndReader reader(fx.gateway().Open("g.vnd"));
  EXPECT_EQ(reader.header().geometry, ds.geometry());
}

TEST(Vnd, Float64ArraysSupported) {
  StoreFixture fx;
  grid::Dataset ds(grid::Dims{4, 4, 1});
  ds.AddArray(grid::DataArray::FromVector<double>(
      "d", std::vector<double>(16, 3.14159)));
  VndWriter(ds).WriteToStore(fx.store, "data", "d.vnd");
  VndReader reader(fx.gateway().Open("d.vnd"));
  const grid::DataArray back = reader.ReadArray("d");
  EXPECT_EQ(back.type(), grid::DataType::Float64);
  EXPECT_DOUBLE_EQ(back.View<double>()[7], 3.14159);
}

TEST(Vnd, MissingArrayThrows) {
  StoreFixture fx;
  VndWriter(MakeDataset()).WriteToStore(fx.store, "data", "t.vnd");
  VndReader reader(fx.gateway().Open("t.vnd"));
  EXPECT_THROW(reader.ReadArray("nope"), Error);
  EXPECT_THROW(reader.ReadSelected({"v02", "nope"}), Error);
}

TEST(Vnd, CorruptBlobDetectedByCrc) {
  StoreFixture fx;
  const grid::Dataset ds = MakeDataset();
  Bytes image = VndWriter(ds).Serialize();
  image[image.size() - 8] ^= 0xFF;  // flip inside the last blob
  fx.store.Put("data", "bad.vnd", image);
  VndReader reader(fx.gateway().Open("bad.vnd"));
  EXPECT_THROW(reader.ReadArray("rho"), DecodeError);
  // Other arrays are unaffected (independent blobs).
  EXPECT_NO_THROW(reader.ReadArray("v02"));
}

TEST(Vnd, BadMagicRejected) {
  StoreFixture fx;
  fx.store.Put("data", "junk.vnd", ToBytes("GARBAGE FILE CONTENT HERE"));
  EXPECT_THROW(VndReader(fx.gateway().Open("junk.vnd")), DecodeError);
}

TEST(Vnd, TruncatedFileRejected) {
  StoreFixture fx;
  Bytes image = VndWriter(MakeDataset()).Serialize();
  image.resize(6);
  fx.store.Put("data", "trunc.vnd", image);
  EXPECT_THROW(VndReader(fx.gateway().Open("trunc.vnd")), DecodeError);
}

TEST(Vnd, ParseHeaderFromImage) {
  const Bytes image = VndWriter(MakeDataset()).Serialize();
  const VndHeader header = ParseVndHeader(image);
  EXPECT_EQ(header.arrays.size(), 3u);
  EXPECT_EQ(header.arrays[0].name, "v02");
  EXPECT_GT(header.blob_base, 12u);
  // Offsets are contiguous.
  EXPECT_EQ(header.arrays[1].offset,
            header.arrays[0].offset + header.arrays[0].stored_size);
}

TEST(Vnd, ImpactDatasetRoundTrip) {
  StoreFixture fx;
  sim::ImpactConfig cfg;
  cfg.n = 16;
  const grid::Dataset ds = sim::GenerateImpactTimestep(cfg, 24006);
  VndWriter writer(ds);
  writer.SetCodec(compress::MakeCodec("lz4"));
  writer.WriteToStore(fx.store, "data", "impact.vnd");
  VndReader reader(fx.gateway().Open("impact.vnd"));
  EXPECT_EQ(reader.ArrayNames().size(), 11u);
  EXPECT_EQ(reader.ReadAll(), ds);
}

}  // namespace
}  // namespace vizndp::io
