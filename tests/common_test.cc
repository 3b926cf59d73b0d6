#include <gtest/gtest.h>

#include <thread>

#include "common/bytes.h"
#include "common/error.h"
#include "common/sim_time.h"

namespace vizndp {
namespace {

TEST(Bytes, LittleEndianRoundTripU32) {
  Byte buf[4];
  StoreLE<std::uint32_t>(0xDEADBEEFu, buf);
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
  EXPECT_EQ(buf[2], 0xAD);
  EXPECT_EQ(buf[3], 0xDE);
  EXPECT_EQ(LoadLE<std::uint32_t>(buf), 0xDEADBEEFu);
}

TEST(Bytes, LittleEndianRoundTripSigned) {
  Byte buf[8];
  StoreLE<std::int64_t>(-123456789012345LL, buf);
  EXPECT_EQ(LoadLE<std::int64_t>(buf), -123456789012345LL);
  StoreLE<std::int16_t>(-2, buf);
  EXPECT_EQ(LoadLE<std::int16_t>(buf), -2);
}

TEST(Bytes, AppendLEGrowsBuffer) {
  Bytes out;
  AppendLE<std::uint16_t>(0x0102, out);
  AppendLE<std::uint32_t>(0x03040506u, out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], 0x02);
  EXPECT_EQ(out[1], 0x01);
  EXPECT_EQ(out[5], 0x03);
}

TEST(Bytes, AsBytesOnStringView) {
  const auto span = AsBytes(std::string_view("abc"));
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0], 'a');
  EXPECT_EQ(AsStringView(span), "abc");
}

TEST(Bytes, VectorBytesRoundTrip) {
  const std::vector<float> values = {1.0f, -2.5f, 3.25f};
  const ByteSpan raw = AsBytes(values);
  ASSERT_EQ(raw.size(), 12u);
  const auto back = BytesTo<float>(raw);
  EXPECT_EQ(back, values);
}

TEST(Error, CheckMacroThrowsWithExpression) {
  try {
    VIZNDP_CHECK_MSG(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("numbers disagree"),
              std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw DecodeError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw RpcError("x"), Error);
}

TEST(AtomicSeconds, AccumulatesAcrossThreads) {
  AtomicSeconds acc;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&acc] {
      for (int i = 0; i < 1000; ++i) acc.Add(0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NEAR(acc.Get(), 4.0, 1e-9);
  acc.Reset();
  EXPECT_EQ(acc.Get(), 0.0);
}

}  // namespace
}  // namespace vizndp
