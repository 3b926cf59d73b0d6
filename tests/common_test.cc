#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/bytes.h"
#include "common/error.h"
#include "common/sim_time.h"
#include "common/worker_pool.h"

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

TEST(WorkerPool, EveryPartRunsExactlyOnce) {
  for (const size_t workers : {0, 1, 3}) {
    WorkerPool pool(workers);
    EXPECT_EQ(pool.threads(), workers + 1);
    for (size_t parts = 1; parts <= 64; ++parts) {
      std::vector<std::atomic<int>> runs(parts);
      pool.Run(parts, [&](size_t p) { runs[p].fetch_add(1); });
      for (size_t p = 0; p < parts; ++p) {
        ASSERT_EQ(runs[p].load(), 1) << workers << " workers, part " << p
                                     << " of " << parts;
      }
    }
  }
}

TEST(WorkerPool, LowestThrowingPartIsRethrown) {
  WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    try {
      pool.Run(8, [&](size_t p) {
        ran.fetch_add(1);
        if (p == 2 || p == 5 || p == 7) {
          throw std::runtime_error("part " + std::to_string(p));
        }
      });
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "part 2");
    }
    EXPECT_EQ(ran.load(), 8);  // a throwing part stops no other part
  }
}

// Every worker is held by another caller's parts, so this caller runs
// all of its own parts itself: a saturated pool is the serial loop.
TEST(WorkerPool, SaturatedPoolRunsPartsOnTheCaller) {
  WorkerPool pool(1);
  std::mutex mu;
  bool release = false;
  std::condition_variable cv;
  std::atomic<int> holding{0};
  std::thread holder([&] {
    pool.Run(2, [&](size_t) {
      holding.fetch_add(1);
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  });
  while (holding.load() < 2) std::this_thread::yield();

  std::set<std::thread::id> ran_on;
  pool.Run(4, [&](size_t) {
    const std::lock_guard lock(mu);
    ran_on.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ran_on, std::set<std::thread::id>{std::this_thread::get_id()});
  {
    const std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

TEST(WorkerPool, ConcurrentCallersOnASaturatedPoolAllComplete) {
  WorkerPool pool(2);
  constexpr int kCallers = 6;
  constexpr int kCalls = 20;
  constexpr size_t kParts = 16;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> runs(kParts);
        pool.Run(kParts, [&](size_t p) {
          runs[p].fetch_add(1);
          total.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
        for (const std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kCalls * static_cast<int>(kParts));
}

TEST(WorkerPool, CallFromAPoolThreadRunsInline) {
  WorkerPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<std::thread::id, std::thread::id>> outer_inner;
  std::atomic<int> worker_parts{0};
  pool.Run(4, [&](size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    if (outer == caller) {
      // Hold the caller here until a worker has run a part, so the
      // other parts land on pool threads.
      while (worker_parts.load() == 0) std::this_thread::yield();
      return;
    }
    pool.Run(3, [&](size_t) {
      const std::lock_guard lock(mu);
      outer_inner.emplace_back(outer, std::this_thread::get_id());
    });
    worker_parts.fetch_add(1);
  });
  ASSERT_FALSE(outer_inner.empty());
  EXPECT_EQ(outer_inner.size(), 3u * static_cast<size_t>(worker_parts.load()));
  for (const auto& [outer, inner] : outer_inner) EXPECT_EQ(inner, outer);
}

}  // namespace
}  // namespace vizndp
