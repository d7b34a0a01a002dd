#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/cache.h"
#include "src/util/image_io.h"
#include "src/util/parse.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace dx {
namespace {

// ---- Rng ---------------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // All values hit.
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntThrowsOnInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.UniformInt(2, 1), std::invalid_argument);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementThrowsWhenTooMany) {
  Rng rng(19);
  EXPECT_THROW(rng.SampleWithoutReplacement(5, 6), std::invalid_argument);
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(23);
  Rng child = parent.Fork();
  // A fork must not replay the parent's stream.
  Rng parent_copy(23);
  parent_copy.NextU64();  // Advance past the fork draw.
  EXPECT_NE(child.NextU64(), parent_copy.NextU64());
}

// ---- ThreadPool --------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool pool(2);
  int count = 0;
  pool.ParallelFor(0, [&](int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.ParallelFor(1, [&](int64_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](int64_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, GlobalPoolUsable) {
  std::atomic<int64_t> sum{0};
  ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
}

// Regression test for the nested-ParallelFor deadlock: before re-entrant
// calls degraded to serial, a task calling ParallelFor on its own pool queued
// chunks that no worker could ever pick up (they were all blocked waiting for
// the outer loop). The whole thing runs on a watchdog thread so a regression
// fails the test after a timeout instead of hanging ctest forever.
TEST(ThreadPoolTest, NestedParallelForOnSamePoolRunsSerially) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::packaged_task<void()> work([&] {
    pool.ParallelFor(8, [&](int64_t) {
      pool.ParallelFor(8, [&](int64_t) { count.fetch_add(1); });
    });
  });
  std::future<void> done = work.get_future();
  std::thread runner(std::move(work));
  if (done.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    runner.detach();  // Leak the wedged thread; the test already failed.
    FAIL() << "nested ParallelFor deadlocked (timed out after 120s)";
  }
  runner.join();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForStillCoversAllIndicesThreeDeep) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(4, [&](int64_t) {
      pool.ParallelFor(4, [&](int64_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](int64_t i) {
                                  pool.ParallelFor(4, [&](int64_t j) {
                                    if (i == 2 && j == 3) {
                                      throw std::runtime_error("nested boom");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, InParallelRegionReflectsNesting) {
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.ParallelFor(4, [&](int64_t) {
    if (ThreadPool::InParallelRegion()) {
      inside.fetch_add(1);
    }
  });
  EXPECT_EQ(inside.load(), 4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ConcurrentIndependentParallelForsShareOnePool) {
  // The daemon shares one compute pool across campaigns: independent
  // (non-nested) ParallelFor calls from different threads must interleave
  // without deadlock or lost indices.
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(100, [&](int64_t i) { sum.fetch_add(i + 1); });
    });
  }
  for (auto& c : callers) {
    c.join();
  }
  EXPECT_EQ(sum.load(), 4 * 5050);
}

// Regression test for the loop-completion race: the worker finishing the
// last chunk used to lock the caller's stack-held completion mutex after the
// caller could already have returned. Many short loops make that window
// likely; the ThreadSanitizer job reports it as a data race.
TEST(ThreadPoolTest, BackToBackShortLoopsComplete) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int r = 0; r < 20000; ++r) {
    pool.ParallelFor(4, [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  EXPECT_EQ(sum.load(), 20000 * 6);
}

// ---- Image IO ----------------------------------------------------------------------------

TEST(ImageIoTest, PgmRoundTrip) {
  const int h = 8;
  const int w = 6;
  std::vector<float> img(static_cast<size_t>(h) * w);
  for (size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<float>(i) / static_cast<float>(img.size());
  }
  const std::string path = ::testing::TempDir() + "/dx_test.pgm";
  WriteImage(path, img, h, w, 1);
  int rh = 0;
  int rw = 0;
  int rc = 0;
  const auto back = ReadImage(path, &rh, &rw, &rc);
  EXPECT_EQ(rh, h);
  EXPECT_EQ(rw, w);
  EXPECT_EQ(rc, 1);
  for (size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back[i], img[i], 1.0f / 255.0f);
  }
}

TEST(ImageIoTest, PpmRoundTrip) {
  const int h = 4;
  const int w = 5;
  std::vector<float> img(static_cast<size_t>(h) * w * 3, 0.5f);
  const std::string path = ::testing::TempDir() + "/dx_test.ppm";
  WriteImage(path, img, h, w, 3);
  int rh = 0;
  int rw = 0;
  int rc = 0;
  const auto back = ReadImage(path, &rh, &rw, &rc);
  EXPECT_EQ(rc, 3);
  EXPECT_EQ(back.size(), img.size());
}

TEST(ImageIoTest, ClampsOutOfRangeValues) {
  std::vector<float> img = {-1.0f, 2.0f};
  const std::string path = ::testing::TempDir() + "/dx_clamp.pgm";
  WriteImage(path, img, 1, 2, 1);
  int rh = 0;
  int rw = 0;
  int rc = 0;
  const auto back = ReadImage(path, &rh, &rw, &rc);
  EXPECT_FLOAT_EQ(back[0], 0.0f);
  EXPECT_FLOAT_EQ(back[1], 1.0f);
}

TEST(ImageIoTest, RejectsBadDimensions) {
  std::vector<float> img(10, 0.0f);
  EXPECT_THROW(WriteImage("/tmp/x.pgm", img, 3, 3, 1), std::invalid_argument);
  EXPECT_THROW(WriteImage("/tmp/x.pgm", img, 5, 2, 2), std::invalid_argument);
}

TEST(ImageIoTest, AsciiArtShape) {
  std::vector<float> img(28 * 28, 0.0f);
  const std::string art = AsciiArt(img, 28, 28, 1);
  // 28 rows of 28 chars plus newlines.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 28);
}

// ---- Table -------------------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find("| x |"), std::string::npos);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.5), "1.5");
  EXPECT_EQ(TablePrinter::Num(2.0), "2");
  EXPECT_EQ(TablePrinter::Num(0.125, 3), "0.125");
  EXPECT_EQ(TablePrinter::Percent(0.327), "32.7%");
}

// ---- Serialize ---------------------------------------------------------------------------

TEST(SerializeTest, RoundTripsAllTypes) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out);
  w.WriteU32(7);
  w.WriteI64(-42);
  w.WriteF32(3.25f);
  w.WriteString("hello");
  w.WriteFloats({1.0f, 2.0f, 3.0f});
  w.WriteInts({4, 5});

  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader r(in);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32(), 3.25f);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadFloats(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.ReadInts(), (std::vector<int>{4, 5}));
}

TEST(SerializeTest, ThrowsOnTruncation) {
  std::istringstream in("xy", std::ios::binary);
  BinaryReader r(in);
  EXPECT_THROW(r.ReadU64(), std::runtime_error);
}

TEST(SerializeTest, ReadTensorRejectsAShapeWhoseSizeOverflows) {
  // 65536^4 wraps int64 to 0, which would match an empty value list;
  // INT_MAX^3 overflows to garbage. Neither shape may decode.
  for (const Shape& shape : {Shape{65536, 65536, 65536, 65536},
                             Shape{2147483647, 2147483647, 2147483647}}) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter w(out);
    w.WriteInts(shape);
    w.WriteFloats({});
    std::istringstream in(out.str(), std::ios::binary);
    BinaryReader r(in);
    EXPECT_THROW(r.ReadTensor(), std::invalid_argument) << ShapeToString(shape);
  }
}

// ---- Cache -------------------------------------------------------------------------------

TEST(CacheTest, PutGetRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/dx_cache_test";
  std::filesystem::remove_all(dir);
  FileCache cache(dir);
  EXPECT_FALSE(cache.Get("missing").has_value());
  cache.Put("key1", "payload");
  const auto got = cache.Get("key1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload");
}

TEST(CacheTest, DistinctKeysDistinctEntries) {
  const std::string dir = ::testing::TempDir() + "/dx_cache_test2";
  std::filesystem::remove_all(dir);
  FileCache cache(dir);
  cache.Put("a", "1");
  cache.Put("b", "2");
  EXPECT_EQ(*cache.Get("a"), "1");
  EXPECT_EQ(*cache.Get("b"), "2");
}

TEST(CacheTest, Fnv1aStable) {
  // Known FNV-1a 64 test vector.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

// ---- Timer -------------------------------------------------------------------------------

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  Timer t;
  const double a = t.ElapsedSeconds();
  const double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.Reset();
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

// ---- ParseNumber -------------------------------------------------------------------------

TEST(ParseNumberTest, AcceptsOnlyWholeInRangeFiniteValues) {
  EXPECT_EQ(ParseNumber<int>("--seeds", "12"), 12);
  EXPECT_EQ(ParseNumber<int64_t>("id", "-3"), -3);
  EXPECT_EQ(ParseNumber<uint64_t>("--rng-seed", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(ParseNumber<double>("coverage_goal", "0.5"), 0.5);
  EXPECT_FLOAT_EQ(ParseNumber<float>("--step", "1e-2"), 0.01f);

  // Trailing junk, empty text, overflow, a sign on an unsigned type and
  // non-finite floats all fail, naming the flag or key and the text.
  const std::vector<std::pair<std::string, std::function<void()>>> bad = {
      {"seeds", [] { ParseNumber<int64_t>("seeds", "12abc"); }},
      {"--port", [] { ParseNumber<int>("--port", ""); }},
      {"--port", [] { ParseNumber<int>("--port", "4294967296"); }},
      {"--rng-seed", [] { ParseNumber<uint64_t>("--rng-seed", "-3"); }},
      {"coverage_goal", [] { ParseNumber<double>("coverage_goal", "abc"); }},
      {"--threshold", [] { ParseNumber<float>("--threshold", "nan"); }},
      {"--step", [] { ParseNumber<float>("--step", "1e60"); }},
  };
  for (const auto& [name, parse] : bad) {
    try {
      parse();
      ADD_FAILURE() << name << " accepted a malformed value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid value for " + name + ":"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dx
