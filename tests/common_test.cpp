// Tests for src/common: RNG determinism and statistics, assertions,
// string/table formatting, logging, parallel_for.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace ballfit {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 9.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::array<int, 7> counts{};
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, draws / 7, draws / 7 * 0.1);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(13);
  Rng child = parent.split();
  // The child stream must not replay the parent stream.
  Rng parent2(13);
  (void)parent2();  // parent consumed one draw for the split
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child() == parent2());
  EXPECT_LT(equal, 3);
}

TEST(Assert, RequireThrowsInvalidArgument) {
  EXPECT_THROW(BALLFIT_REQUIRE(false, "boom"), InvalidArgument);
  EXPECT_NO_THROW(BALLFIT_REQUIRE(true, "fine"));
}

TEST(Assert, AssertThrowsAssertionError) {
  EXPECT_THROW(BALLFIT_ASSERT(1 == 2), AssertionError);
  EXPECT_NO_THROW(BALLFIT_ASSERT(1 == 1));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, "--"), "x");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.623, 1), "62.3%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Parallel, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i]++; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> hits(100, 0);
  parallel_for(100, [&](std::size_t i) { hits[i]++; }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, [&](std::size_t i) { hits[i]++; }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerExceptionRethrownOnJoiningThread) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 617) throw std::runtime_error("worker failure");
          },
          8),
      std::runtime_error);
  try {
    parallel_for(
        100, [](std::size_t) { throw std::runtime_error("always"); }, 4);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "always");
  }
}

/// Runs `parallel_for(count, ..., threads)` and returns the distinct threads
/// that ran at least one index.
std::set<std::thread::id> worker_ids(std::size_t count, unsigned threads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(
      count,
      [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      },
      threads);
  return ids;
}

TEST(Parallel, SkewedCostVisitsEveryIndexOnce) {
  // The expensive indices cluster at the end of the range, as boundary
  // nodes and large patches do in id order.
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::uint64_t> sink{0};
  parallel_for(
      kCount,
      [&](std::size_t i) {
        std::uint64_t x = i;
        const int spins = i >= kCount - 40 ? 200000 : 10;
        for (int s = 0; s < spins; ++s) x = x * 6364136223846793005ULL + 1;
        sink.fetch_add(x, std::memory_order_relaxed);
        hits[i]++;
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EverySpawnedWorkerRunsAnIndex) {
  // Worker t is seeded with chunk t, so once the range is split at all,
  // every requested thread takes part — even when the work is trivial.
  for (const auto& [count, threads] :
       std::vector<std::pair<std::size_t, unsigned>>{
           {8, 4}, {64, 4}, {1000, 4}, {16, 8}, {5000, 3}}) {
    SCOPED_TRACE(std::to_string(count) + " on " + std::to_string(threads));
    EXPECT_EQ(worker_ids(count, threads).size(), threads);
  }
}

TEST(Parallel, NoMoreWorkersThanChunks) {
  for (const auto& [count, threads] :
       std::vector<std::pair<std::size_t, unsigned>>{
           {3, 16}, {9, 4}, {100, 8}, {100000, 4}}) {
    SCOPED_TRACE(std::to_string(count) + " on " + std::to_string(threads));
    const std::size_t chunk = parallel_chunk_size(count, threads);
    EXPECT_GE(chunk, 1u);
    EXPECT_LE(chunk, 64u);
    const std::size_t chunks = (count + chunk - 1) / chunk;
    const std::set<std::thread::id> ids = worker_ids(count, threads);
    EXPECT_LE(ids.size(), std::min<std::size_t>(threads, chunks));
    if (count < 2 * static_cast<std::size_t>(threads)) {
      // Too small to split: runs inline on the calling thread.
      EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
    }
  }
}

TEST(Parallel, ThrowInLateChunkRethrownOnJoiningThread) {
  // The throwing index sits in the last chunk, which some worker reaches
  // only by claiming it from the shared counter.
  constexpr std::size_t kCount = 4096;
  ASSERT_GE((kCount - 3) / parallel_chunk_size(kCount, 4), 4u);  // unseeded
  try {
    parallel_for(
        kCount,
        [](std::size_t i) {
          if (i == kCount - 3) throw std::runtime_error("late failure");
        },
        4);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late failure");
  }
}

TEST(Parallel, SingleThreadExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(
          10, [](std::size_t) { throw std::runtime_error("st"); }, 1),
      std::runtime_error);
}

TEST(Log, ConcurrentWritesAndLevelChangesAreSafe) {
  // Exercises the write mutex and the atomic level under contention; the
  // assertion is "no data race / no crash" (checked by the TSan CI job).
  const LogLevel prev = Log::level();
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < 20; ++i) {
        Log::set_level(i % 2 ? LogLevel::kDebug : LogLevel::kWarn);
        Log::write(LogLevel::kDebug,
                   "concurrent log test t" + std::to_string(t));
        (void)Log::level();
      }
    });
  }
  for (auto& w : writers) w.join();
  Log::set_level(prev);
}

}  // namespace
}  // namespace ballfit
