#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

namespace ldp {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenZeroRequested) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, SerialQueuePreservesFifoPerKey) {
  ThreadPool pool(4);
  constexpr uint64_t kKeys = 8;
  constexpr int kTasksPerKey = 200;
  std::vector<std::vector<int>> order(kKeys);
  for (int i = 0; i < kTasksPerKey; ++i) {
    for (uint64_t key = 0; key < kKeys; ++key) {
      // No lock in the task body: FIFO-per-key means tasks sharing a key
      // never run concurrently, which TSan verifies.
      pool.SubmitSerial(key, [&order, key, i] { order[key].push_back(i); });
    }
  }
  for (uint64_t key = 0; key < kKeys; ++key) pool.WaitSerial(key);
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_EQ(order[key].size(), static_cast<size_t>(kTasksPerKey));
    for (int i = 0; i < kTasksPerKey; ++i) {
      ASSERT_EQ(order[key][i], i) << "key " << key;
    }
  }
}

TEST(ThreadPoolTest, WaitSerialOnUnusedKeyReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitSerial(42);  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, WaitCoversSerialTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.SubmitSerial(static_cast<uint64_t>(i % 5),
                      [&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SerialKeysRunConcurrentlyOnDistinctWorkers) {
  // Two keys, each submitting a task that waits for the other key's task to
  // start: completes only if distinct keys really occupy distinct workers.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  for (uint64_t key = 0; key < 2; ++key) {
    pool.SubmitSerial(key, [&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return started == 2; });
    });
  }
  pool.Wait();
  EXPECT_EQ(started, 2);
}

TEST(ThreadPoolTest, SerialQueueSurvivesDrainAndResubmit) {
  ThreadPool pool(2);
  std::vector<int> seen;
  pool.SubmitSerial(7, [&seen] { seen.push_back(1); });
  pool.WaitSerial(7);
  // The drained key was reclaimed internally; resubmitting must start a
  // fresh FIFO, not lose tasks.
  pool.SubmitSerial(7, [&seen] { seen.push_back(2); });
  pool.SubmitSerial(7, [&seen] { seen.push_back(3); });
  pool.WaitSerial(7);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const uint64_t n = 100000;
  std::vector<std::atomic<int>> touched(n);
  ParallelFor(&pool, n, [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  uint64_t sum = 0;
  ParallelFor(nullptr, 10, [&](unsigned chunk, uint64_t begin, uint64_t end) {
    EXPECT_EQ(chunk, 0u);
    for (uint64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45u);
}

TEST(ParallelForTest, EmptyRangeInvokesNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, [&](unsigned, uint64_t, uint64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(SplitRangeTest, CoversRangeContiguously) {
  for (const uint64_t n : {1ull, 7ull, 100ull, 4001ull}) {
    for (const uint64_t chunks : {1ull, 2ull, 8ull, 64ull, 5000ull}) {
      const std::vector<IndexRange> ranges = SplitRange(n, chunks);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(ranges.size(), std::min(n, chunks));
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, n);
      for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_LT(ranges[i].begin, ranges[i].end);
        if (i > 0) {
          EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
        }
      }
    }
  }
  EXPECT_TRUE(SplitRange(0, 4).empty());
}

TEST(SplitRangeTest, MatchesParallelForChunking) {
  // The contract the stream sharding tools rely on: ParallelFor on a pool
  // of T threads visits exactly the ranges SplitRange(n, 4T) produces, in
  // chunk-index order.
  ThreadPool pool(3);
  const uint64_t n = 1001;
  const std::vector<IndexRange> expected =
      SplitRange(n, pool.num_threads() * 4);
  EXPECT_EQ(ParallelForChunkCount(&pool, n), expected.size());
  std::vector<IndexRange> seen(expected.size());
  ParallelFor(&pool, n, [&](unsigned chunk, uint64_t begin, uint64_t end) {
    seen[chunk] = {begin, end};
  });
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(seen[i].begin, expected[i].begin);
    EXPECT_EQ(seen[i].end, expected[i].end);
  }
}

TEST(ParallelForTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  const uint64_t n = 1 << 18;
  std::vector<double> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = std::sin(0.001 * i);
  const double serial = std::accumulate(values.begin(), values.end(), 0.0);

  std::mutex mutex;
  double parallel = 0.0;
  ParallelFor(&pool, n, [&](unsigned, uint64_t begin, uint64_t end) {
    double local = 0.0;
    for (uint64_t i = begin; i < end; ++i) local += values[i];
    std::lock_guard<std::mutex> lock(mutex);
    parallel += local;
  });
  EXPECT_NEAR(parallel, serial, 1e-6);
}

}  // namespace
}  // namespace ldp
