#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace util {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.ParallelFor(visits.size(), [&](std::size_t i) { visits[i]++; });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.ParallelFor(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolTest, ParallelForSingleItem) {
  ThreadPool pool(4);
  int value = 0;
  pool.ParallelFor(1, [&](std::size_t) { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ParallelForAggregatesCorrectly) {
  ThreadPool pool(3);
  std::vector<long> out(1000);
  pool.ParallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<long>(i) * 2;
  });
  long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 999L * 1000L);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](std::size_t i) {
                                  if (i == 3) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, SequentialParallelForsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int iter = 0; iter < 50; ++iter) {
    pool.ParallelFor(10, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelStridedTest, EveryIndexBelongsToExactlyOneTask) {
  ThreadPool one(1);
  ThreadPool three(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &three}) {
    const std::size_t workers = pool ? pool->size() : 0;
    for (std::size_t count : {0u, 1u, 2u, 5u, 12u, 13u, 150u}) {
      std::vector<std::atomic<int>> visits(count);
      std::atomic<std::size_t> task_count{0};
      ParallelStrided(pool, count, [&](std::size_t first, std::size_t tasks) {
        if (pool == nullptr) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
        }
        task_count++;
        for (std::size_t i = first; i < count; i += tasks) {
          visits[i]++;
        }
      });
      // Null pool (or nothing to split): one task on the calling thread;
      // else about four per worker, never more than there are indices.
      const std::size_t want = pool == nullptr || count < 2
                                   ? 1
                                   : std::min(count, 4 * workers);
      EXPECT_EQ(task_count.load(), want)
          << "workers " << workers << " count " << count;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "workers " << workers << " count " << count << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace util
