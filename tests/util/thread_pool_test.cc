#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

TEST(ThreadPoolTest, MeanwhileRunsOnceOnTheCallingThread) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t count : {0u, 1u, 2u, 7u, 64u}) {
    std::atomic<int> meanwhile_runs{0};
    std::thread::id ran_on;
    std::vector<std::atomic<int>> visits(count);
    pool.ParallelFor(
        count, [&](std::size_t i) { visits[i]++; },
        [&] {
          meanwhile_runs++;
          ran_on = std::this_thread::get_id();
        });
    EXPECT_EQ(meanwhile_runs.load(), 1) << "count " << count;
    EXPECT_EQ(ran_on, caller) << "count " << count;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

// Two indices that each wait for the other: with one worker, they can only
// both finish if the caller takes the second. The wait is bounded so that a
// caller that idles fails the test instead of hanging it.
TEST(ThreadPoolTest, CallerTakesIndices) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> met{0};
  std::atomic<int> on_caller{0};
  pool.ParallelFor(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      on_caller++;
    }
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return arrived == 2; })) {
      met++;
    }
  });
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(on_caller.load(), 1);
}

// A throw on the calling thread, from `meanwhile` or from the caller's own
// body(i), must not unwind while a shard can still touch ParallelFor's
// stack: every other index still finishes before the rethrow.
TEST(ThreadPoolTest, CallerSideThrowWaitsForEveryShard) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (bool throw_in_meanwhile : {true, false}) {
    constexpr std::size_t kCount = 64;
    std::vector<std::atomic<int>> visits(kCount);
    std::atomic<bool> caller_threw{false};
    auto body = [&](std::size_t i) {
      if (!throw_in_meanwhile) {
        if (std::this_thread::get_id() != caller) {
          // Hold the workers until the caller has thrown, so the caller is
          // sure to take an index (bounded, as above).
          for (int k = 0; k < 10000 && !caller_threw.load(); ++k) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else if (!caller_threw.exchange(true)) {
          throw std::runtime_error("caller body");
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      visits[i]++;
    };
    auto meanwhile = [&] {
      if (throw_in_meanwhile) {
        throw std::runtime_error("meanwhile");
      }
    };
    EXPECT_THROW(pool.ParallelFor(kCount, body, meanwhile),
                 std::runtime_error);
    // Once ParallelFor has rethrown, no shard is running: the counts are
    // final. The caller's throwing index is the only one not visited.
    int visited = 0;
    for (const auto& v : visits) {
      EXPECT_LE(v.load(), 1);
      visited += v.load();
    }
    if (throw_in_meanwhile) {
      EXPECT_EQ(visited, static_cast<int>(kCount));
    } else {
      EXPECT_TRUE(caller_threw.load());
      EXPECT_EQ(visited, static_cast<int>(kCount) - 1);
    }
    std::atomic<int> count{0};
    pool.ParallelFor(16, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 16);
  }
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
