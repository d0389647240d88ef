#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) {
      num_threads = 1;
    }
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  // Queue-wait telemetry piggybacks on the tracing switch: when tracing is
  // off, Submit costs one branch extra; when on, each task records the time
  // it sat in the queue into the default registry.
  if (obs::TraceRecorder::Global().enabled()) {
    const auto enqueued = std::chrono::steady_clock::now();
    task = [inner = std::move(task), enqueued] {
      const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - enqueued);
      // Looked up per task, not cached: DefaultRegistry().Reset() must not
      // leave a dangling reference behind (Submit volume is a handful of
      // tasks per round, so the map lookup is noise).
      obs::DefaultRegistry()
          .GetHistogram("threadpool.queue_wait_us")
          .Record(static_cast<double>(waited.count()) / 1e3);
      AF_TRACE_SPAN("threadpool.task");
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AF_CHECK(!stopping_) << "submit after shutdown";
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             const std::function<void()>& meanwhile) {
  if (count == 0) {
    if (meanwhile) {
      meanwhile();
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::condition_variable done_cv;
  std::mutex done_mutex;

  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) {
      first_error = std::current_exception();
    }
  };
  // Pulls indices until exhausted. Shards and the caller share one counter,
  // so every index runs exactly once whoever takes it.
  auto drain = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1);
      if (i >= count) {
        break;
      }
      try {
        body(i);
      } catch (...) {
        record_error();
      }
    }
  };

  // One task per worker; each drains the counter. This keeps the queue small
  // and balances uneven per-client training times. The waiter blocks until
  // every shard has fully exited, so no shard can touch these stack-local
  // synchronisation objects after ParallelFor returns.
  std::size_t shards = std::min(count, workers_.size());
  std::size_t active = shards;
  for (std::size_t s = 0; s < shards; ++s) {
    Submit([&] {
      drain();
      // Notify while holding the lock: the waiter re-checks the predicate
      // only after reacquiring done_mutex, so the cv cannot be destroyed
      // while this shard still touches it.
      std::lock_guard<std::mutex> lock(done_mutex);
      --active;
      done_cv.notify_all();
    });
  }
  // The caller works instead of idling: first its side task, then whatever
  // indices are left. Its errors are recorded, not thrown, so it still waits
  // for every shard below.
  if (meanwhile) {
    try {
      meanwhile();
    } catch (...) {
      record_error();
    }
  }
  drain();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return active == 0; });
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ParallelStrided(ThreadPool* pool, std::size_t count,
                     const std::function<void(std::size_t first,
                                              std::size_t tasks)>& body) {
  if (pool == nullptr || count < 2) {
    body(0, 1);
    return;
  }
  const std::size_t tasks = std::min(count, 4 * pool->size());
  pool->ParallelFor(tasks, [&](std::size_t first) { body(first, tasks); });
}

}  // namespace util
