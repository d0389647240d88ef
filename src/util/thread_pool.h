// Fixed-size thread pool with a ParallelFor helper.
//
// Parallelises independent client local-training jobs inside one simulated
// FL round; determinism is preserved because every client draws from its own
// pre-derived RNG stream and results are collected by index. Between rounds
// the simulation lends the same, then idle, pool to the defense
// (defense::FilterContext::pool) for its pairwise pass. The thread that
// calls ParallelFor never just waits: it runs an optional side task (the
// simulation's deferred evaluation of the previous round), then takes
// indices beside the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace util {

class ThreadPool {
 public:
  // Creates `num_threads` workers (0 → hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; tasks must not throw (exceptions terminate the pool's
  // worker). Use ParallelFor for checked fan-out.
  void Submit(std::function<void()> task);

  // Runs body(i) for i in [0, count) across the pool and blocks until all
  // iterations complete. The calling thread works too: once the shards are
  // queued it runs `meanwhile` (if set) exactly once, even when count == 0,
  // then takes indices beside the workers. Exceptions from body or
  // `meanwhile` are rethrown (first one wins) after every shard has exited.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body,
                   const std::function<void()>& meanwhile = {});

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Fan-out for indices whose work is uneven (the rows of a triangle): splits
// [0, count) into `tasks` interleaved tasks, about four per worker of `pool`,
// and calls body(first, tasks) for each; the task covers i = first,
// first + tasks, ... below count. A null pool runs body(0, 1), one plain loop
// over every index on the calling thread. Each index belongs to exactly one
// task, so a body that writes only its own indices' outputs is deterministic.
void ParallelStrided(ThreadPool* pool, std::size_t count,
                     const std::function<void(std::size_t first,
                                              std::size_t tasks)>& body);

}  // namespace util
