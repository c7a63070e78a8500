// Persistent worker pool: the one pool behind every simulation fan-out.
//
// Two users, possibly nested: the parallel cell runner
// (scenario/parallel.hpp) spreads independent simulations over one pool,
// and every sharded Simulator owns a pool that runs its region lanes at
// each lookahead window. The calling thread always participates, so a pool
// built with `threads == 1` degenerates to an inline loop with zero
// synchronization -- which is what keeps `--sim-threads 1` and
// `--sim-threads N` on the *same* code path, a precondition for the
// byte-identity guarantee (docs/ARCHITECTURE.md).
//
// A task may call run() on a *different* pool (a sweep cell driving its
// own sharded simulation), never on the pool that is executing it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace siphoc::sim {

class WorkerPool {
 public:
  /// `threads` is the total parallelism including the caller: a pool of
  /// `threads == n` spawns `n - 1` helper threads.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `task(i)` for every i in [0, n), distributing indices across the
  /// helper threads and the calling thread (atomic claim, no ordering
  /// guarantee -- tasks must be independent). Blocks until all n are done.
  void run(std::size_t n, const std::function<void(std::size_t)>& task);

  unsigned thread_count() const { return threads_; }

 private:
  void worker_loop();

  const unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_count_ = 0;
  std::size_t next_index_ = 0;
  std::size_t finished_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace siphoc::sim
