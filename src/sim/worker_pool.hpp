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
// A sharded simulation calls run() once per lookahead window, and a window
// holds about 35 events (20 us of work at the median on the 200-node
// city), so the hand-off takes no lock. run() publishes the generation,
// the task count and the next index in one atomic claim word, and every
// thread claims an index by a CAS on that word: a helper that wakes late
// can neither take an index of a newer run() nor run one against an older
// task. Waiting threads -- helpers between runs, the caller until the last
// index has finished -- spin for a bounded time (kSpinBeforePark in
// worker_pool.cpp) and only then park with std::atomic::wait. A busy run
// of windows therefore makes no system call; a futex wake is paid only
// after a thread really parked.
//
// A task may call run() on a *different* pool (a sweep cell driving its
// own sharded simulation), never on the pool that is executing it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
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
  /// Throws std::length_error when n does not fit the claim word's 24-bit
  /// count field (n >= 2^24).
  void run(std::size_t n, const std::function<void(std::size_t)>& task);

  unsigned thread_count() const { return threads_; }

 private:
  void worker_loop();
  /// Claims and runs indices of the current run() until none is left.
  void drain();

  const unsigned threads_;

  // generation (16 bits) | task count (24 bits) | next index (24 bits).
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  // Written before claim_'s release store; read only after a claim.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::uint64_t generation_ = 0;  // the caller's; packed into claim_
  alignas(64) std::atomic<std::uint32_t> finished_{0};
  std::atomic<bool> caller_parked_{false};
  // Bumped once per run() and once at shutdown; helpers wait on it.
  alignas(64) std::atomic<std::uint32_t> wake_{0};
  std::atomic<std::uint32_t> parked_helpers_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  // last: the threads use every member
};

}  // namespace siphoc::sim
