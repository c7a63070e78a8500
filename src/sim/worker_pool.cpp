#include "sim/worker_pool.hpp"

#include <chrono>
#include <stdexcept>

namespace siphoc::sim {

namespace {

// How long a waiting thread spins before it parks. It must cover the serial
// section between two windows of a sharded simulation -- the caller's lane
// scan, drain_outboxes and the epoch hook, under 10 us on olsr-city-200 --
// plus the wait for the slowest lane of a window, which is where most of a
// helper's idle time goes: windows there last 20 us at the median and
// 200-400 us at p99. A thread that parks costs a futex wake, and the woken
// thread may not run for milliseconds, so the bound errs long (at 50 us,
// four threads parked 0.2 times per window; at 200 us, 0.04). Past it the
// thread parks, which keeps idle pools (a sweep between cells, a simulation
// between run_until calls) from burning a core.
constexpr std::chrono::microseconds kSpinBeforePark{200};

constexpr unsigned kIndexBits = 24;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

std::uint64_t count_of(std::uint64_t word) {
  return (word >> kIndexBits) & kIndexMask;
}
std::uint64_t next_of(std::uint64_t word) { return word & kIndexMask; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `done()` holds or kSpinBeforePark elapses; returns done().
/// Every 64 rounds it also yields: when the scheduler has put the thread
/// this one waits for on the same core, that thread runs at once instead
/// of after the spin.
template <class Done>
bool spin_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
  for (unsigned i = 1;; ++i) {
    if (done()) return true;
    cpu_relax();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return done();
      std::this_thread::yield();
    }
  }
}

}  // namespace

WorkerPool::WorkerPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  wake_.fetch_add(1);
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::run(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline path: single-threaded pools and single tasks execute on the
    // caller with no synchronization at all.
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  if (n > kIndexMask) throw std::length_error("WorkerPool::run: too many tasks");

  // Every index of the previous run() has finished, so no thread reads
  // task_ or writes finished_ until the claim word below publishes them.
  task_ = &task;
  finished_.store(0, std::memory_order_relaxed);
  ++generation_;
  claim_.store((generation_ << (2 * kIndexBits)) | (std::uint64_t{n} << kIndexBits),
               std::memory_order_release);
  // Dekker pair with worker_loop: either a parking helper sees the new wake
  // value, or this load sees it parked and wakes it.
  wake_.fetch_add(1);
  if (parked_helpers_.load() != 0) wake_.notify_all();

  drain();
  const auto all_done = [&] {
    return finished_.load(std::memory_order_acquire) == n;
  };
  if (spin_until(all_done)) return;
  // Dekker pair with drain(): either the last finisher sees the flag, or
  // the load below sees its increment.
  caller_parked_.store(true);
  for (std::uint32_t done; (done = finished_.load()) != n;) finished_.wait(done);
  caller_parked_.store(false, std::memory_order_relaxed);
}

void WorkerPool::drain() {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  while (next_of(word) < count_of(word)) {
    if (!claim_.compare_exchange_weak(word, word + 1, std::memory_order_acquire,
                                      std::memory_order_acquire)) {
      continue;
    }
    (*task_)(static_cast<std::size_t>(next_of(word)));
    if (finished_.fetch_add(1) + 1 == count_of(word) && caller_parked_.load()) {
      finished_.notify_one();
    }
    word = claim_.load(std::memory_order_acquire);
  }
}

void WorkerPool::worker_loop() {
  std::uint32_t seen = 0;  // wake_'s value at construction
  for (;;) {
    if (!spin_until([&] { return wake_.load(std::memory_order_acquire) != seen; })) {
      parked_helpers_.fetch_add(1);
      wake_.wait(seen);
      parked_helpers_.fetch_sub(1, std::memory_order_relaxed);
    }
    seen = wake_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    drain();
  }
}

}  // namespace siphoc::sim
