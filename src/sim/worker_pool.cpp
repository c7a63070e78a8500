#include "sim/worker_pool.hpp"

namespace siphoc::sim {

WorkerPool::WorkerPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
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

  std::unique_lock<std::mutex> lock(mutex_);
  task_ = &task;
  task_count_ = n;
  next_index_ = 0;
  finished_ = 0;
  ++generation_;
  work_cv_.notify_all();

  // The caller participates: claim indices until none remain.
  while (next_index_ < task_count_) {
    const std::size_t i = next_index_++;
    lock.unlock();
    task(i);
    lock.lock();
    ++finished_;
  }
  done_cv_.wait(lock, [this] { return finished_ == task_count_; });
  task_ = nullptr;
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    while (task_ != nullptr && next_index_ < task_count_) {
      const std::size_t i = next_index_++;
      const auto* task = task_;
      lock.unlock();
      (*task)(i);
      lock.lock();
      if (++finished_ == task_count_) done_cv_.notify_all();
    }
  }
}

}  // namespace siphoc::sim
