#include "scenario/parallel.hpp"

#include <algorithm>
#include <thread>

#include "common/metrics.hpp"
#include "sim/worker_pool.hpp"

namespace siphoc::scenario {

std::vector<std::unique_ptr<SimContext>> run_cells(std::vector<Cell> cells,
                                                   unsigned threads) {
  // Pre-create every context up front so the result vector is fixed in
  // submission order before any cell starts; a task only ever touches
  // contexts[i] for the cell it claimed, so the pool's claim index is all
  // the synchronization needed.
  std::vector<std::unique_ptr<SimContext>> contexts;
  contexts.reserve(cells.size());
  for (const Cell& cell : cells) {
    auto context = std::make_unique<SimContext>();
    context->set_root_seed(cell.seed);
    contexts.push_back(std::move(context));
  }

  const std::size_t n = cells.size();
  // No more threads than cells; the pool treats 0 as 1 (inline).
  sim::WorkerPool pool(static_cast<unsigned>(std::min<std::size_t>(threads, n)));
  pool.run(n, [&](std::size_t i) { cells[i].run(*contexts[i]); });
  return contexts;
}

MetricsRegistry merged_metrics(
    const std::vector<std::unique_ptr<SimContext>>& contexts) {
  MetricsRegistry merged;
  for (const auto& context : contexts) merged.merge_from(context->metrics());
  return merged;
}

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace siphoc::scenario
