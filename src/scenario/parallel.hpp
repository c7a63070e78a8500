// Parallel experiment cell runner.
//
// An experiment grid (a bench sweep, a seed sweep) is a list of independent
// (config, seed) cells: each cell builds its own Testbed in its own
// SimContext and runs to a verdict, sharing no mutable state with any other
// cell. That independence is what this runner exploits: a sim::WorkerPool
// (the same pool class the sharded kernel runs its lanes on) fans the
// cells across cores, and because every cell's output lands in its own
// context, results can be read back -- and per-cell registries merged --
// in submission order, making tables, --json output and metrics sidecars
// byte-identical to a --threads 1 run.
//
// Determinism contract:
//   * cell k's seed is SimContext::derive_seed(root, k) -- a pure function
//     of the sweep root and the cell index, never of scheduling;
//   * each cell body receives its own context and builds its simulation
//     in it, so everything the cell logs and counts stays isolated;
//   * contexts are returned in submission order and merge_from() is folded
//     left-to-right over that order.
// See docs/PERFORMANCE.md "Parallel harness".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/context.hpp"

namespace siphoc::scenario {

/// One independent unit of work: the runner creates a fresh SimContext with
/// root_seed = `seed` and invokes `run` with it. The body must build its
/// simulation in the given context (Options::context) and must not touch
/// any state shared with other cells.
struct Cell {
  std::uint64_t seed = 0;
  std::function<void(SimContext&)> run;
};

/// Runs every cell on up to `threads` threads, the calling thread included
/// (values <= 1, or a single cell, run inline). Returns the per-cell
/// contexts in submission order regardless of completion order. Cells must
/// not throw; a cell may build a sharded Testbed, whose own pool then nests
/// inside this one.
std::vector<std::unique_ptr<SimContext>> run_cells(std::vector<Cell> cells,
                                                   unsigned threads);

/// Folds the cells' registries into one, in submission order (see
/// MetricsRegistry::merge_from). Export it with to_json(contexts.size()) so
/// the sidecar records its "merged_cells" provenance.
MetricsRegistry merged_metrics(
    const std::vector<std::unique_ptr<SimContext>>& contexts);

/// std::thread::hardware_concurrency with a floor of 1.
unsigned default_thread_count();

}  // namespace siphoc::scenario
