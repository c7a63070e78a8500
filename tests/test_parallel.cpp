// Unit tests: parallel experiment cell runner (scenario/parallel.hpp) and
// the worker pool under it (sim/worker_pool.hpp).
//
// The contract under test is thread-count invariance: a grid of independent
// cells must produce byte-identical per-cell and merged results whether it
// runs inline or fanned across a worker pool. These tests carry the ctest
// label "tsan" -- the ThreadSanitizer build preset exists to run exactly
// this concurrency surface under race detection.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/context.hpp"
#include "common/metrics.hpp"
#include "scenario/parallel.hpp"
#include "scenario/scenario.hpp"
#include "sim/worker_pool.hpp"

namespace siphoc::scenario {
namespace {

// A real (if small) workload per cell: build a chain MANET in the cell's
// context, let routing converge, count what it emitted.
std::vector<Cell> make_grid(std::uint64_t root, std::size_t n) {
  std::vector<Cell> cells;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t seed = SimContext::derive_seed(root, k);
    cells.push_back({seed, [seed, k](SimContext& ctx) {
                       Options o;
                       o.context = &ctx;
                       o.seed = seed;
                       o.nodes = 2 + (k % 3);
                       Testbed bed(o);
                       bed.start();
                       bed.settle(seconds(2));
                       ctx.metrics()
                           .counter("test.cells_total", "runner")
                           .add();
                     }});
  }
  return cells;
}

std::vector<std::string> per_cell_csv(
    const std::vector<std::unique_ptr<SimContext>>& contexts) {
  std::vector<std::string> out;
  for (const auto& context : contexts) out.push_back(context->metrics().to_csv());
  return out;
}

TEST(ParallelRunnerTest, EveryCellRunsAndSeedsAreRecorded) {
  const auto contexts = run_cells(make_grid(42, 5), 2);
  ASSERT_EQ(contexts.size(), 5u);
  for (std::size_t k = 0; k < contexts.size(); ++k) {
    EXPECT_EQ(contexts[k]->root_seed(), SimContext::derive_seed(42, k));
    EXPECT_EQ(contexts[k]->metrics().counter_total("test.cells_total"), 1u);
  }
}

TEST(ParallelRunnerTest, ThreadCountDoesNotChangeAnyByte) {
  const auto serial = run_cells(make_grid(42, 4), 1);
  const auto pooled = run_cells(make_grid(42, 4), 4);

  EXPECT_EQ(per_cell_csv(serial), per_cell_csv(pooled));
  EXPECT_EQ(merged_metrics(serial).to_json(4),
            merged_metrics(pooled).to_json(4));
}

TEST(ParallelRunnerTest, MergedSidecarCarriesCellProvenance) {
  const auto contexts = run_cells(make_grid(1, 3), 2);
  const MetricsRegistry merged = merged_metrics(contexts);
  const std::string json = merged.to_json(contexts.size());
  EXPECT_NE(json.find("\"merged_cells\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"siphoc.metrics.v1\""),
            std::string::npos);
  EXPECT_EQ(merged.counter_total("test.cells_total"), 3u);
}

TEST(ParallelRunnerTest, ShardedCellsNestTheirPoolsDeterministically) {
  // Each cell drives its own sharded simulation, so the kernel's lane pool
  // runs inside a task of the runner's pool. Nesting must not change a byte
  // of the merged sidecar (and, under the tsan label, must not race).
  auto grid = [](unsigned sim_threads) {
    std::vector<Cell> cells;
    for (std::size_t k = 0; k < 3; ++k) {
      const std::uint64_t seed = SimContext::derive_seed(9, k);
      cells.push_back({seed, [seed, sim_threads](SimContext& ctx) {
                         Options o;
                         o.context = &ctx;
                         o.seed = seed;
                         o.nodes = 6;
                         o.topology = Topology::kGrid;
                         o.spacing = 80;
                         o.sim_regions = 4;
                         o.sim_threads = sim_threads;
                         Testbed bed(o);
                         bed.start();
                         bed.settle(seconds(2));
                         bed.finalize_metrics();
                       }});
    }
    return cells;
  };
  const auto serial = run_cells(grid(1), 1);
  const auto nested = run_cells(grid(2), 2);

  EXPECT_EQ(merged_metrics(serial).to_json(3),
            merged_metrics(nested).to_json(3));
  EXPECT_GT(serial.front()->metrics().counter_total("aodv.hello_tx_total"),
            0u);
}

TEST(ParallelRunnerTest, OversubscribedPoolStillCompletes) {
  // More workers than cells, and more cells than workers: both shapes must
  // complete every cell exactly once.
  EXPECT_EQ(run_cells(make_grid(3, 2), 8).size(), 2u);
  EXPECT_EQ(run_cells(make_grid(4, 7), 3).size(), 7u);
  EXPECT_GE(default_thread_count(), 1u);
}

// What one pool stress run saw go wrong, summed over its generations.
struct PoolStressResult {
  int bad_generations = 0;  // an index ran != once, or ran past run()
  int out_of_range = 0;     // an index outside [0, n) was claimed
  int inner_runs = 0;       // tasks run on the nested pool
};

// `generations` run() calls back to back on one pool, the task count
// cycling through 2, 3, 8 and 64. Each task does a little busy work, so
// helpers win claims and a task can still be running when a broken run()
// returns. Every 16th generation index 0 also drives a second pool. The
// task object outlives every run(), so a late helper of a broken pool shows
// up in the counts instead of calling a destroyed function.
PoolStressResult stress_pool(unsigned threads, int generations) {
  constexpr std::size_t kSizes[] = {2, 3, 8, 64};
  sim::WorkerPool pool(threads);
  sim::WorkerPool inner(2);
  std::array<std::atomic<int>, 64> hits{};
  std::atomic<int> running{0};
  std::atomic<int> out_of_range{0};
  std::atomic<int> inner_runs{0};
  std::size_t n = 0;
  int g = 0;
  const std::function<void(std::size_t)> task = [&](std::size_t i) {
    running.fetch_add(1);
    if (i < n) {
      hits[i].fetch_add(1);
    } else {
      out_of_range.fetch_add(1);
    }
    volatile std::size_t sink = 0;
    for (std::size_t k = 0; k < 64 * (i % 5); ++k) sink = sink + k;
    if (i == 0 && g % 16 == 0) {
      inner.run(3, [&](std::size_t) { inner_runs.fetch_add(1); });
    }
    running.fetch_sub(1);
  };
  PoolStressResult result;
  for (g = 0; g < generations; ++g) {
    n = kSizes[g % 4];
    pool.run(n, task);
    bool ok = running.load() == 0;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ok &= hits[i].exchange(0) == (i < n ? 1 : 0);
    }
    if (!ok) ++result.bad_generations;
  }
  result.out_of_range = out_of_range.load();
  result.inner_runs = inner_runs.load();
  return result;
}

TEST(WorkerPoolTest, BackToBackRunsClaimEveryIndexExactlyOnce) {
  // Pools of 2 and 4 threads run at the same time, so together with their
  // nested pools there are more threads than most hosts have cores: the
  // scheduler then preempts helpers at arbitrary points of a claim, which
  // is where a claim that mixes two generations goes wrong. Every index
  // must run exactly once per generation, none may fall outside [0, n),
  // and none may still be running when run() returns.
  constexpr int kGenerations = 50000;
  PoolStressResult two;
  std::thread side([&] { two = stress_pool(2, kGenerations); });
  const PoolStressResult four = stress_pool(4, kGenerations);
  side.join();
  for (const auto& [threads, r] : {std::pair{2, two}, std::pair{4, four}}) {
    EXPECT_EQ(r.bad_generations, 0) << threads << " threads";
    EXPECT_EQ(r.out_of_range, 0) << threads << " threads";
    EXPECT_EQ(r.inner_runs, 3 * kGenerations / 16) << threads << " threads";
  }
}

// A broadcast frame received on two region lanes is one SharedBytes buffer
// read by two threads: both may compute the cached CRC verdict at once.
TEST(SharedBytesConcurrency, TwoThreadsVerifyOneBufferAlike) {
  constexpr int kBuffers = 256;
  std::vector<SharedBytes> frames;
  std::vector<bool> valid;
  for (int i = 0; i < kBuffers; ++i) {
    Bytes body(static_cast<std::size_t>(i % 40), static_cast<std::uint8_t>(i));
    append_crc32(body);
    if (i % 3 == 0) body.front() ^= 0x80;  // every third is corrupt
    valid.push_back(verify_crc32(body).has_value());
    frames.emplace_back(std::move(body));
  }
  std::atomic<bool> go{false};
  std::array<int, 2> mismatches{};
  const auto verify_all = [&](int t) {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kBuffers; ++i) {
      const auto head = frames[i].verified_head();
      if (head.has_value() != valid[i] ||
          (head && head->size() != frames[i].size() - 4)) {
        ++mismatches[t];
      }
    }
  };
  std::thread a(verify_all, 0);
  std::thread b(verify_all, 1);
  go.store(true, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace siphoc::scenario
