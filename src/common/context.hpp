// Per-simulation context: the bundle of process services a simulation
// observes -- metrics registry, log sink, virtual-time source, root RNG
// seed.
//
// The context is a value: each Simulator owns one (or borrows the one it
// was built with), each region lane of a sharded simulator gets its own,
// and every component reaches it through the simulator it runs on --
// host.sim().ctx().metrics() / .log() -- capturing instrument references
// and its Logger at construction. That single path is what makes per-cell
// and per-lane isolation deterministic: nothing resolves a registry or a
// sink from process-wide or thread-bound state.
#pragma once

#include <cstdint>
#include <functional>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/time.hpp"

namespace siphoc {

class SimContext {
 public:
  /// A fresh, fully isolated context: its own registry and log sink.
  SimContext() = default;

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Logging& log() { return log_; }

  /// Root seed of the simulation this context belongs to; the parallel
  /// cell runner records the derived per-cell seed here.
  std::uint64_t root_seed() const { return root_seed_; }
  void set_root_seed(std::uint64_t seed) { root_seed_ = seed; }

  /// Deterministic per-cell seed derivation (splitmix64 over root+index):
  /// cell k of a sweep always simulates with derive_seed(root, k),
  /// independent of thread count or completion order. Never returns 0, so
  /// derived seeds are always valid mt19937_64 seeds distinct per index.
  static std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index);

  /// The simulator registers its virtual clock on both the registry and
  /// the log sink through this, tagged by owner, so a simulator being
  /// destroyed only clears the time source if no later simulator has taken
  /// it over.
  void adopt_time_source(const void* owner, std::function<TimePoint()> now);
  void release_time_source(const void* owner);

 private:
  MetricsRegistry metrics_;
  Logging log_;
  std::uint64_t root_seed_ = 0;
  const void* time_owner_ = nullptr;
};

}  // namespace siphoc
