#include "common/context.hpp"

namespace siphoc {

std::uint64_t SimContext::derive_seed(std::uint64_t root,
                                      std::uint64_t index) {
  // splitmix64 finalizer over a golden-ratio stride: statistically
  // independent streams for adjacent indices, stable across platforms.
  std::uint64_t z = root + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 0x9e3779b97f4a7c15ull;
}

void SimContext::adopt_time_source(const void* owner,
                                   std::function<TimePoint()> now) {
  time_owner_ = owner;
  metrics_.set_time_source(now);
  log_.set_time_source(std::move(now));
}

void SimContext::release_time_source(const void* owner) {
  if (time_owner_ != owner) return;
  time_owner_ = nullptr;
  metrics_.set_time_source(nullptr);
  log_.set_time_source(nullptr);
}

}  // namespace siphoc
