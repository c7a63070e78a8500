// Unit tests: per-simulation contexts (common/context.hpp).
//
// The regression surface here is exactly what the singleton era could not
// express: two simulations in one process, each with its own registry, log
// sink and time source, with no cross-talk in either construction order.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/context.hpp"
#include "net/host.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace siphoc {
namespace {

TEST(SimContextTest, DeriveSeedIsDeterministicDistinctAndNonZero) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {std::uint64_t{0}, std::uint64_t{42},
                             std::uint64_t{0xdeadbeefULL}}) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      const auto s = SimContext::derive_seed(root, k);
      EXPECT_NE(s, 0u);
      EXPECT_EQ(s, SimContext::derive_seed(root, k));
      EXPECT_TRUE(seen.insert(s).second)
          << "collision at root=" << root << " k=" << k;
    }
  }
}

TEST(SimContextTest, SimulatorsWithoutContextStayIsolated) {
  // Two simulators built with no context each own a fresh one: a
  // component's log records and counters land only in the context of the
  // simulator it was built on, never in the other's.
  sim::Simulator sim_a(7);
  sim::Simulator sim_b(9);
  EXPECT_NE(&sim_a.ctx(), &sim_b.ctx());
  std::vector<std::string> lines_a, lines_b;
  sim_a.ctx().log().set_sink(
      [&](const LogRecord& rec) { lines_a.push_back(rec.node); });
  sim_b.ctx().log().set_sink(
      [&](const LogRecord& rec) { lines_b.push_back(rec.node); });
  sim_a.ctx().log().set_level(LogLevel::kDebug);
  sim_b.ctx().log().set_level(LogLevel::kDebug);

  net::Host host_a(sim_a, 0, "a");
  net::Host host_b(sim_b, 0, "b");
  sim_a.schedule(milliseconds(1), [&] {
    sim_a.ctx().metrics().counter("test.ticks_total", "a").add();
    // No route anywhere: the host logs the drop.
    host_a.send_udp(1000, {net::Address(10, 0, 0, 9), 2000}, to_bytes("x"));
  });
  sim_b.schedule(milliseconds(1), [&] {
    sim_b.ctx().metrics().counter("test.ticks_total", "b").add(2);
    host_b.send_udp(1000, {net::Address(10, 0, 0, 9), 2000}, to_bytes("y"));
    host_b.send_udp(1000, {net::Address(10, 0, 0, 9), 2000}, to_bytes("z"));
  });
  sim_a.run_for(milliseconds(2));
  sim_b.run_for(milliseconds(2));

  EXPECT_EQ(lines_a, std::vector<std::string>{"a"});
  EXPECT_EQ(lines_b, (std::vector<std::string>{"b", "b"}));
  EXPECT_EQ(sim_a.ctx().metrics().counter_total("test.ticks_total"), 1u);
  EXPECT_EQ(sim_b.ctx().metrics().counter_total("test.ticks_total"), 2u);
  EXPECT_EQ(sim_a.ctx().metrics().find_counter("test.ticks_total", "b", ""),
            nullptr);
}

TEST(SimContextTest, TwoSimulatorsCoexistOnOneThread) {
  SimContext ctx_a, ctx_b;
  sim::Simulator sim_a(7, &ctx_a);
  sim::Simulator sim_b(9, &ctx_b);

  // Interleave: run A a bit, then B, then A again. Each simulation's
  // events must land in its own registry only.
  sim_a.schedule(milliseconds(1), [&] {
    sim_a.ctx().metrics().counter("test.ticks_total", "a").add();
  });
  sim_b.schedule(milliseconds(1), [&] {
    sim_b.ctx().metrics().counter("test.ticks_total", "b").add(2);
  });
  sim_a.schedule(milliseconds(5), [&] {
    sim_a.ctx().metrics().counter("test.ticks_total", "a").add();
  });

  sim_a.run_for(milliseconds(2));
  sim_b.run_for(milliseconds(2));
  sim_a.run_for(milliseconds(10));

  EXPECT_EQ(ctx_a.metrics().counter_total("test.ticks_total"), 2u);
  EXPECT_EQ(ctx_b.metrics().counter_total("test.ticks_total"), 2u);
}

TEST(SimContextTest, TimeSourceSurvivesEarlierOwnerDestruction) {
  // Regression: before owner-tagged adoption, destroying the *first*
  // simulator cleared the shared time source out from under the second one,
  // freezing every later timestamp at epoch.
  SimContext ctx;
  auto first = std::make_unique<sim::Simulator>(1, &ctx);
  sim::Simulator second(2, &ctx);
  second.schedule(milliseconds(30), [] {});
  second.run_to_completion();
  first.reset();  // must not clobber `second`'s adoption

  EXPECT_EQ(ctx.metrics().now(), second.now());
  EXPECT_EQ(ctx.metrics().now(), TimePoint{} + milliseconds(30));

  // And a clean release: once the active owner dies, the hook resets
  // instead of dangling into a destroyed simulator.
  {
    sim::Simulator third(3, &ctx);
    third.schedule(milliseconds(5), [] {});
    third.run_to_completion();
    EXPECT_EQ(ctx.metrics().now(), TimePoint{} + milliseconds(5));
  }
  EXPECT_EQ(ctx.metrics().now(), TimePoint{});
}

// Builds a small chain testbed in `ctx`, runs a fixed workload, and returns
// the registry's CSV export (deterministic, unlike JSON's emitted_at_us
// header which samples the time source at export time).
std::string run_cell_csv(SimContext& ctx, std::uint64_t seed,
                         std::size_t nodes) {
  scenario::Options o;
  o.context = &ctx;
  o.seed = seed;
  o.nodes = nodes;
  scenario::Testbed bed(o);
  bed.start();
  bed.settle(seconds(3));
  return ctx.metrics().to_csv();
}

TEST(SimContextTest, CellResultsIndependentOfExecutionOrder) {
  // Two different cells, run A-then-B and B-then-A: each cell's sidecar
  // must be byte-identical across orders (no leakage through globals).
  std::string a1, b1, a2, b2;
  {
    SimContext ca, cb;
    a1 = run_cell_csv(ca, 11, 3);
    b1 = run_cell_csv(cb, 12, 4);
  }
  {
    SimContext ca, cb;
    b2 = run_cell_csv(cb, 12, 4);
    a2 = run_cell_csv(ca, 11, 3);
  }
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(a1, b1);  // different (seed, size) cells measure differently
}

}  // namespace
}  // namespace siphoc
