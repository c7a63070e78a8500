// Chaos engine soak: seed-derived fault plans against a full deployment,
// every recovery invariant enforced, codec hardening proven on the air.
//
// The soak is the repo's strongest end-to-end robustness statement: for
// several seeds, a 6-node MANET with gateways at both ends runs a call
// workload while the FaultEngine crashes nodes, partitions the chain, jams
// radios and corrupts frames -- and afterwards every invariant of
// docs/RESILIENCE.md must hold, and not one corrupted frame may have been
// decoded into any routing table, SLP cache or tunnel.
#include <gtest/gtest.h>

#include "net/medium.hpp"
#include "scenario/faults.hpp"
#include "scenario/invariants.hpp"

namespace siphoc {
namespace {

using scenario::FaultEngine;
using scenario::FaultEvent;
using scenario::FaultPlan;
using scenario::InvariantMonitor;
using scenario::Options;
using scenario::Testbed;

// ---------------------------------------------------------------------------
// FaultPlan format
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryCommand) {
  const auto plan = FaultPlan::parse(R"(# a comment
at 5s crash 2
at 12s restart 2
at 3s partition 0,1 | 2,3
at 20s heal
at 8s loss 0 0.4 5s
at 10s corrupt 0.05
at 10s duplicate 0.02
at 10500ms reorder 0.1 25ms
at 15s jam 1,2
at 18s unjam 1,2
at 40s kill-gateway 0
at 20s ring-crash 2
at 35s ring-restart 2
)");
  ASSERT_TRUE(plan) << plan.error().message;
  EXPECT_EQ(plan->events.size(), 13u);
  // Sorted by time.
  EXPECT_EQ(plan->events.front().kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(plan->events.back().kind, FaultEvent::Kind::kKillGateway);
}

TEST(FaultPlanTest, RejectsGarbage) {
  EXPECT_FALSE(FaultPlan::parse("at 5s explode 3"));
  EXPECT_FALSE(FaultPlan::parse("crash 3"));
  EXPECT_FALSE(FaultPlan::parse("at -2s crash 3"));
  EXPECT_FALSE(FaultPlan::parse("at 5s loss 1.5 0 1s"));
  EXPECT_FALSE(FaultPlan::parse("at 5s partition 0,1 2,3"));
}

TEST(FaultPlanTest, TextFormRoundTrips) {
  const auto plan = FaultPlan::generate(99, seconds(90), 6, {1, 4});
  const auto reparsed = FaultPlan::parse(plan.to_string());
  ASSERT_TRUE(reparsed) << reparsed.error().message;
  EXPECT_EQ(plan.to_string(), reparsed->to_string());
}

TEST(FaultPlanTest, GenerateIsDeterministicAndSafe) {
  const auto a = FaultPlan::generate(7, seconds(120), 6, {1, 4});
  const auto b = FaultPlan::generate(7, seconds(120), 6, {1, 4});
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(),
            FaultPlan::generate(8, seconds(120), 6, {1, 4}).to_string());

  bool saw_corrupt = false;
  bool saw_loss = false;
  int crashes = 0;
  int restarts = 0;
  int partitions = 0;
  int heals = 0;
  for (const auto& event : a.events) {
    switch (event.kind) {
      case FaultEvent::Kind::kCorrupt:
        saw_corrupt = true;
        break;
      case FaultEvent::Kind::kLoss:
        saw_loss = true;
        break;
      case FaultEvent::Kind::kCrash:
        ++crashes;
        // Protected nodes are never crashed.
        for (std::size_t n : event.nodes) {
          EXPECT_NE(n, 1u);
          EXPECT_NE(n, 4u);
        }
        break;
      case FaultEvent::Kind::kRestart:
        ++restarts;
        break;
      case FaultEvent::Kind::kPartition:
        ++partitions;
        break;
      case FaultEvent::Kind::kHeal:
        ++heals;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_corrupt);
  EXPECT_TRUE(saw_loss);
  EXPECT_EQ(crashes, restarts);  // the network always comes back
  EXPECT_EQ(partitions, heals);
}

TEST(FaultPlanTest, GenerateWithRingNodesAppendsRingChurn) {
  // Without ring nodes: plans are byte-identical to the default form --
  // the ring stream draws strictly after every other stream.
  const auto base = FaultPlan::generate(7, seconds(120), 6, {1, 4});
  const auto with_ring = FaultPlan::generate(7, seconds(120), 6, {1, 4}, 4);
  EXPECT_EQ(base.to_string(),
            FaultPlan::generate(7, seconds(120), 6, {1, 4}, 0).to_string());

  int ring_crashes = 0;
  int ring_restarts = 0;
  Duration down_at{};
  Duration up_at{};
  for (const auto& event : with_ring.events) {
    if (event.kind == FaultEvent::Kind::kRingCrash) {
      ++ring_crashes;
      down_at = event.at;
      ASSERT_EQ(event.nodes.size(), 1u);
      // Ring index: 1..ring_nodes (0 is the front door, never crashed).
      EXPECT_GE(event.nodes[0], 1u);
      EXPECT_LE(event.nodes[0], 4u);
    } else if (event.kind == FaultEvent::Kind::kRingRestart) {
      ++ring_restarts;
      up_at = event.at;
    }
  }
  EXPECT_EQ(ring_crashes, 1);
  EXPECT_EQ(ring_restarts, 1);  // always paired: the ring ends whole
  EXPECT_LT(down_at, up_at);
  // Every non-ring event is unchanged by the ring stream.
  std::string base_text = base.to_string();
  for (const auto& event : with_ring.events) {
    if (event.kind != FaultEvent::Kind::kRingCrash &&
        event.kind != FaultEvent::Kind::kRingRestart) {
      EXPECT_NE(base_text.find(event.to_string()), std::string::npos)
          << event.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Codec hardening: corrupted frames are rejected, never ingested
// ---------------------------------------------------------------------------

TEST(ChaosTest, CorruptedFramesNeverPoisonState) {
  Options o;
  o.seed = 11;
  o.nodes = 4;
  o.spacing = 80;
  Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(3, "bob");
  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);

  net::FaultKnobs knobs;
  knobs.corrupt_probability = 0.2;  // brutal
  bed.medium().set_fault_knobs(knobs);
  // Keep dialing so routing, SLP, SIP and RTP all keep putting frames on the
  // corrupted air.
  for (int round = 0; round < 6; ++round) {
    const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(8));
    if (result.established) {
      bed.run_for(seconds(2));
      alice.hang_up(result.call);
    }
    bed.run_for(seconds(2));
  }

  const auto& stats = bed.medium().stats();
  EXPECT_GT(stats.frames_corrupted, 50u) << "corruption injector inactive";
  // The CRC trailers must have rejected every mangled frame: any decode
  // that *succeeded* on a corrupted datagram bumps this counter.
  EXPECT_EQ(bed.ctx().metrics().counter_total("chaos.corrupt_accepted_total"),
            0u);
  EXPECT_GT(bed.ctx().metrics().counter_total("routing.decode_errors_total"),
            0u);
}

// ---------------------------------------------------------------------------
// Crash / restart mechanics
// ---------------------------------------------------------------------------

TEST(ChaosTest, CrashAndRestartNodeRecovers) {
  Options o;
  o.seed = 21;
  o.nodes = 3;
  Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(seconds(2));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  ASSERT_TRUE(bed.call_and_wait(alice, "bob@voicehoc.ch").established);

  // Kill the relay's whole stack mid-run; the endpoints survive.
  bed.crash_node(1);
  EXPECT_FALSE(bed.node_alive(1));
  bed.run_for(seconds(5));
  const auto cut = bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(8));
  EXPECT_FALSE(cut.established);

  bed.restart_node(1);
  EXPECT_TRUE(bed.node_alive(1));
  bed.run_for(seconds(5));
  const auto healed = bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(15));
  EXPECT_TRUE(healed.established);
}

// crash_node destroys a node's stack while its Host lives on. The dead
// daemon must not stay the host's route source (ASan reports the use
// after free if it does): the host falls back to the on-link /24.
TEST(ChaosTest, CrashedNodeHostFallsBackToTheOnLinkRoute) {
  for (const RoutingKind kind : {RoutingKind::kAodv, RoutingKind::kOlsr}) {
    Options o;
    o.seed = 23;
    o.nodes = 3;
    o.routing = kind;
    Testbed bed(o);
    bed.start();
    bed.settle(seconds(15));
    const net::Address peer = bed.host(1).manet_address();
    const auto before = bed.host(0).lookup_route(peer);
    ASSERT_TRUE(before && before->prefix_len == 32);
    bed.crash_node(0);
    const auto route = bed.host(0).lookup_route(peer);
    ASSERT_TRUE(route);
    EXPECT_EQ(route->prefix_len, net::kManetPrefixLen);
    EXPECT_FALSE(route->next_hop);
  }
}

TEST(ChaosTest, CrashedCalleeNodeStillTerminatesCalls) {
  Options o;
  o.seed = 22;
  o.nodes = 3;
  Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(seconds(2));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  const auto call = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(call.established);

  bed.crash_node(2);
  alice.hang_up(call.call);
  // The BYE goes nowhere; the transaction must still time out and every
  // invariant must hold afterwards.
  bed.run_for(seconds(50));
  InvariantMonitor monitor(bed);
  monitor.check();
  EXPECT_TRUE(monitor.report().ok()) << monitor.report().to_string();
  EXPECT_EQ(alice.user_agent().active_calls(), 0u);
}

// ---------------------------------------------------------------------------
// The soak
// ---------------------------------------------------------------------------

/// One full chaos soak under a generated plan; returns the invariant report
/// plus hard assertions shared by every seed.
void run_soak(std::uint64_t seed) {
  SCOPED_TRACE("soak seed " + std::to_string(seed));
  Options o;
  o.seed = seed;
  o.nodes = 6;
  o.spacing = 80;
  Testbed bed(o);
  bed.make_gateway(0);
  bed.make_gateway(5);
  bed.start();
  auto& alice = bed.add_phone(1, "alice");
  auto& bob = bed.add_phone(4, "bob");
  bed.settle(seconds(5));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);

  const Duration duration = seconds(60);
  const FaultPlan plan = FaultPlan::generate(seed, duration, o.nodes, {1, 4});
  FaultEngine engine(bed);
  InvariantMonitor monitor(bed, &engine);
  engine.apply(plan);
  monitor.start(seconds(1));

  std::size_t established = 0;
  const TimePoint end = bed.sim().now() + duration;
  while (bed.sim().now() < end) {
    const auto result =
        bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(8));
    if (result.established) {
      ++established;
      bed.run_for(seconds(3));
      alice.hang_up(result.call);
    }
    bed.run_for(seconds(2));
  }

  // Quiet recovery tail, then the final sweep.
  bed.run_for(seconds(45));
  monitor.stop();
  monitor.check();

  EXPECT_TRUE(monitor.report().ok()) << monitor.report().to_string();
  EXPECT_GT(monitor.report().checks, 50u);
  // The plan always contains a corruption epoch; the injector must have
  // fired and the codecs must have rejected every single mangled frame.
  EXPECT_GT(bed.medium().stats().frames_corrupted, 0u);
  EXPECT_EQ(bed.ctx().metrics().counter_total("chaos.corrupt_accepted_total"),
            0u)
      << "a corrupted frame was decoded into live state";
  // The workload survived chaos at least part of the time.
  EXPECT_GT(established, 0u);
  // All nodes are back (generated plans pair crash with restart).
  for (std::size_t i = 0; i < bed.size(); ++i) {
    EXPECT_TRUE(bed.node_alive(i)) << "node " << i << " still down";
  }
}

TEST(ChaosSoakTest, Seed101) { run_soak(101); }
TEST(ChaosSoakTest, Seed202) { run_soak(202); }
TEST(ChaosSoakTest, Seed303) { run_soak(303); }

/// Chaos with a P2P provider: the fault plan crashes a ring member (losing
/// its stored replicas), stabilization repairs the overlay and
/// re-replicates, the member rejoins at runtime -- and afterwards I5 holds
/// and every registered AOR still resolves. The no-lost-binding statement.
void run_p2p_soak(std::uint64_t seed) {
  SCOPED_TRACE("p2p soak seed " + std::to_string(seed));
  Options o;
  o.seed = seed;
  o.nodes = 4;
  o.spacing = 80;
  Testbed bed(o);
  bed.make_gateway(0);
  bed.make_gateway(3);
  Testbed::ProviderOptions po;
  po.resolution = Testbed::Resolution::kP2p;
  po.p2p_nodes = 4;
  bed.add_provider("voicehoc.ch", po);
  bed.start();
  auto& alice = bed.add_phone(1, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(seconds(5));
  ASSERT_TRUE(bed.register_and_wait(alice));
  ASSERT_TRUE(bed.register_and_wait(bob));

  // Every MANET node is protected: ring churn is the subject under test
  // (and stable gateways keep the published tunnel contacts routable, so
  // I5's dead-contact clause can only be tripped by the ring itself).
  const Duration duration = seconds(45);
  const FaultPlan plan =
      FaultPlan::generate(seed, duration, o.nodes, {0, 1, 2, 3},
                          po.p2p_nodes);
  FaultEngine engine(bed);
  InvariantMonitor monitor(bed, &engine);
  engine.apply(plan);
  monitor.start(seconds(1));

  std::size_t established = 0;
  const TimePoint end = bed.sim().now() + duration;
  while (bed.sim().now() < end) {
    const auto result =
        bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(8));
    if (result.established) {
      ++established;
      bed.run_for(seconds(3));
      alice.hang_up(result.call);
    }
    bed.run_for(seconds(2));
  }

  bed.run_for(seconds(30));
  monitor.stop();
  monitor.check();

  EXPECT_TRUE(monitor.report().ok()) << monitor.report().to_string();
  EXPECT_GT(established, 0u);

  // The plan crashed and restarted one ring member.
  const auto& narration = engine.narration();
  const auto saw = [&](const std::string& what) {
    for (const auto& line : narration) {
      if (line.find(what) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(saw("ring-crash")) << "plan never crashed a ring member";
  EXPECT_TRUE(saw("ring-restart"));

  // The ring is whole and stable again...
  const auto ring = bed.p2p_ring("voicehoc.ch");
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_NE(ring[i], nullptr) << "ring member " << i << " still down";
    EXPECT_EQ(ring[i]->view_size(), ring.size());
    EXPECT_TRUE(ring[i]->stable());
  }
  // ... and lookup success after stabilization is 100%.
  for (const char* aor : {"alice@voicehoc.ch", "bob@voicehoc.ch"}) {
    bool done = false;
    bool hit = false;
    ring.front()->resolve(aor, [&](std::optional<sip::ContactBinding> b,
                                   int) {
      done = true;
      hit = b.has_value();
    });
    bed.run_for(seconds(3));
    EXPECT_TRUE(done);
    EXPECT_TRUE(hit) << aor << " lost after ring churn";
  }
}

TEST(ChaosSoakTest, P2pRingChurnSeed77) { run_p2p_soak(77); }
TEST(ChaosSoakTest, P2pRingChurnSeed88) { run_p2p_soak(88); }

/// Same seed, twice: the entire run -- fault schedule, packet schedule,
/// metric registry -- must be identical.
TEST(ChaosSoakTest, SameSeedIsByteIdentical) {
  const auto run_once = [](std::uint64_t seed) {
    SimContext ctx;
    std::string narration;
    std::string metrics;
    {
      Options o;
      o.context = &ctx;
      o.seed = seed;
      o.nodes = 5;
      o.spacing = 80;
      Testbed bed(o);
      bed.start();
      auto& alice = bed.add_phone(0, "alice");
      auto& bob = bed.add_phone(4, "bob");
      bed.settle(seconds(3));
      bed.register_and_wait(alice);
      bed.register_and_wait(bob);

      const FaultPlan plan =
          FaultPlan::generate(seed, seconds(30), o.nodes, {0, 4});
      FaultEngine engine(bed);
      engine.apply(plan);
      bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(8));
      bed.run_for(seconds(40));
      for (const auto& line : engine.narration()) {
        narration += line + "\n";
      }
      metrics = ctx.metrics().to_json();
    }
    return narration + metrics;
  };
  const auto first = run_once(42);
  const auto second = run_once(42);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, run_once(43));
}

}  // namespace
}  // namespace siphoc
