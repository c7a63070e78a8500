// End-to-end integration tests over the full testbed: the paper's scenarios
// exercised through the public API (scenario::Testbed + voip::SoftPhone),
// parameterized over the routing protocol where both apply.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "scenario/scenario.hpp"

namespace siphoc {
namespace {

class CallOverManet : public ::testing::TestWithParam<RoutingKind> {
 protected:
  scenario::Options options(std::size_t nodes) {
    scenario::Options o;
    o.nodes = nodes;
    o.topology = scenario::Topology::kChain;
    o.spacing = 100;
    o.routing = GetParam();
    o.seed = 77;
    return o;
  }
  Duration settle_time() {
    return GetParam() == RoutingKind::kOlsr ? seconds(15) : seconds(3);
  }
};

TEST_P(CallOverManet, Figure3CallSetupAndTeardown) {
  scenario::Testbed bed(options(4));
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(3, "bob");
  bed.settle(settle_time());

  EXPECT_TRUE(bed.register_and_wait(alice));   // steps 1-2
  EXPECT_TRUE(bed.register_and_wait(bob));     // steps 3-4
  if (GetParam() == RoutingKind::kOlsr) bed.run_for(seconds(8));

  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");  // 5-8
  ASSERT_TRUE(result.established);
  EXPECT_LT(result.setup_time, seconds(5));
  bed.run_for(seconds(1));  // let Bob's ACK land
  EXPECT_EQ(bob.user_agent().active_calls(), 1u);

  // Voice flows in both directions.
  bed.run_for(seconds(5));
  const auto report = alice.call_report(result.call);
  ASSERT_TRUE(report);
  EXPECT_GT(report->packets_received, 20u);
  EXPECT_GT(report->quality.mos, 3.5);

  // Teardown: BYE crosses the MANET.
  alice.hang_up(result.call);
  bed.run_for(seconds(2));
  EXPECT_EQ(bob.user_agent().active_calls(), 0u);
  EXPECT_EQ(alice.user_agent().active_calls(), 0u);
}

TEST_P(CallOverManet, CalleeHangsUp) {
  scenario::Testbed bed(options(3));
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(settle_time());
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  if (GetParam() == RoutingKind::kOlsr) bed.run_for(seconds(8));

  sip::CallId bob_call = 0;
  voip::SoftPhoneEvents bob_events;
  bob_events.on_incoming = [&](sip::CallId id, const sip::Uri&) {
    bob_call = id;
  };
  bob.set_events(std::move(bob_events));

  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(result.established);
  ASSERT_NE(bob_call, 0u);
  bed.run_for(seconds(2));
  bob.hang_up(bob_call);
  bed.run_for(seconds(2));
  EXPECT_EQ(alice.user_agent().active_calls(), 0u);
}

TEST_P(CallOverManet, CallToUnregisteredUserFails) {
  scenario::Testbed bed(options(3));
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  bed.settle(settle_time());
  bed.register_and_wait(alice);
  const auto result =
      bed.call_and_wait(alice, "nobody@voicehoc.ch", seconds(12));
  EXPECT_FALSE(result.established);
  EXPECT_EQ(result.failure_status, 404);
}

TEST_P(CallOverManet, SequentialCallsReuseState) {
  scenario::Testbed bed(options(3));
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(settle_time());
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  if (GetParam() == RoutingKind::kOlsr) bed.run_for(seconds(8));

  const auto first = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(first.established);
  bed.run_for(seconds(1));
  alice.hang_up(first.call);
  bed.run_for(seconds(1));

  // Second call: SLP cache is warm, so setup must not be slower.
  const auto second = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(second.established);
  EXPECT_LE(second.setup_time, first.setup_time + milliseconds(50));
}

INSTANTIATE_TEST_SUITE_P(Routing, CallOverManet,
                         ::testing::Values(RoutingKind::kAodv,
                                           RoutingKind::kOlsr),
                         [](const auto& info) {
                           return info.param == RoutingKind::kAodv ? "Aodv"
                                                                   : "Olsr";
                         });

// ---------------------------------------------------------------------------
// Scenarios specific to one configuration
// ---------------------------------------------------------------------------

TEST(IntegrationTest, BidirectionalConcurrentCalls) {
  scenario::Options o;
  o.nodes = 5;
  o.topology = scenario::Topology::kChain;
  o.routing = RoutingKind::kAodv;
  scenario::Testbed bed(o);
  bed.start();
  auto& a = bed.add_phone(0, "a");
  auto& b = bed.add_phone(4, "b");
  auto& c = bed.add_phone(1, "c");
  auto& d = bed.add_phone(3, "d");
  bed.settle(seconds(3));
  for (auto* p : {&a, &b, &c, &d}) bed.register_and_wait(*p);

  const auto r1 = bed.call_and_wait(a, "b@voicehoc.ch");
  const auto r2 = bed.call_and_wait(c, "d@voicehoc.ch");
  EXPECT_TRUE(r1.established);
  EXPECT_TRUE(r2.established);
  bed.run_for(seconds(5));
  EXPECT_TRUE(a.in_call(r1.call));
  EXPECT_TRUE(c.in_call(r2.call));
}

TEST(IntegrationTest, CallSurvivesWhenOffPathNodeDies) {
  scenario::Options o;
  o.nodes = 5;
  o.topology = scenario::Topology::kGrid;  // redundancy
  o.spacing = 80;
  o.routing = RoutingKind::kAodv;
  scenario::Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(4, "bob");
  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(result.established);
  // Kill a node that is not an endpoint.
  bed.medium().set_enabled(2, false);
  bed.run_for(seconds(8));
  // Endpoints are in a 2x... (grid of 5 => 3x2) -- the call should still be
  // alive (AODV repairs through remaining nodes when needed).
  EXPECT_TRUE(alice.in_call(result.call));
  const auto report = alice.call_report(result.call);
  ASSERT_TRUE(report);
  EXPECT_GT(report->packets_received, 0u);
}

TEST(IntegrationTest, RegistrationWorksBeforeAnyRoutesExist) {
  // REGISTER is loopback-only (phone -> local proxy): it must succeed even
  // at t=0 with no neighbor discovered yet (the transparency property).
  scenario::Options o;
  o.nodes = 2;
  o.routing = RoutingKind::kAodv;
  scenario::Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  EXPECT_TRUE(bed.register_and_wait(alice, seconds(2)));
}

TEST(IntegrationTest, LossyMediumCallStillEstablishes) {
  scenario::Options o;
  o.nodes = 3;
  o.routing = RoutingKind::kAodv;
  o.radio.loss_probability = 0.10;
  o.seed = 5;
  scenario::Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(2, "bob");
  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  // SIP retransmissions (Timer A/E) must push the call through 10% loss.
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(20));
  EXPECT_TRUE(result.established);
}

TEST(IntegrationTest, InternetCallFromManet) {
  scenario::Options o;
  o.nodes = 3;
  o.routing = RoutingKind::kAodv;
  scenario::Testbed bed(o);
  auto& provider = bed.add_provider("rescue.org");
  auto& hq_host = bed.add_internet_host("hq");
  voip::SoftPhoneConfig hq_config;
  hq_config.username = "hq";
  hq_config.domain = "rescue.org";
  hq_config.outbound_proxy = {*bed.internet().resolve("rescue.org"), 5060};
  voip::SoftPhone hq(hq_host, hq_config);

  bed.start();
  bed.make_gateway(0);
  auto& leader = bed.add_phone(2, "leader", "rescue.org");
  bed.settle(seconds(12));
  ASSERT_TRUE(bed.stack(2).internet_available());

  hq.power_on();
  bed.register_and_wait(leader);
  bed.run_for(seconds(1));
  EXPECT_EQ(provider.binding_count(), 2u);

  const auto result = bed.call_and_wait(leader, "hq@rescue.org", seconds(20));
  ASSERT_TRUE(result.established);
  bed.run_for(seconds(4));
  const auto report = leader.call_report(result.call);
  ASSERT_TRUE(report);
  EXPECT_GT(report->packets_received, 0u);
}

TEST(IntegrationTest, InternetCallIntoManet) {
  scenario::Options o;
  o.nodes = 3;
  o.routing = RoutingKind::kAodv;
  scenario::Testbed bed(o);
  bed.add_provider("rescue.org");
  auto& hq_host = bed.add_internet_host("hq");
  voip::SoftPhoneConfig hq_config;
  hq_config.username = "hq";
  hq_config.domain = "rescue.org";
  hq_config.outbound_proxy = {*bed.internet().resolve("rescue.org"), 5060};
  voip::SoftPhone hq(hq_host, hq_config);

  bed.start();
  bed.make_gateway(0);
  auto& leader = bed.add_phone(2, "leader", "rescue.org");
  bed.settle(seconds(12));
  hq.power_on();
  bed.register_and_wait(leader);

  bool done = false, ok = false;
  voip::SoftPhoneEvents ev;
  ev.on_established = [&](sip::CallId) { done = ok = true; };
  ev.on_failed = [&](sip::CallId, int) { done = true; };
  hq.set_events(std::move(ev));
  hq.dial("leader@rescue.org");
  const auto deadline = bed.sim().now() + seconds(20);
  while (!done && bed.sim().now() < deadline) bed.run_for(milliseconds(10));
  EXPECT_TRUE(ok);
}

TEST(IntegrationTest, MobileNodesCallEventuallySucceeds) {
  scenario::Options o;
  o.nodes = 12;
  o.topology = scenario::Topology::kRandomArea;
  o.area = 300;  // dense enough to stay mostly connected
  o.mobile = true;
  o.waypoint.width = 300;
  o.waypoint.height = 300;
  o.waypoint.max_speed = 2.0;
  o.routing = RoutingKind::kAodv;
  o.seed = 9;
  scenario::Testbed bed(o);
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(11, "bob");
  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  int attempts = 0;
  bool established = false;
  while (!established && attempts < 5) {
    ++attempts;
    const auto result =
        bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(15));
    established = result.established;
    if (!established) bed.run_for(seconds(5));
  }
  EXPECT_TRUE(established);
}

// The observability contract end to end: a completed call must leave the
// expected traces in the testbed's registry (docs/METRICS.md).
TEST(IntegrationTest, CompletedCallLeavesMetricsTrail) {
  scenario::Options o;
  o.nodes = 4;
  o.routing = RoutingKind::kAodv;
  o.seed = 77;
  scenario::Testbed bed(o);
  auto& registry = bed.ctx().metrics();
  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(3, "bob");
  bed.settle(seconds(3));
  ASSERT_TRUE(bed.register_and_wait(alice));
  ASSERT_TRUE(bed.register_and_wait(bob));
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  ASSERT_TRUE(result.established);
  bed.run_for(seconds(2));

  // Setting up the call resolved the callee through MANET SLP and ran an
  // INVITE client transaction somewhere in the MANET.
  EXPECT_GT(registry.counter_total("slp.lookups_total"), 0u);
  EXPECT_GT(registry.counter_total("slp.remote_resolves_total") +
                registry.counter_total("slp.cache_hits_total"),
            0u);
  EXPECT_GT(registry.counter_total("sip.client_tx.INVITE"), 0u);
  EXPECT_GT(registry.counter_total("routing.control_packets_total"), 0u);
  EXPECT_GT(registry.counter_total("rtp.packets_rx_total"), 0u);

  // And the tracer saw the matching spans, stamped with virtual time.
  bool saw_resolve = false, saw_invite = false;
  for (const auto& span : registry.spans()) {
    saw_resolve = saw_resolve || span.name == "slp_resolve";
    saw_invite = saw_invite || span.name == "invite_transaction";
    EXPECT_LE(span.t_start, span.t_end);
  }
  EXPECT_TRUE(saw_resolve);
  EXPECT_TRUE(saw_invite);
}

TEST(IntegrationTest, DeterministicReplay) {
  const auto run_once = [] {
    scenario::Options o;
    o.nodes = 4;
    o.routing = RoutingKind::kAodv;
    o.seed = 4242;
    scenario::Testbed bed(o);
    bed.start();
    auto& alice = bed.add_phone(0, "alice");
    auto& bob = bed.add_phone(3, "bob");
    bed.settle(seconds(3));
    bed.register_and_wait(alice);
    bed.register_and_wait(bob);
    const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
    return std::make_pair(result.setup_time,
                          bed.medium().stats().frames_sent);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace siphoc
