// Behavioral tests: AODV daemon over the emulated medium.
#include <gtest/gtest.h>

#include "routing/aodv.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

/// N-node chain, 100 m spacing, 120 m range: only neighbors hear each other.
class AodvChain : public ::testing::Test {
 protected:
  void build(std::size_t n, AodvConfig config = {}) {
    sim_ = std::make_unique<sim::Simulator>(7);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < n; ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(
          *medium_, addr(i),
          std::make_shared<net::StaticMobility>(
              net::Position{100.0 * static_cast<double>(i), 0}));
      hosts_.push_back(std::move(host));
      daemons_.push_back(std::make_unique<Aodv>(*hosts_.back(), config));
      daemons_.back()->start();
    }
  }

  static Address addr(std::size_t i) {
    return Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                   1};
  }

  /// Sends a UDP probe and reports whether it arrived within `wait`.
  bool probe(std::size_t from, std::size_t to, Duration wait = seconds(2)) {
    bool got = false;
    hosts_[to]->bind(9000, [&](const net::Datagram&, const net::RxInfo&) {
      got = true;
    });
    hosts_[from]->send_udp(9000, {addr(to), 9000}, to_bytes("probe"));
    const TimePoint deadline = sim_->now() + wait;
    while (!got && sim_->now() < deadline) sim_->run_for(milliseconds(10));
    hosts_[to]->unbind(9000);
    return got;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<Aodv>> daemons_;
};

TEST_F(AodvChain, DiscoversMultihopRoute) {
  build(5);
  sim_->run_for(seconds(1));
  EXPECT_TRUE(probe(0, 4));
  // Forward route installed at the source, with the right hop count.
  const AodvRoute* route = daemons_[0]->table().active(addr(4), sim_->now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, addr(1));
  EXPECT_EQ(route->hop_count, 4);
  EXPECT_EQ(daemons_[0]->stats().route_discoveries, 1u);
}

TEST_F(AodvChain, SecondSendUsesCachedRoute) {
  build(4);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 3));
  const auto discoveries = daemons_[0]->stats().route_discoveries;
  ASSERT_TRUE(probe(0, 3, milliseconds(500)));
  EXPECT_EQ(daemons_[0]->stats().route_discoveries, discoveries);
}

TEST_F(AodvChain, ReverseRouteEstablishedByDiscovery) {
  build(4);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 3));
  // The destination learned a route back to the originator.
  EXPECT_NE(daemons_[3]->table().active(addr(0), sim_->now()), nullptr);
}

TEST_F(AodvChain, BuffersPacketsDuringDiscovery) {
  build(4);
  sim_->run_for(seconds(1));
  int got = 0;
  hosts_[3]->bind(9000,
                  [&](const net::Datagram&, const net::RxInfo&) { ++got; });
  // Burst before any route exists: all datagrams must be buffered + flushed.
  for (int i = 0; i < 5; ++i) {
    hosts_[0]->send_udp(9000, {addr(3), 9000}, to_bytes("x"));
  }
  EXPECT_GT(daemons_[0]->buffered_count(), 0u);
  sim_->run_for(seconds(2));
  EXPECT_EQ(got, 5);
  EXPECT_EQ(daemons_[0]->buffered_count(), 0u);
}

TEST_F(AodvChain, BufferCapDropsOldest) {
  AodvConfig config;
  config.max_buffered_per_dst = 3;
  build(2, config);
  // No receiver for this dst: point at a nonexistent node so discovery
  // fails and we can observe the cap.
  for (int i = 0; i < 10; ++i) {
    hosts_[0]->send_udp(9000, {Address(10, 0, 0, 200), 9000}, to_bytes("x"));
  }
  EXPECT_LE(daemons_[0]->buffered_count(), 3u);
}

TEST_F(AodvChain, DiscoveryForUnknownNodeFails) {
  build(3);
  sim_->run_for(seconds(1));
  hosts_[0]->send_udp(9000, {Address(10, 0, 0, 200), 9000}, to_bytes("x"));
  sim_->run_for(seconds(30));  // expanding ring + retries must exhaust
  EXPECT_EQ(daemons_[0]->stats().discovery_failures, 1u);
  EXPECT_EQ(daemons_[0]->buffered_count(), 0u);
}

TEST_F(AodvChain, HelloEstablishesNeighborRoutes) {
  build(3);
  sim_->run_for(seconds(3));  // a few HELLO periods
  // 1-hop routes exist without any discovery.
  EXPECT_NE(daemons_[1]->table().active(addr(0), sim_->now()), nullptr);
  EXPECT_NE(daemons_[1]->table().active(addr(2), sim_->now()), nullptr);
  EXPECT_EQ(daemons_[1]->stats().route_discoveries, 0u);
}

TEST_F(AodvChain, LinkBreakTriggersRerrAndReDiscovery) {
  build(5);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 4));
  // Kill node 2 (middle of the path).
  daemons_[2]->stop();
  medium_->set_enabled(2, false);
  sim_->run_for(seconds(5));  // HELLO loss detection
  EXPECT_GT(daemons_[1]->stats().route_errors_sent +
                daemons_[3]->stats().route_errors_sent,
            0u);
  // The chain is severed: traffic to the far end now fails...
  EXPECT_FALSE(probe(0, 4, seconds(3)));
  // ...but reviving the relay lets a fresh discovery succeed.
  medium_->set_enabled(2, true);
  daemons_[2]->start();
  sim_->run_for(seconds(2));
  EXPECT_TRUE(probe(0, 4, seconds(5)));
}

// The host routes over an entry until housekeeping expires it, not from
// the instant its lifetime passes: between the two, traffic still takes
// the route and starts no discovery.
TEST_F(AodvChain, RoutePastItsLifetimeForwardsUntilHousekeeping) {
  build(3);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 2));
  const AodvRoute* entry = daemons_[0]->table().find(addr(2));
  ASSERT_NE(entry, nullptr);
  sim_->run_until(entry->expires);
  ASSERT_TRUE(entry->valid) << "housekeeping ran at the expiry instant";
  ASSERT_EQ(daemons_[0]->table().active(addr(2), sim_->now()), nullptr);

  const auto route = hosts_[0]->lookup_route(addr(2));
  ASSERT_TRUE(route);
  EXPECT_EQ(route->prefix_len, 32);
  EXPECT_EQ(route->next_hop, addr(1));
  EXPECT_EQ(route->metric, 2);
  const auto discoveries = daemons_[0]->stats().route_discoveries;
  EXPECT_TRUE(probe(0, 2, milliseconds(100)));
  EXPECT_EQ(daemons_[0]->stats().route_discoveries, discoveries);
}

// A stopped daemon no longer answers the host's lookups: a peer it had a
// route to is on-link again, as the radio's /24 says.
TEST_F(AodvChain, StoppedDaemonLeavesThePeerOnLink) {
  build(3);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 2));
  const auto before = hosts_[0]->lookup_route(addr(2));
  ASSERT_TRUE(before && before->prefix_len == 32);
  daemons_[0]->stop();
  const auto route = hosts_[0]->lookup_route(addr(2));
  ASSERT_TRUE(route);
  EXPECT_EQ(route->prefix_len, net::kManetPrefixLen);
  EXPECT_FALSE(route->next_hop);
  EXPECT_EQ(route->metric, 100);
}

TEST_F(AodvChain, ExpandingRingEventuallyReachesFarNode) {
  AodvConfig config;
  config.ttl_start = 1;
  config.ttl_increment = 1;
  config.ttl_threshold = 3;
  build(7, config);
  sim_->run_for(seconds(1));
  // 6 hops away: several ring expansions needed.
  EXPECT_TRUE(probe(0, 6, seconds(10)));
}

TEST_F(AodvChain, DuplicateRreqSuppressed) {
  build(3);
  sim_->run_for(seconds(1));
  const auto before = medium_->stats().frames_sent;
  ASSERT_TRUE(probe(0, 2));
  const auto frames = medium_->stats().frames_sent - before;
  // 1 RREQ from n0, 1 rebroadcast from n1 (n2 answers), RREP hops back,
  // probe + odd HELLO. Without duplicate suppression this explodes.
  EXPECT_LT(frames, 20u);
}

TEST_F(AodvChain, IntermediateNodeWithFreshRouteReplies) {
  build(5);
  sim_->run_for(seconds(1));
  ASSERT_TRUE(probe(0, 4));  // everyone on the path now has routes to n4
  // n1 asks for n4: n1's neighbor n2 holds a fresh route and may reply on
  // behalf of the destination -- either way discovery must be quick.
  const auto t0 = sim_->now();
  ASSERT_TRUE(probe(1, 4, seconds(1)));
  EXPECT_LT(sim_->now() - t0, seconds(1));
}

TEST_F(AodvChain, StatsAccounting) {
  build(3);
  sim_->run_for(seconds(2));
  const auto& stats = daemons_[0]->stats();
  EXPECT_GT(stats.control_packets_sent, 0u);  // HELLOs at least
  EXPECT_GT(stats.control_bytes_sent, 0u);
}

// The RREQ duplicate cache keeps an id until the first housekeeping tick
// (every 500 ms from start()) at or after its expiry, not just until the
// expiry instant, and a duplicate heard later pushes the expiry out. A
// bare host injects the RREQs; a forward by the daemon (one more
// `aodv.rreq_forwarded_total` on n1) shows that it handled the RREQ as new.
class AodvRreqCache : public ::testing::Test {
 protected:
  AodvRreqCache() : sim_(7), medium_(sim_, net::RadioConfig{}) {
    injector_.attach_radio(medium_, addr(0),
                           std::make_shared<net::StaticMobility>(
                               net::Position{0, 0}));
    node_.attach_radio(medium_, addr(1),
                       std::make_shared<net::StaticMobility>(
                           net::Position{50, 0}));
    aodv_ = std::make_unique<Aodv>(node_);
    aodv_->start();  // housekeeping ticks at 0.5 s, 1 s, ...
  }

  static Address addr(std::uint32_t i) {
    return Address{net::kManetPrefix.value() + i + 1};
  }

  /// Injects RREQ `id` at `at`; true when the daemon forwarded it.
  bool forwarded(std::uint32_t id, Duration at) {
    sim_.run_until(TimePoint{} + at);
    const Counter& forwards = sim_.ctx().metrics().counter(
        "aodv.rreq_forwarded_total", "n1", "aodv");
    const std::uint64_t before = forwards.value();
    aodv::Rreq rreq;
    rreq.rreq_id = id;
    rreq.ttl = 5;
    rreq.dst = addr(9);  // unknown: the node cannot answer
    rreq.orig = addr(0);
    injector_.send_broadcast(net::kAodvPort, net::kAodvPort,
                             aodv::encode(rreq, {}));
    sim_.run_for(milliseconds(10));
    return forwards.value() > before;
  }

  sim::Simulator sim_;
  net::RadioMedium medium_;
  net::Host injector_{sim_, 0, "injector"};
  net::Host node_{sim_, 1, "n1"};
  std::unique_ptr<Aodv> aodv_;
};

TEST_F(AodvRreqCache, IdStaysDuplicateUntilTheTickAfterItsExpiry) {
  const Duration ttl = AodvConfig{}.rreq_id_cache_ttl;
  ASSERT_EQ(ttl, seconds(3));
  EXPECT_TRUE(forwarded(1, milliseconds(1100)));  // expires at ~4.1 s
  EXPECT_TRUE(forwarded(2, milliseconds(1101)));
  // Past the expiry, before the 4.5 s tick: still a duplicate.
  EXPECT_FALSE(forwarded(1, milliseconds(4200)));
  // After the tick: new again.
  EXPECT_TRUE(forwarded(2, milliseconds(4600)));
}

TEST_F(AodvRreqCache, LaterDuplicateSurvivesThePurgeOfTheFirstExpiry) {
  EXPECT_TRUE(forwarded(5, milliseconds(1100)));   // expires at ~4.1 s
  EXPECT_FALSE(forwarded(5, milliseconds(2100)));  // now at ~5.1 s
  // The 4.5 s tick purged the first expiry only. This hearing pushes the
  // expiry to ~7.6 s, so the 8 s tick forgets the id.
  EXPECT_FALSE(forwarded(5, milliseconds(4600)));
  EXPECT_TRUE(forwarded(5, milliseconds(8100)));
}

TEST(AodvTableTest, UpdateRules) {
  AodvTable table;
  const Address dst(10, 0, 0, 9);
  const Address hop1(10, 0, 0, 2);
  const Address hop2(10, 0, 0, 3);
  const TimePoint later = TimePoint{} + seconds(10);

  // Fresh entry accepted.
  EXPECT_NE(table.update(dst, 5, true, 3, hop1, later), nullptr);
  // Older seqno rejected.
  EXPECT_EQ(table.update(dst, 4, true, 1, hop2, later), nullptr);
  EXPECT_EQ(table.find(dst)->next_hop, hop1);
  // Same seqno, fewer hops accepted.
  EXPECT_NE(table.update(dst, 5, true, 2, hop2, later), nullptr);
  EXPECT_EQ(table.find(dst)->next_hop, hop2);
  // Newer seqno always accepted, even with more hops.
  EXPECT_NE(table.update(dst, 6, true, 7, hop1, later), nullptr);
  EXPECT_EQ(table.find(dst)->hop_count, 7);
}

TEST(AodvTableTest, InvalidateBumpsSeqnoAndReportsPrecursors) {
  AodvTable table;
  const Address dst(10, 0, 0, 9);
  table.update(dst, 5, true, 2, Address(10, 0, 0, 2),
               TimePoint{} + seconds(10));
  table.add_precursor(dst, Address(10, 0, 0, 7));
  const auto precursors = table.invalidate(dst);
  ASSERT_EQ(precursors.size(), 1u);
  EXPECT_EQ(precursors[0], Address(10, 0, 0, 7));
  EXPECT_FALSE(table.find(dst)->valid);
  EXPECT_EQ(table.find(dst)->seqno, 6u);
  // Invalidating again is a no-op.
  EXPECT_TRUE(table.invalidate(dst).empty());
}

TEST(AodvTableTest, LinkBreakInvalidatesAllRoutesViaNeighbor) {
  AodvTable table;
  const Address neighbor(10, 0, 0, 2);
  const TimePoint later = TimePoint{} + seconds(10);
  table.update(Address(10, 0, 0, 8), 1, true, 2, neighbor, later);
  table.update(Address(10, 0, 0, 9), 1, true, 3, neighbor, later);
  table.update(Address(10, 0, 0, 4), 1, true, 1, Address(10, 0, 0, 4), later);
  const auto broken = table.on_link_break(neighbor);
  EXPECT_EQ(broken.size(), 2u);
  EXPECT_EQ(table.valid_count(), 1u);
}

TEST(AodvTableTest, ExpiryInvalidates) {
  AodvTable table;
  const Address dst(10, 0, 0, 9);
  table.update(dst, 1, true, 1, dst, TimePoint{} + seconds(1));
  table.expire(TimePoint{} + seconds(2));
  EXPECT_FALSE(table.find(dst)->valid);
  EXPECT_EQ(table.active(dst, TimePoint{} + seconds(2)), nullptr);
}

TEST(AodvTableTest, SeqnoWraparound) {
  AodvTable table;
  const Address dst(10, 0, 0, 9);
  const TimePoint later = TimePoint{} + seconds(10);
  table.update(dst, 0xfffffffe, true, 2, Address(10, 0, 0, 2), later);
  // 1 is "newer" than 0xfffffffe under signed rollover comparison.
  EXPECT_NE(table.update(dst, 1, true, 5, Address(10, 0, 0, 3), later),
            nullptr);
  EXPECT_EQ(table.find(dst)->seqno, 1u);
}

}  // namespace
}  // namespace siphoc::routing
