// Behavioral tests: AODV daemon over the emulated medium.
#include <gtest/gtest.h>

#include "routing/aodv.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

/// N-node chain, 100 m spacing, 120 m range: only neighbors hear each other.
class AodvChain : public ::testing::Test {
 protected:
  void build(std::size_t n) {
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
      daemons_.push_back(std::make_unique<Aodv>(*hosts_.back()));
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

  /// Node i's AODV counter `name` in the registry (0 before its first use).
  std::uint64_t counter(std::string_view name, std::size_t i) const {
    const Counter* c = sim_->ctx().metrics().find_counter(
        name, "n" + std::to_string(i), "aodv");
    return c != nullptr ? c->value() : 0;
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
  build(2);
  // No receiver for this dst: point at a nonexistent node so discovery
  // fails and we can observe the cap.
  for (std::size_t i = 0; i < Aodv::kMaxBufferedPerDst + 10; ++i) {
    hosts_[0]->send_udp(9000, {Address(10, 0, 0, 200), 9000}, to_bytes("x"));
  }
  EXPECT_EQ(daemons_[0]->buffered_count(), Aodv::kMaxBufferedPerDst);
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
  EXPECT_GT(counter("aodv.rerr_tx_total", 1) +
                counter("aodv.rerr_tx_total", 3),
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
  build(7);
  sim_->run_for(seconds(1));
  // 6 hops away: the rings of TTL 2 and 4 fall short, TTL 6 reaches.
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
  EXPECT_GT(counter("routing.control_packets_total", 0), 0u);  // HELLOs
  EXPECT_GT(counter("routing.control_bytes_total", 0), 0u);
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
  const Duration ttl = Aodv::kRreqIdCacheTtl;
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

// A stopped daemon does not tick, so the ids it held stay duplicates past
// their expiry until the first tick after a restart (500 ms after it).
TEST_F(AodvRreqCache, StoppedDaemonKeepsIdsUntilTheFirstTickAfterRestart) {
  EXPECT_TRUE(forwarded(1, milliseconds(1100)));  // expires at ~4.1 s
  EXPECT_TRUE(forwarded(2, milliseconds(1101)));
  sim_.run_until(TimePoint{} + milliseconds(1200));
  aodv_->stop();
  sim_.run_until(TimePoint{} + seconds(6));
  aodv_->start();  // ticks at 6.5 s, 7 s, ...
  EXPECT_FALSE(forwarded(1, milliseconds(6200)));
  EXPECT_TRUE(forwarded(2, milliseconds(6600)));
}

// The cache forgets lapsed ids when it grows, and only those: its size
// follows the ids heard within one lifetime, not all ids ever heard. 20,000
// distinct ids over 60 s keep about 1,200 live at a time; the table stays
// within 8,192 slots where holding every id would take 65,536. Every 50th
// step repeats the id heard 0.9 s before, which must still be a duplicate
// however often the table has been rebuilt since.
TEST_F(AodvRreqCache, StaysBoundedUnderManyDistinctIds) {
  const Counter& forwards = sim_.ctx().metrics().counter(
      "aodv.rreq_forwarded_total", "n1", "aodv");
  const auto inject = [&](std::uint32_t id) {
    aodv::Rreq rreq;
    rreq.rreq_id = id;
    rreq.ttl = 2;
    rreq.dst = addr(9);
    rreq.orig = addr(0);
    injector_.send_broadcast(net::kAodvPort, net::kAodvPort,
                             aodv::encode(rreq, {}));
  };
  for (std::uint32_t id = 1; id <= 20000; ++id) {
    sim_.run_until(TimePoint{} + microseconds(3000 * id));
    inject(id);
    if (id % 50 == 0 && id > 300) inject(id - 300);
  }
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(forwards.value(), 20000u);
  EXPECT_GT(aodv_->rreq_cache().capacity(), 0u);
  EXPECT_LE(aodv_->rreq_cache().capacity(), 8192u);
}

// Neighbors that fall silent within one housekeeping period are found
// lost at the same tick, and each loss sends one RERR. They leave in the
// order the daemon's neighbor set visits them: an unordered set that gains
// a member on the first hear after an absence and loses it on a loss,
// which visits its members as the unordered_map of last-heard times the
// daemon once kept did. The order decides the order of later RNG draws, so
// it was recorded from that map and must not move; visiting the last-heard
// slots instead fails.
TEST(AodvNeighborLoss, RerrsLeaveInTheRecordedOrder) {
  sim::Simulator sim(7);
  net::RadioMedium medium(sim, net::RadioConfig{});
  net::Host hub(sim, 0, "hub");
  hub.attach_radio(medium, Address(10, 0, 0, 1),
                   std::make_shared<net::StaticMobility>(net::Position{0, 0}));
  Aodv aodv(hub);
  aodv.start();

  const std::uint8_t hosts[] = {37, 5, 201, 88, 14, 160, 99, 42};
  std::vector<std::unique_ptr<net::Host>> peers;
  for (std::size_t i = 0; i < std::size(hosts); ++i) {
    peers.push_back(std::make_unique<net::Host>(
        sim, static_cast<net::NodeId>(i + 1), "p" + std::to_string(i)));
    peers.back()->attach_radio(
        medium, Address(10, 0, 0, hosts[i]),
        std::make_shared<net::StaticMobility>(
            net::Position{10.0 * static_cast<double>(i), 10}));
  }
  std::string rerrs;
  medium.set_tap([&](const net::Frame& f, TimePoint) {
    if (f.src_mac != 0 || f.datagram.dst_port != net::kAodvPort) return;
    const auto decoded = aodv::decode_frame(f.datagram.payload);
    if (decoded && std::holds_alternative<aodv::Rerr>(decoded->message)) {
      rerrs += aodv::describe(decoded->message) + "\n";
    }
  });

  // Each peer says HELLO once and relays one RREQ from a node behind it,
  // all within 20 ms: the hub then routes to the peer and, through it, to
  // that node, and misses all of them at the same housekeeping tick.
  sim.run_until(TimePoint{} + milliseconds(1000));
  for (std::size_t i = 0; i < peers.size(); ++i) {
    aodv::Rrep hello;
    hello.dst = Address(10, 0, 0, hosts[i]);
    hello.dst_seqno = 1;
    hello.lifetime_ms = 2000;
    hello.is_hello = true;
    peers[i]->send_broadcast(net::kAodvPort, net::kAodvPort,
                             aodv::encode(hello, {}));
    aodv::Rreq rreq;
    rreq.rreq_id = 1;
    rreq.ttl = 1;  // the hub does not forward it
    rreq.dst = Address(10, 0, 0, 250);
    rreq.orig = Address(10, 0, 1, hosts[i]);
    rreq.orig_seqno = 1;
    peers[i]->send_broadcast(net::kAodvPort, net::kAodvPort,
                             aodv::encode(rreq, {}));
    sim.run_for(milliseconds(2));
  }
  sim.run_until(TimePoint{} + seconds(5));
  EXPECT_EQ(rerrs,
            "RERR unreachable={10.0.0.42,10.0.1.42,}\n"
            "RERR unreachable={10.0.1.99,10.0.0.99,}\n"
            "RERR unreachable={10.0.0.160,10.0.1.160,}\n"
            "RERR unreachable={10.0.0.14,10.0.1.14,}\n"
            "RERR unreachable={10.0.1.88,10.0.0.88,}\n"
            "RERR unreachable={10.0.0.201,10.0.1.201,}\n"
            "RERR unreachable={10.0.0.5,10.0.1.5,}\n"
            "RERR unreachable={10.0.0.37,10.0.1.37,}\n");
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

// on_link_break lists the broken routes in the order the RERR carries them
// (aodv::describe prints them). That order is the iteration order of the
// std::unordered_map the table keyed its routes by: the table keeps an
// insert-only map that sees the same insertions, and these pairs were
// recorded from it. Listing the routes in slot or address order fails.
TEST(AodvTableTest, LinkBreakListsRoutesInTheParentOrder) {
  AodvTable table;
  const Address neighbor(10, 0, 0, 2);
  const Address other(10, 0, 0, 3);
  const TimePoint later = TimePoint{} + seconds(10);
  for (std::uint32_t i = 0; i < 48; ++i) {
    // 48 distinct hosts in 10..106, inserted in a scrambled order; every
    // fifth route has no valid seqno, so the break leaves its seqno at 0.
    const auto host = static_cast<std::uint8_t>(10 + (i * 37) % 97);
    table.update(Address(10, 0, 0, host), 100 + i, i % 5 != 0, 2, neighbor,
                 later);
    if (i % 8 == 3) {
      table.update(Address(10, 0, 1, static_cast<std::uint8_t>(i)), 7, true,
                   3, other, later);
    }
  }
  std::string listed;
  for (const auto& [dst, seqno] : table.on_link_break(neighbor)) {
    listed += std::to_string(dst.value() & 0xff) + ":" +
              std::to_string(seqno) + " ";
  }
  EXPECT_EQ(listed,
            "100:148 86:145 63:147 49:144 72:142 95:140 58:139 81:137 "
            "104:135 67:134 53:0 76:129 99:127 29:112 52:110 15:109 "
            "11:122 61:105 38:107 26:0 85:124 30:133 89:0 24:104 "
            "47:102 16:130 75:108 10:0 90:132 66:113 44:0 103:114 "
            "43:115 39:128 98:0 21:138 80:0 20:117 57:118 35:0 94:119 "
            "34:120 12:143 71:0 48:123 84:103 25:125 62:0 ");
  EXPECT_EQ(table.valid_count(), 6u);
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
