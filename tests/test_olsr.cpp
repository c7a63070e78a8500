// Behavioral tests: OLSR daemon -- link sensing, MPR selection, topology
// dissemination, route computation.
#include <gtest/gtest.h>

#include "routing/olsr.hpp"
#include "scenario/scenario.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

class OlsrNet : public ::testing::Test {
 protected:
  void build(const std::vector<net::Position>& positions) {
    sim_ = std::make_unique<sim::Simulator>(11);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(*medium_, addr(i),
                         std::make_shared<net::StaticMobility>(positions[i]));
      hosts_.push_back(std::move(host));
      daemons_.push_back(std::make_unique<Olsr>(*hosts_.back()));
      daemons_.back()->start();
    }
  }

  static Address addr(std::size_t i) {
    return Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                   1};
  }

  bool probe(std::size_t from, std::size_t to, Duration wait = seconds(1)) {
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
  std::vector<std::unique_ptr<Olsr>> daemons_;
};

TEST_F(OlsrNet, SymmetricNeighborsAfterHelloExchange) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(6));
  EXPECT_TRUE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  EXPECT_FALSE(daemons_[0]->symmetric_neighbors().contains(addr(2)));
  EXPECT_EQ(daemons_[1]->symmetric_neighbors().size(), 2u);
}

TEST_F(OlsrNet, MiddleNodeBecomesMpr) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(8));
  // n0 must reach two-hop n2 through n1: n1 is n0's only possible MPR.
  EXPECT_TRUE(daemons_[0]->mpr_set().contains(addr(1)));
  EXPECT_TRUE(daemons_[1]->mpr_selectors().contains(addr(0)));
}

TEST_F(OlsrNet, RoutesConvergeOnChain) {
  build(net::chain_positions(5, 100));
  sim_->run_for(seconds(15));
  // Every node can reach every other node.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(daemons_[i]->has_route(addr(j)))
          << "n" << i << " has no route to n" << j;
    }
  }
  EXPECT_TRUE(probe(0, 4));
  EXPECT_TRUE(probe(4, 0));
}

TEST_F(OlsrNet, HopCountsAreShortestPath) {
  build(net::chain_positions(5, 100));
  sim_->run_for(seconds(15));
  const auto route = hosts_[0]->lookup_route(addr(4));
  ASSERT_TRUE(route);
  EXPECT_EQ(route->metric, 4);  // metric carries the hop count
  EXPECT_EQ(route->next_hop, addr(1));
}

// A stopped daemon no longer answers the host's lookups: a peer it had a
// route to is on-link again, as the radio's /24 says.
TEST_F(OlsrNet, StoppedDaemonLeavesThePeerOnLink) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(15));
  const auto before = hosts_[0]->lookup_route(addr(2));
  ASSERT_TRUE(before && before->prefix_len == 32);
  daemons_[0]->stop();
  const auto route = hosts_[0]->lookup_route(addr(2));
  ASSERT_TRUE(route);
  EXPECT_EQ(route->prefix_len, net::kManetPrefixLen);
  EXPECT_FALSE(route->next_hop);
  EXPECT_EQ(route->metric, 100);
}

TEST_F(OlsrNet, GridConvergesAndRoutesAreUsable) {
  build(net::grid_positions(9, 100));
  sim_->run_for(seconds(20));
  EXPECT_TRUE(probe(0, 8));  // corner to corner
  EXPECT_TRUE(probe(2, 6));
  // Full coverage from node 0.
  for (std::size_t j = 1; j < 9; ++j) {
    EXPECT_TRUE(daemons_[0]->has_route(addr(j))) << "no route to n" << j;
  }
}

TEST_F(OlsrNet, MprCountStaysSmallInDenseNetwork) {
  // All 8 nodes within range of each other: no two-hop nodes, so no MPRs
  // are needed at all.
  std::vector<net::Position> cluster;
  for (int i = 0; i < 8; ++i) {
    cluster.push_back({static_cast<double>(i) * 10.0, 0});
  }
  build(cluster);
  sim_->run_for(seconds(15));
  for (const auto& d : daemons_) {
    EXPECT_TRUE(d->mpr_set().empty());
    EXPECT_EQ(d->symmetric_neighbors().size(), 7u);
  }
}

TEST_F(OlsrNet, DeadNeighborExpires) {
  build(net::chain_positions(3, 100));
  sim_->run_for(seconds(10));
  ASSERT_TRUE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  medium_->set_enabled(1, false);
  sim_->run_for(seconds(10));  // Olsr::kNeighborHold = 6 s
  EXPECT_FALSE(daemons_[0]->symmetric_neighbors().contains(addr(1)));
  EXPECT_FALSE(daemons_[0]->has_route(addr(2)));
}

TEST_F(OlsrNet, TopologyRepairsAfterNodeReturns) {
  build(net::chain_positions(4, 100));
  sim_->run_for(seconds(15));
  ASSERT_TRUE(probe(0, 3));
  medium_->set_enabled(1, false);
  sim_->run_for(seconds(12));
  EXPECT_FALSE(probe(0, 3, seconds(1)));
  medium_->set_enabled(1, true);
  sim_->run_for(seconds(15));
  EXPECT_TRUE(probe(0, 3));
}

TEST_F(OlsrNet, PiggybackSeamFiresOnHelloAndTc) {
  struct Recorder final : RoutingHandler {
    int hello_out = 0, tc_out = 0, hello_in = 0;
    Bytes on_outgoing(const PacketInfo& info) override {
      if (info.kind == PacketKind::kOlsrHello) {
        ++hello_out;
        return to_bytes("H");
      }
      ++tc_out;
      return to_bytes("T");
    }
    HandlerVerdict on_incoming(const PacketInfo& info,
                               std::span<const std::uint8_t>,
                               net::Address) override {
      if (info.kind == PacketKind::kOlsrHello) ++hello_in;
      return {};
    }
  };
  build(net::chain_positions(2, 100));
  Recorder recorder;
  daemons_[0]->set_handler(&recorder);
  sim_->run_for(seconds(10));
  EXPECT_GT(recorder.hello_out, 2);
  EXPECT_GT(recorder.tc_out, 0);  // payload forces TC even without selectors
  EXPECT_GT(recorder.hello_in, 2);
  daemons_[0]->set_handler(nullptr);
}

TEST_F(OlsrNet, TcExtensionFloodsNetworkWide) {
  struct Sink final : RoutingHandler {
    std::string seen;
    Bytes on_outgoing(const PacketInfo&) override { return {}; }
    HandlerVerdict on_incoming(const PacketInfo& info,
                               std::span<const std::uint8_t> ext,
                               net::Address) override {
      if (info.kind == PacketKind::kOlsrTc && !ext.empty()) {
        seen = siphoc::to_string(ext);  // routing::to_string shadows it
      }
      return {};
    }
  };
  struct Source final : RoutingHandler {
    Bytes on_outgoing(const PacketInfo& info) override {
      return info.kind == PacketKind::kOlsrTc ? to_bytes("adv-from-n0")
                                              : Bytes{};
    }
    HandlerVerdict on_incoming(const PacketInfo&,
                               std::span<const std::uint8_t>,
                               net::Address) override {
      return {};
    }
  };
  build(net::chain_positions(5, 100));
  Source source;
  Sink sink;
  daemons_[0]->set_handler(&source);
  daemons_[4]->set_handler(&sink);
  sim_->run_for(seconds(25));
  // Four hops away, reachable only through MPR forwarding of TC messages.
  EXPECT_EQ(sink.seen, "adv-from-n0");
  daemons_[0]->set_handler(nullptr);
  daemons_[4]->set_handler(nullptr);
}

TEST_F(OlsrNet, NudgeAdvertisementEmitsImmediately) {
  build(net::chain_positions(2, 100));
  sim_->run_for(seconds(5));
  const Counter* sent = sim_->ctx().metrics().find_counter(
      "routing.control_packets_total", "n0", "olsr");
  ASSERT_NE(sent, nullptr);
  const auto before = sent->value();
  daemons_[0]->nudge_advertisement();
  EXPECT_GT(sent->value(), before);
}

// ---------------------------------------------------------------------------
// Topology-set edge cases, pinned through hand-built TCs
// ---------------------------------------------------------------------------

// One daemon (n0) next to raw hosts (n1, n2) that speak hand-built OLSR:
// HELLOs listing n0 keep n1 a symmetric neighbour, and TCs from a
// fictitious originator X put edges into n0's topology set. n0's route to
// a node X advertises (n0 -> n1 -> X -> dest, metric 3) is the window
// into that set; X advertises n1 in every TC so that X itself stays
// reachable. n2 hears n0 but not n1; the MPR tests use it as a second
// neighbour and capture n0's own HELLOs on it.
class OlsrTcInput : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>(11);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    const net::Position positions[] = {{0, 0}, {100, 0}, {0, 100}};
    for (std::size_t i = 0; i < 3; ++i) {
      hosts_.push_back(std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
      hosts_.back()->attach_radio(
          *medium_, addr(i),
          std::make_shared<net::StaticMobility>(positions[i]));
    }
    daemon_ = std::make_unique<Olsr>(*hosts_[0]);
    daemon_->start();
  }

  static Address addr(std::size_t i) {
    return Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                   1};
  }

  void hello() { hello_from(1, {{olsr::LinkCode::kSym, {addr(0)}}}); }

  void hello_from(std::size_t host, std::vector<olsr::Hello::LinkGroup> links) {
    olsr::Message m;
    m.type = olsr::MsgType::kHello;
    m.originator = addr(host);
    m.hello.links = std::move(links);
    send(std::move(m), host);
  }

  static olsr::Message tc_message(std::uint16_t ansn,
                                  std::vector<Address> advertised) {
    olsr::Message m;
    m.type = olsr::MsgType::kTc;
    m.vtime_ms = 15000;
    m.originator = kX;
    m.ttl = 255;
    m.tc.ansn = ansn;
    m.tc.advertised = std::move(advertised);
    return m;
  }

  void tc(std::uint16_t ansn, std::vector<Address> advertised) {
    send(tc_message(ansn, std::move(advertised)));
  }

  void send(olsr::Message m, std::size_t host = 1) {
    m.msg_seq = ++seq_;
    send_as_is(std::move(m), host);
  }

  /// Sends `m` with the msg_seq it already carries.
  void send_as_is(olsr::Message m, std::size_t host = 1) {
    olsr::Packet p;
    p.pkt_seq = m.msg_seq;
    p.messages.push_back(std::move(m));
    hosts_[host]->send_broadcast(net::kOlsrPort, net::kOlsrPort,
                                 olsr::encode(p));
  }

  /// Records every HELLO n0 sends, as heard by n2, with its arrival time.
  void capture_hellos() {
    hosts_[2]->bind(net::kOlsrPort, [this](const net::Datagram& d,
                                           const net::RxInfo&) {
      const auto packet = olsr::decode(d.payload);
      ASSERT_TRUE(packet.has_value());
      for (const auto& m : packet->messages) {
        if (m.type == olsr::MsgType::kHello && m.originator == addr(0)) {
          hellos_.emplace_back(sim_->now(), m.hello);
        }
      }
    });
  }

  /// The captured HELLO heard first after `t` / last before it.
  olsr::Hello first_hello_after(TimePoint t) const {
    const auto it = std::find_if(hellos_.begin(), hellos_.end(),
                                 [t](const auto& e) { return e.first > t; });
    if (it != hellos_.end()) return it->second;
    ADD_FAILURE() << "no HELLO after " << format_time(t);
    return {};
  }
  olsr::Hello last_hello_before(TimePoint t) const {
    const auto it = std::find_if(hellos_.rbegin(), hellos_.rend(),
                                 [t](const auto& e) { return e.first < t; });
    if (it != hellos_.rend()) return it->second;
    ADD_FAILURE() << "no HELLO before " << format_time(t);
    return {};
  }

  /// The link code a HELLO gives `neighbor`, nullopt when it is not listed.
  static std::optional<olsr::LinkCode> code_of(const olsr::Hello& hello,
                                               Address neighbor) {
    for (const auto& g : hello.links) {
      if (std::find(g.neighbors.begin(), g.neighbors.end(), neighbor) !=
          g.neighbors.end()) {
        return g.code;
      }
    }
    return std::nullopt;
  }

  /// Advances virtual time with a HELLO from n1 every 2 s, well inside
  /// n0's 6 s neighbour hold.
  void run(Duration d) {
    const TimePoint end = sim_->now() + d;
    while (sim_->now() < end) {
      hello();
      sim_->run_for(std::min<Duration>(seconds(2), end - sim_->now()));
    }
  }

  /// Hop count of n0's route to dst, or -1 when there is none.
  int metric(Address dst) const {
    const auto route = hosts_[0]->lookup_route(dst);
    if (!daemon_->has_route(dst) || !route) return -1;
    return route->metric;
  }

  static constexpr Address kX{net::kManetPrefix.value() + 50};
  static constexpr Address kA{net::kManetPrefix.value() + 60};
  static constexpr Address kB{net::kManetPrefix.value() + 70};
  static constexpr Address kT{net::kManetPrefix.value() + 80};
  const std::vector<olsr::Hello::LinkGroup> kListsN0AndT = {
      {olsr::LinkCode::kSym, {addr(0), kT}}};

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::unique_ptr<Olsr> daemon_;
  std::uint16_t seq_ = 0;
  std::vector<std::pair<TimePoint, olsr::Hello>> hellos_;
};

TEST_F(OlsrTcInput, OlderAnsnTcRefreshesAndLowersTheEdgesItNames) {
  run(seconds(1));
  tc(10, {addr(1), kA});
  run(seconds(10));
  ASSERT_EQ(metric(kA), 3);
  // RFC 3626 9.5 would discard this TC. The daemon instead refreshes the
  // edges it names and stamps them with the older ANSN.
  tc(9, {addr(1), kA});
  run(seconds(10));
  EXPECT_EQ(metric(kA), 3);  // 20 s after the first TC: refreshed
  // The A edge now carries ANSN 9, so a TC with ANSN 10 drops it.
  tc(10, {addr(1)});
  run(seconds(1));
  EXPECT_EQ(metric(kA), -1);
  EXPECT_EQ(metric(kX), 2);
}

TEST_F(OlsrTcInput, NewerAnsnEdgesSurviveAnOlderTc) {
  run(seconds(1));
  tc(10, {addr(1), kA});
  run(seconds(1));
  tc(9, {addr(1), kB});
  run(seconds(1));
  EXPECT_EQ(metric(kA), 3);  // ANSN 10 is newer than the TC's 9: kept
  EXPECT_EQ(metric(kB), 3);  // the older TC still adds its edges
  tc(11, {addr(1)});
  run(seconds(1));
  EXPECT_EQ(metric(kA), -1);
  EXPECT_EQ(metric(kB), -1);
  EXPECT_EQ(metric(kX), 2);
}

TEST_F(OlsrTcInput, RepeatedDestinationInOneTcIsOneEdge) {
  run(seconds(1));
  tc(10, {addr(1), kA, kA});
  run(seconds(1));
  ASSERT_EQ(metric(kA), 3);
  tc(9, {kA});  // lowers the A edge to ANSN 9
  run(seconds(1));
  tc(10, {addr(1)});
  run(seconds(1));
  // A second X->A edge would still carry ANSN 10 and keep the route.
  EXPECT_EQ(metric(kA), -1);
  EXPECT_EQ(metric(kX), 2);
}

TEST_F(OlsrTcInput, ExpiredEdgeRevivesBeforeHousekeepingPurgesIt) {
  // Housekeeping runs every 500 ms from start; the TC lands just after
  // t = 1 s, so its edges expire just after t = 16 s and survive in the
  // topology set, expired, until the purge at t = 16.5 s.
  run(seconds(1));
  tc(10, {addr(1), kA});
  run(seconds(15) + milliseconds(100));
  // A HELLO at 16.1 s triggers a recalculation that sees the edges
  // expired: the routes through X are gone.
  hello();
  sim_->run_for(milliseconds(50));
  ASSERT_EQ(metric(kA), -1);
  ASSERT_EQ(metric(kX), -1);
  // The same TC again at 16.15 s refreshes the expired, unpurged edges in
  // place; the recalculation it schedules must bring the routes back.
  tc(10, {addr(1), kA});
  sim_->run_for(milliseconds(100));
  EXPECT_EQ(metric(kA), 3);
  EXPECT_EQ(metric(kX), 2);
}

TEST_F(OlsrTcInput, DuplicateTcIsIgnoredForThirtySecondsThenProcessedAgain) {
  // n2 hears only n0 (141 m from n1), so it counts n0's TC forwards.
  int forwarded = 0;
  hosts_[2]->bind(net::kOlsrPort, [&](const net::Datagram& d,
                                      const net::RxInfo&) {
    const auto packet = olsr::decode(d.payload);
    ASSERT_TRUE(packet.has_value());
    for (const auto& m : packet->messages) {
      if (m.type == olsr::MsgType::kTc && m.originator == kX) ++forwarded;
    }
  });
  // n1 selects n0 as MPR, so n0 forwards the TCs n1 relays.
  const auto run_mpr = [&](Duration d) {
    const TimePoint end = sim_->now() + d;
    while (sim_->now() < end) {
      hello_from(1, {{olsr::LinkCode::kMpr, {addr(0)}}});
      sim_->run_for(std::min<Duration>(seconds(2), end - sim_->now()));
    }
  };
  const auto tc_500 = [&](std::uint16_t ansn, std::vector<Address> adv) {
    olsr::Message m = tc_message(ansn, std::move(adv));
    m.msg_seq = 500;
    send_as_is(std::move(m));
  };
  run_mpr(seconds(1));
  tc_500(10, {addr(1), kA});
  run_mpr(seconds(1));
  ASSERT_EQ(metric(kA), 3);
  ASSERT_EQ(forwarded, 1);
  // The same (originator, msg_seq) with other contents: a duplicate, so
  // neither processed (the newer ANSN would drop A and add B) nor forwarded.
  tc_500(11, {addr(1), kB});
  run_mpr(seconds(1));
  EXPECT_EQ(metric(kA), 3);
  EXPECT_EQ(metric(kB), -1);
  EXPECT_EQ(forwarded, 1);
  // 30 s after the first copy, plus a housekeeping pass, the pair is
  // forgotten: a restarted originator reusing its msg_seq is heard again.
  run_mpr(seconds(29) + milliseconds(600));
  ASSERT_EQ(metric(kA), -1);  // the edges expired after 15 s
  tc_500(11, {addr(1), kB});
  run_mpr(seconds(1));
  EXPECT_EQ(metric(kB), 3);
  EXPECT_EQ(forwarded, 2);
}

// A duplicate never extends the hold, unlike AODV's RREQ cache: a copy
// re-heard 20 s after the first is forgotten with the first, at the first
// housekeeping tick at or after 30 s.
TEST_F(OlsrTcInput, DuplicateHeardAgainDoesNotExtendTheThirtySecondHold) {
  const auto tc_500 = [&](std::uint16_t ansn, std::vector<Address> adv) {
    olsr::Message m = tc_message(ansn, std::move(adv));
    m.msg_seq = 500;
    send_as_is(std::move(m));
  };
  run(seconds(1));
  tc_500(10, {addr(1), kA});
  run(seconds(1));
  ASSERT_EQ(metric(kA), 3);
  run(seconds(19));
  tc_500(11, {addr(1), kB});  // 20 s after the first copy: a duplicate
  run(seconds(1));
  ASSERT_EQ(metric(kB), -1);
  run(seconds(9) + milliseconds(600));  // 30.6 s after the first copy
  tc_500(11, {addr(1), kB});
  run(seconds(1));
  EXPECT_EQ(metric(kB), 3);
}

// calculate_routes() only snapshots the inputs; the BFS runs on the first
// read. Here three recalculations pass unread, and the read comes after a
// TC changed the inputs but before its recalculation: it must answer from
// the last snapshot, not from the inputs as they stand.
TEST_F(OlsrTcInput, RouteReadAfterUnreadRecalculationsUsesTheLastSnapshot) {
  run(seconds(1));
  tc(10, {addr(1), kA});
  run(seconds(1));
  tc(11, {addr(1), kB});
  run(seconds(1));
  tc(12, {addr(1), kT});
  run(seconds(1));
  tc(13, {addr(1), kA});  // drops T, adds A back
  sim_->run_for(Olsr::kRouteRecalcDelay / 2);
  EXPECT_EQ(metric(kT), 3);
  EXPECT_EQ(metric(kA), -1);
  EXPECT_EQ(metric(kB), -1);
  sim_->run_for(Olsr::kRouteRecalcDelay);
  EXPECT_EQ(metric(kT), -1);
  EXPECT_EQ(metric(kA), 3);
}

// In the MPR tests, n1 and n2 both reach the fictitious two-hop node T;
// the greedy cover breaks the tie by address and picks n1. n0's HELLOs,
// captured on n2, show which set it advertises.

TEST_F(OlsrTcInput, HelloAfterHousekeepingDropsTheMprCarriesTheNewSet) {
  capture_hellos();
  const TimePoint t0 = sim_->now();
  // n1 is last heard just after t0 + 2 s, so its link expires just after
  // t0 + 8 s and the housekeeping tick at t0 + 8.5 s removes it. n2's
  // HELLO at t0 + 6 s is the last message before that, and n1 is still
  // symmetric then.
  for (int k = 0; k < 4; ++k) {
    if (k < 2) hello_from(1, kListsN0AndT);
    hello_from(2, kListsN0AndT);
    sim_->run_for(seconds(2));
  }
  const olsr::Hello before = last_hello_before(t0 + seconds(8));
  ASSERT_EQ(code_of(before, addr(1)), olsr::LinkCode::kMpr);
  ASSERT_EQ(code_of(before, addr(2)), olsr::LinkCode::kSym);
  // No message arrives after the removal; n2 stays symmetric until t0 +
  // 12 s, and n0 sends at least one HELLO before then.
  sim_->run_for(seconds(3));
  const olsr::Hello after = first_hello_after(t0 + milliseconds(8500));
  EXPECT_EQ(code_of(after, addr(1)), std::nullopt);
  EXPECT_EQ(code_of(after, addr(2)), olsr::LinkCode::kMpr);
}

TEST_F(OlsrTcInput, HelloCarriesTheMprSetOfTheLastInputChange) {
  capture_hellos();
  const TimePoint t0 = sim_->now();
  // n1 lists n0 for the last time just after t0 + 2 s, so it is symmetric
  // until just after t0 + 8 s; n2 until just after t0 + 12 s.
  hello_from(1, kListsN0AndT);
  hello_from(2, kListsN0AndT);
  sim_->run_for(seconds(2));
  hello_from(1, kListsN0AndT);
  hello_from(2, kListsN0AndT);
  sim_->run_for(seconds(4));
  hello_from(2, kListsN0AndT);
  sim_->run_for(seconds(1));
  // The last input change, at t0 + 7 s: n1 still reaches T but no longer
  // lists n0. n1 is symmetric for one more second, so the MPR set is {n1}.
  ASSERT_EQ(code_of(last_hello_before(t0 + seconds(7)), addr(1)),
            olsr::LinkCode::kMpr);
  hello_from(1, {{olsr::LinkCode::kSym, {kT}}});
  sim_->run_for(seconds(4));
  // n1's symmetry lapses before n0's next HELLO, with no message or
  // housekeeping removal in between. That HELLO still carries the set of
  // t0 + 7 s: n2 is not promoted to MPR until an input changes.
  const olsr::Hello after = first_hello_after(t0 + milliseconds(8100));
  EXPECT_EQ(code_of(after, addr(1)), olsr::LinkCode::kAsym);
  EXPECT_EQ(code_of(after, addr(2)), olsr::LinkCode::kSym);
}

// ---------------------------------------------------------------------------
// Golden route tables and MPR state under mobility
// ---------------------------------------------------------------------------

// Runs a 30-node mobile OLSR testbed for `length` and folds
// `sample(bed, i, fold)` for every host i every 10 ms of virtual time into
// one FNV-1a hash. Mobility makes symmetric links lapse and TC edges expire
// on their own clocks, between the messages that mutate OLSR state, so the
// hash changes if a computation is ever skipped, reordered or evaluated at
// the wrong time.
template <class Sample>
std::uint64_t mobile_trace(std::uint64_t seed, Duration length,
                           Sample sample) {
  scenario::Options o;
  o.seed = seed;
  o.nodes = 30;
  o.topology = scenario::Topology::kRandomArea;
  o.area = 450;
  o.routing = RoutingKind::kOlsr;
  o.mobile = true;
  o.waypoint = {.width = 450, .height = 450, .min_speed = 5, .max_speed = 20,
                .pause = seconds(1)};
  scenario::Testbed bed(o);
  bed.start();

  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const TimePoint end = bed.sim().now() + length;
  while (bed.sim().now() < end) {
    bed.sim().run_for(milliseconds(10));
    for (std::size_t i = 0; i < bed.size(); ++i) sample(bed, i, fold);
  }
  return h;
}

// Every host's route decision towards every node, as lookup_route makes
// it: whether a route exists, and its prefix length, next hop and metric.
std::uint64_t route_decision_trace(std::uint64_t seed, Duration length) {
  return mobile_trace(seed, length, [](scenario::Testbed& bed, std::size_t i,
                                       const auto& fold) {
    for (std::size_t j = 0; j < bed.size(); ++j) {
      const auto r = bed.host(i).lookup_route(bed.host(j).manet_address());
      fold(r ? 1 : 0);
      if (!r) continue;
      fold(static_cast<std::uint64_t>(r->prefix_len));
      fold(r->next_hop ? 0x100000000ull | r->next_hop->value() : 0);
      fold(static_cast<std::uint64_t>(r->metric));
    }
  });
}

// Every daemon's MPR set and MPR selector set, in address order. The
// selectors are the receiving side of the MPR link codes in neighbours'
// HELLOs, so they pin what each node advertised as well as what it computed.
std::uint64_t mpr_trace(std::uint64_t seed, Duration length) {
  return mobile_trace(seed, length, [](scenario::Testbed& bed, std::size_t i,
                                       const auto& fold) {
    auto& olsr = dynamic_cast<Olsr&>(bed.stack(i).routing());
    for (const auto* set : {&olsr.mpr_set(), &olsr.mpr_selectors()}) {
      fold(set->size());
      for (const Address a : *set) fold(a.value());
    }
  });
}

TEST(OlsrGolden, MobileRouteTablesMatchTheRecordedTrace) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {1, 0xfc4555c020d28710ull},
      {2, 0xb52ac2d0864f82f9ull},
      {3, 0x2fcfc45a9509d4c0ull},
      {4, 0x36e5fa073134d6faull},
  };
  for (const auto& [seed, expected] : golden) {
    const std::uint64_t got = route_decision_trace(seed, seconds(90));
    EXPECT_EQ(got, expected) << "seed " << seed << ": got 0x" << std::hex
                             << got;
  }
}

TEST(OlsrGolden, MobileMprStateMatchesTheRecordedTrace) {
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {1, 0x4927997f0b6afa5full},
      {2, 0x41e201ab96083bf1ull},
      {3, 0x979fe8a8f8a80852ull},
      {4, 0xdb82259701f033d4ull},
  };
  for (const auto& [seed, expected] : golden) {
    const std::uint64_t got = mpr_trace(seed, seconds(90));
    EXPECT_EQ(got, expected) << "seed " << seed << ": got 0x" << std::hex
                             << got;
  }
}

// A broadcast frame's CRC verdict is cached in its shared buffer
// (SharedBytes::verified_head). A corrupted delivery must still be
// rejected even when the clean frame was verified before it went out:
// the medium mangles a copy into a buffer of its own.
TEST(OlsrFrameCrc, CorruptedCopyOfAVerifiedFrameIsRejected) {
  sim::Simulator sim(5);
  net::RadioMedium medium(sim, net::RadioConfig{});
  std::vector<std::unique_ptr<net::Host>> hosts;
  const net::Position positions[] = {{0, 0}, {50, 0}, {0, 50}};
  for (std::size_t i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<net::Host>(
        sim, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
    hosts.back()->attach_radio(
        medium, Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
        std::make_shared<net::StaticMobility>(positions[i]));
  }
  // n0 only transmits; its two neighbors run OLSR.
  Olsr n1(*hosts[1]);
  Olsr n2(*hosts[2]);
  n1.start();
  n2.start();

  olsr::Message tc;
  tc.type = olsr::MsgType::kTc;
  tc.originator = Address(10, 0, 0, 1);
  tc.ttl = 255;
  tc.msg_seq = 1;
  tc.tc.advertised = {Address(10, 0, 0, 2), Address(10, 0, 0, 3)};
  olsr::Packet p;
  p.messages.push_back(tc);
  net::Datagram d;
  d.src = Address(10, 0, 0, 1);
  d.dst = net::kBroadcastAddress;
  d.src_port = net::kOlsrPort;
  d.dst_port = net::kOlsrPort;
  d.ttl = 1;
  d.payload = olsr::encode(p);
  ASSERT_TRUE(d.payload.verified_head());  // the clean buffer is cached valid

  net::FaultKnobs knobs;
  knobs.corrupt_probability = 1.0;
  medium.set_fault_knobs(knobs);
  medium.transmit(net::Frame{0, net::kBroadcastMac, d});
  // Both receptions are due long before the first HELLO (200 ms).
  sim.run_for(milliseconds(50));

  const auto& metrics = sim.ctx().metrics();
  EXPECT_EQ(medium.stats().frames_corrupted, 2u);
  EXPECT_EQ(metrics.counter_total("routing.decode_errors_total"), 2u);
  EXPECT_EQ(metrics.counter_total("chaos.corrupt_accepted_total"), 0u);
  EXPECT_TRUE(d.payload.verified_head());
}

}  // namespace
}  // namespace siphoc::routing
