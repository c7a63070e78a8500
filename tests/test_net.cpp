// Unit tests: addressing, packets, radio medium, mobility, host stack.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <tuple>

#include "net/host.hpp"
#include "net/internet.hpp"

namespace siphoc::net {
namespace {

TEST(AddressTest, ParseAndFormat) {
  const auto a = Address::parse("10.0.0.5");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "10.0.0.5");
  EXPECT_EQ(a->value(), 0x0a000005u);
  EXPECT_FALSE(Address::parse("10.0.0"));
  EXPECT_FALSE(Address::parse("10.0.0.256"));
  EXPECT_FALSE(Address::parse("10.0.0.x"));
  EXPECT_FALSE(Address::parse(""));
}

TEST(AddressTest, Predicates) {
  EXPECT_TRUE(kBroadcastAddress.is_broadcast());
  EXPECT_TRUE(kLoopbackAddress.is_loopback());
  EXPECT_TRUE(Address{}.is_unspecified());
  EXPECT_TRUE(Address(10, 0, 0, 7).in_prefix(kManetPrefix, kManetPrefixLen));
  EXPECT_FALSE(
      Address(10, 8, 0, 7).in_prefix(kManetPrefix, kManetPrefixLen));
  EXPECT_TRUE(Address(10, 8, 0, 7).in_prefix(kTunnelPrefix, kTunnelPrefixLen));
  EXPECT_TRUE(Address(1, 2, 3, 4).in_prefix(Address{}, 0));
}

TEST(EndpointTest, ParseAndFormat) {
  const auto e = Endpoint::parse("192.0.2.10:5060");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->address, Address(192, 0, 2, 10));
  EXPECT_EQ(e->port, 5060);
  EXPECT_EQ(e->to_string(), "192.0.2.10:5060");
  EXPECT_FALSE(Endpoint::parse("192.0.2.10"));
  EXPECT_FALSE(Endpoint::parse("192.0.2.10:99999"));
}

TEST(DatagramTest, EncodeDecodeRoundTrip) {
  Datagram d;
  d.src = Address(10, 0, 0, 1);
  d.dst = Address(10, 0, 0, 2);
  d.src_port = 5060;
  d.dst_port = 8000;
  d.ttl = 7;
  d.payload = {1, 2, 3, 4, 5};
  const auto decoded = Datagram::decode(d.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->src, d.src);
  EXPECT_EQ(decoded->dst, d.dst);
  EXPECT_EQ(decoded->src_port, d.src_port);
  EXPECT_EQ(decoded->dst_port, d.dst_port);
  EXPECT_EQ(decoded->ttl, d.ttl);
  EXPECT_EQ(decoded->payload, d.payload);
}

TEST(DatagramTest, DecodeTruncatedFails) {
  Datagram d;
  d.payload = {1, 2, 3};
  auto wire = d.encode();
  wire.pop_back();
  EXPECT_FALSE(Datagram::decode(wire));
}

TEST(MobilityTest, StaticStaysPut) {
  StaticMobility m({3, 4});
  EXPECT_DOUBLE_EQ(m.position_at(TimePoint{} + seconds(100)).x, 3);
}

TEST(MobilityTest, RandomWaypointStaysInArea) {
  RandomWaypointConfig config;
  config.width = 100;
  config.height = 50;
  RandomWaypointMobility m({10, 10}, config, Rng(5));
  for (int i = 0; i < 500; ++i) {
    const auto p = m.position_at(TimePoint{} + seconds(i));
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 100);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 50);
  }
}

TEST(MobilityTest, RandomWaypointActuallyMoves) {
  RandomWaypointConfig config;
  RandomWaypointMobility m({0, 0}, config, Rng(5));
  const auto p0 = m.position_at(TimePoint{} + seconds(10));
  const auto p1 = m.position_at(TimePoint{} + seconds(60));
  EXPECT_GT(distance(p0, p1), 0.0);
}

TEST(MobilityTest, TopologyHelpers) {
  const auto chain = chain_positions(4, 50);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_DOUBLE_EQ(chain[3].x, 150);
  const auto grid = grid_positions(9, 10);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_DOUBLE_EQ(grid[4].x, 10);
  EXPECT_DOUBLE_EQ(grid[4].y, 10);
}

// --- medium + host fixtures ------------------------------------------------

class TwoNodeFixture : public ::testing::Test {
 protected:
  TwoNodeFixture()
      : sim_(1), medium_(sim_, RadioConfig{}),
        a_(sim_, 0, "a"), b_(sim_, 1, "b") {
    a_.attach_radio(medium_, Address(10, 0, 0, 1),
                    std::make_shared<StaticMobility>(Position{0, 0}));
    b_.attach_radio(medium_, Address(10, 0, 0, 2),
                    std::make_shared<StaticMobility>(Position{50, 0}));
  }
  sim::Simulator sim_;
  RadioMedium medium_;
  Host a_, b_;
};

TEST_F(TwoNodeFixture, UnicastInRangeDelivers) {
  std::string got;
  b_.bind(9000, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kRadio);
    EXPECT_EQ(info.prev_hop_mac, 0u);
  });
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("hi"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, "hi");
  EXPECT_EQ(medium_.stats().frames_delivered, 1u);
}

TEST_F(TwoNodeFixture, SecondBindOnABoundPortIsRefused) {
  int first = 0;
  int second = 0;
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++first; });
  EXPECT_THROW(
      b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++second; }),
      std::logic_error);
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  // Once unbound, the port takes a new owner.
  b_.unbind(9000);
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++second; });
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST_F(TwoNodeFixture, BroadcastReachesNeighbors) {
  int got = 0;
  b_.bind(9000, [&](const Datagram& d, const RxInfo&) {
    EXPECT_TRUE(d.dst.is_broadcast());
    ++got;
  });
  a_.send_broadcast(9000, 9000, to_bytes("hello"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 1);
}

TEST_F(TwoNodeFixture, OutOfRangeNotDelivered) {
  // Move b beyond the 120 m default range.
  b_.attach_radio(medium_, Address(10, 0, 0, 2),
                  std::make_shared<StaticMobility>(Position{500, 0}));
  int got = 0;
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  a_.send_broadcast(9000, 9000, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 0);
}

TEST_F(TwoNodeFixture, UnicastFailureFeedback) {
  int failures = 0;
  a_.set_link_failure_listener([&](const Frame&) { ++failures; });
  // No route entry needed: on-link /24. Send to a host that is not there.
  a_.send_udp(9000, {Address(10, 0, 0, 99), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  // Unresolvable ARP -> drop, not link failure; now use an out-of-range mac:
  b_.attach_radio(medium_, Address(10, 0, 0, 2),
                  std::make_shared<StaticMobility>(Position{500, 0}));
  a_.send_udp(9000, {Address(10, 0, 0, 2), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(medium_.stats().unicast_unreachable, 1u);
}

TEST_F(TwoNodeFixture, LinkFilterForcesMultihop) {
  // The paper's firewall trick: forbid the direct a<->b link.
  medium_.set_link_filter([](NodeId x, NodeId y) {
    return !((x == 0 && y == 1) || (x == 1 && y == 0));
  });
  int got = 0;
  b_.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  a_.send_broadcast(9000, 9000, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(got, 0);
  EXPECT_FALSE(medium_.connected(0, 1));
}

TEST_F(TwoNodeFixture, LoopbackDelivery) {
  std::string got;
  a_.bind(5060, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kLoopback);
  });
  a_.send_udp(5070, {kLoopbackAddress, 5060}, to_bytes("local"));
  sim_.run_for(milliseconds(1));
  EXPECT_EQ(got, "local");
}

TEST_F(TwoNodeFixture, LossyMediumDropsSometimes) {
  sim::Simulator sim2(7);
  RadioConfig lossy;
  lossy.loss_probability = 0.5;
  RadioMedium medium2(sim2, lossy);
  Host x(sim2, 0, "x"), y(sim2, 1, "y");
  x.attach_radio(medium2, Address(10, 0, 0, 1),
                 std::make_shared<StaticMobility>(Position{0, 0}));
  y.attach_radio(medium2, Address(10, 0, 0, 2),
                 std::make_shared<StaticMobility>(Position{10, 0}));
  int got = 0;
  y.bind(9000, [&](const Datagram&, const RxInfo&) { ++got; });
  for (int i = 0; i < 200; ++i) {
    x.send_broadcast(9000, 9000, to_bytes("x"));
    sim2.run_for(milliseconds(5));
  }
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
}

// stats() is a snapshot: one held across a transmission keeps the counts
// it was taken with, so a caller can diff two of them.
TEST(RadioMediumTest, StatsSnapshotsOutliveLaterCalls) {
  sim::Simulator sim(1);
  RadioMedium medium(sim, RadioConfig{});
  Host a(sim, 0, "a");
  a.attach_radio(medium, Address(10, 0, 0, 1),
                 std::make_shared<StaticMobility>(Position{0, 0}));
  const MediumStats& before = medium.stats();
  a.send_broadcast(9000, 9000, to_bytes("x"));
  const MediumStats& after = medium.stats();
  EXPECT_EQ(after.frames_sent - before.frames_sent, 1u);
}

// The spatial grid in RadioMedium is an exactness-preserving index: for any
// mix of fixed and mobile nodes, disabled radios, detachments, and a fixed
// radio swapped for another at a new position, the broadcast delivery set
// must equal what a brute-force all-pairs range scan computes. Loss is
// disabled so delivery is deterministic.
TEST(RadioMediumTest, GridMatchesBruteForceDeliverySets) {
  sim::Simulator sim(3);
  RadioConfig config;
  config.loss_probability = 0;
  RadioMedium medium(sim, config);

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> coord(0.0, 600.0);

  constexpr int kNodes = 40;
  constexpr int kDisabled = 5;
  constexpr int kDetached = 7;
  constexpr int kSwappedOut = 8;  // fixed (even index)
  constexpr int kSwappedIn = kNodes;  // attached in its place
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::shared_ptr<MobilityModel>> mobility;
  std::vector<int> received(kNodes + 1, 0);
  std::vector<bool> up(kNodes + 1, true);  // attached and enabled
  const auto add_host = [&](int i, std::shared_ptr<MobilityModel> m) {
    hosts.push_back(std::make_unique<Host>(sim, i, "n" + std::to_string(i)));
    mobility.push_back(m);
    hosts[i]->attach_radio(medium, Address(10, 0, 0, i + 1), m);
    hosts[i]->bind(9000, [&received, i](const Datagram&, const RxInfo&) {
      ++received[i];
    });
  };
  for (int i = 0; i < kNodes; ++i) {
    std::shared_ptr<MobilityModel> m;
    if (i % 2 == 0) {
      m = std::make_shared<StaticMobility>(Position{coord(rng), coord(rng)});
    } else {
      RandomWaypointConfig rw;
      rw.width = 600;
      rw.height = 600;
      m = std::make_shared<RandomWaypointMobility>(
          Position{coord(rng), coord(rng)}, rw, Rng(1000 + i));
    }
    add_host(i, m);
  }
  up[kSwappedIn] = false;
  medium.set_enabled(kDisabled, false);
  up[kDisabled] = false;

  // Broadcasts from `s` and compares every receiver with the brute-force
  // expectation from positions at transmit time (transmit is synchronous
  // inside send_broadcast, so these are the exact positions the medium
  // sees).
  const auto check_broadcast = [&](int s, const std::string& when) {
    const int n = static_cast<int>(hosts.size());
    std::vector<Position> pos(n);
    for (int i = 0; i < n; ++i) pos[i] = mobility[i]->position_at(sim.now());
    std::vector<int> expected(n, 0);
    if (up[s]) {
      for (int i = 0; i < n; ++i) {
        if (i == s || !up[i]) continue;
        if (distance(pos[s], pos[i]) <= kRadioRange) expected[i] = 1;
      }
    }
    const std::vector<int> before = received;
    hosts[s]->send_broadcast(9000, 9000, to_bytes("probe"));
    sim.run_for(milliseconds(20));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(received[i] - before[i], expected[i])
          << when << " sender " << s << " receiver " << i;
    }
  };

  for (int round = 0; round < 20; ++round) {
    if (round == 10) {
      medium.detach(kDetached);
      up[kDetached] = false;
    }
    check_broadcast(round % kNodes, "round " + std::to_string(round));
    // Let the mobile half wander between rounds.
    sim.run_for(seconds(5));
  }

  // Swap a fixed radio for a new fixed one with no transmission in
  // between: the radio count is unchanged, but radio indices shift and
  // the new radio's neighbours change, so every cached candidate list
  // must be rebuilt. The new radio lands 30 m from the fixed radio
  // farthest from the old one.
  const auto fixed_pos = [&](int i) {
    return mobility[i]->position_at(sim.now());
  };
  const Position old_pos = fixed_pos(kSwappedOut);
  int anchor = 0;
  for (int i = 0; i < kNodes; i += 2) {
    if (distance(fixed_pos(i), old_pos) > distance(fixed_pos(anchor), old_pos))
      anchor = i;
  }
  const Position new_pos{fixed_pos(anchor).x + 30, fixed_pos(anchor).y};
  medium.detach(kSwappedOut);
  up[kSwappedOut] = false;
  add_host(kSwappedIn, std::make_shared<StaticMobility>(new_pos));
  up[kSwappedIn] = true;
  // Fixed senders next to both positions, then everyone.
  int near_old = -1;
  for (int i = 0; i < kNodes; i += 2) {
    if (i == kSwappedOut || i == kDisabled) continue;
    if (distance(fixed_pos(i), old_pos) <= kRadioRange) near_old = i;
  }
  ASSERT_NE(near_old, -1) << "no fixed radio next to the swapped-out one";
  const int swapped_in_before = received[kSwappedIn];
  check_broadcast(near_old, "after the swap, next to the old position:");
  check_broadcast(anchor, "after the swap, next to the new position:");
  EXPECT_EQ(received[kSwappedIn], swapped_in_before + 1);
  for (int s = 0; s <= kNodes; ++s) {
    check_broadcast(s, "after the swap:");
  }

  // Guard against a vacuous pass: the topology must produce deliveries.
  int total = 0;
  for (int i = 0; i <= kNodes; ++i) total += received[i];
  EXPECT_GT(total, 0);
  EXPECT_GT(medium.stats().frames_delivered, 0u);
}

// The range test must agree with distance() to the last bit. Both pairs sit
// within a few ulp of the default 120 m range, where comparing the squared
// distance with range * range disagrees with hypot: for the first pair it
// says out of range, for the second in range.
TEST(RadioMediumTest, RangeBoundaryFollowsDistance) {
  const RadioConfig config;
  const std::pair<Position, Position> pairs[] = {
      {{717.90568464900343, 755.7450347400968},
       {619.16258599525827, 687.55558930858774}},
      {{961.58616225712854, 199.76848365186396},
       {1062.4048287275682, 264.84994407741254}},
  };
  ASSERT_LE(distance(pairs[0].first, pairs[0].second), kRadioRange);
  ASSERT_GT(distance(pairs[1].first, pairs[1].second), kRadioRange);
  for (const auto& [pa, pb] : pairs) {
    sim::Simulator sim(1);
    RadioMedium medium(sim, config);
    Host a(sim, 0, "a"), b(sim, 1, "b");
    a.attach_radio(medium, Address(10, 0, 0, 1),
                   std::make_shared<StaticMobility>(pa));
    b.attach_radio(medium, Address(10, 0, 0, 2),
                   std::make_shared<StaticMobility>(pb));
    int got_a = 0;
    int got_b = 0;
    a.bind(9000, [&](const Datagram&, const RxInfo&) { ++got_a; });
    b.bind(9000, [&](const Datagram&, const RxInfo&) { ++got_b; });
    a.send_broadcast(9000, 9000, to_bytes("a"));
    b.send_broadcast(9000, 9000, to_bytes("b"));
    sim.run_for(milliseconds(10));
    const int expected = distance(pa, pb) <= kRadioRange ? 1 : 0;
    EXPECT_EQ(got_b, expected);
    EXPECT_EQ(got_a, expected);
  }
}

// Radios attached straight to the medium at fixed positions along the x
// axis; `deliver` and `unicast_failed` come from the caller.
void attach_fixed(RadioMedium& medium, NodeId mac, double x,
                  std::function<void(const Frame&)> deliver,
                  std::function<void(const Frame&)> unicast_failed = {}) {
  RadioAttachment att;
  att.mac = mac;
  att.address = Address(10, 0, 0, static_cast<std::uint8_t>(mac + 1));
  att.position = [x] { return Position{x, 0}; };
  att.deliver = std::move(deliver);
  att.unicast_failed = std::move(unicast_failed);
  att.fixed_position = true;
  medium.attach(std::move(att));
}

// A frame's on-time receptions on one lane run as one kernel event, but
// events_executed() still counts one per reception: `sim.events`, the
// perfbench digests and the BENCH event counts depend on it. Checked on
// the sequential kernel and on both executors of a 2-region sharded one:
// a concurrent window, and windows serialized by scenario-lane events.
TEST(RadioMediumTest, BroadcastCountsOneEventPerReception) {
  constexpr NodeId kReceivers = 5;
  enum class Mode { kSequential, kConcurrent, kSerial };
  for (const Mode mode :
       {Mode::kSequential, Mode::kConcurrent, Mode::kSerial}) {
    sim::Simulator sim(1);
    const bool sharded = mode != Mode::kSequential;
    if (sharded) {
      sim.enable_parallelism({.regions = 2, .lookahead = microseconds(500)});
    }
    RadioMedium medium(sim, RadioConfig{});
    // Even MACs (the sender among them) on lane 1, odd ones on lane 2.
    if (sharded) medium.configure_lanes([](NodeId mac) { return 1 + mac % 2; });
    int received = 0;
    for (NodeId mac = 0; mac <= kReceivers; ++mac) {
      attach_fixed(medium, mac, 10.0 * mac,
                   [&received](const Frame&) { ++received; });
    }
    std::uint64_t scheduled = 1;
    {
      const sim::Simulator::LaneScope scope(sim, sharded ? 1 : 0);
      sim.schedule(milliseconds(1), [&medium] {
        medium.transmit(Frame{0, kBroadcastMac, Datagram{}});
      });
    }
    if (mode == Mode::kSerial) {
      // Lane-0 events in the windows of the transmit and of the receptions
      // (due ~545 us later) make both windows run serially.
      sim.schedule(milliseconds(1), [] {});
      sim.schedule(microseconds(1500), [] {});
      scheduled += 2;
    }
    sim.run_for(milliseconds(10));
    EXPECT_EQ(received, static_cast<int>(kReceivers));
    EXPECT_EQ(sim.events_executed(), scheduled + kReceivers)
        << "mode " << static_cast<int>(mode);
  }
}

// Fault-injected receptions keep their exact order and timing: with
// corruption, duplication and reordering all on, the (virtual us,
// receiver, corrupted) sequence equals the one recorded when every
// reception was an event of its own. The first frames reorder by under
// 3 us, so some reordered copies truncate to 0 us and stay with their
// frame's on-time receptions; the later ones reorder by up to 2 ms, past
// the next frames. Receiver 1 schedules a zero-delay follow-up (logged as
// 100) that must run after its frame's other on-time receptions. The
// unicasts go to an in-range radio, an out-of-range one and an unknown
// MAC; the sender's failure notices are logged as 200.
TEST(RadioMediumTest, FaultInjectedReceptionsMatchTheGolden) {
  sim::Simulator sim(5);
  RadioMedium medium(sim, RadioConfig{});
  FaultKnobs knobs;
  knobs.corrupt_probability = 0.3;
  knobs.duplicate_probability = 0.3;
  knobs.reorder_probability = 0.4;
  knobs.reorder_delay = microseconds(3);
  medium.set_fault_knobs(knobs);
  std::vector<std::tuple<std::int64_t, int, bool>> log;
  const auto record = [&](int who, bool corrupted) {
    log.emplace_back(sim.now().time_since_epoch().count(), who, corrupted);
  };
  constexpr NodeId kFar = 5;
  for (NodeId mac = 0; mac <= kFar; ++mac) {
    attach_fixed(
        medium, mac, mac == kFar ? 500.0 : 20.0 * mac,
        [&, mac](const Frame& f) {
          record(static_cast<int>(mac), f.datagram.corrupted);
          if (mac == 1) {
            sim.schedule(Duration::zero(), [&] { record(100, false); });
          }
        },
        [&](const Frame&) { record(200, false); });
  }
  const auto send = [&](TimePoint at, NodeId dst) {
    sim.schedule_at(at, [&medium, dst] {
      Frame frame{0, dst, Datagram{}};
      frame.datagram.payload = to_bytes("payload");
      medium.transmit(frame);
    });
  };
  for (int k = 0; k < 4; ++k) {
    send(TimePoint{} + milliseconds(k), kBroadcastMac);
  }
  sim.run_for(milliseconds(10));
  knobs.reorder_delay = milliseconds(2);
  medium.set_fault_knobs(knobs);
  for (int k = 0; k < 4; ++k) {
    send(sim.now() + microseconds(700 * k), kBroadcastMac);
  }
  send(sim.now() + milliseconds(4), 3);
  send(sim.now() + milliseconds(5), kFar);
  send(sim.now() + milliseconds(6), 42);
  sim.run_for(milliseconds(20));

  const std::vector<std::tuple<std::int64_t, int, bool>> golden = {
      {550, 2, true}, {550, 4, false}, {551, 3, true},
      {552, 1, false}, {552, 100, false}, {1050, 4, false},
      {1052, 1, false}, {1052, 100, false}, {1550, 1, false},
      {1550, 2, true}, {1550, 4, false}, {1550, 100, false},
      {1552, 3, false}, {2550, 2, false}, {2550, 1, false},
      {2550, 2, false}, {2550, 3, true}, {2550, 100, false},
      {2552, 4, false}, {3052, 3, false}, {3550, 1, false},
      {3550, 2, false}, {3550, 1, false}, {3550, 2, true},
      {3550, 4, false}, {3550, 100, false}, {3550, 100, false},
      {3551, 3, false}, {4050, 2, false}, {4051, 3, false},
      {4550, 4, false}, {10550, 2, false}, {10550, 3, false},
      {10550, 4, true}, {11250, 1, false}, {11250, 2, false},
      {11250, 3, false}, {11250, 100, false}, {11715, 1, true},
      {11715, 100, false}, {11950, 1, true}, {11950, 100, false},
      {12250, 1, false}, {12250, 100, false}, {12602, 4, false},
      {12650, 1, false}, {12650, 4, false}, {12650, 100, false},
      {12933, 4, true}, {12982, 3, true}, {13433, 4, false},
      {13708, 2, true}, {13775, 2, false}, {13845, 3, false},
      {14550, 3, true}, {15550, 3, false}, {15550, 200, false},
      {16550, 200, false},
  };
  EXPECT_EQ(log, golden);
  const MediumStats& st = medium.stats();
  EXPECT_GT(st.frames_corrupted, 0u);
  EXPECT_GT(st.frames_duplicated, 0u);
  EXPECT_GT(st.frames_reordered, 0u);
}

TEST_F(TwoNodeFixture, ForwardingDecrementsTtl) {
  // Three hosts in a chain with explicit routes: a -> b -> c.
  Host c(sim_, 2, "c");
  c.attach_radio(medium_, Address(10, 0, 0, 3),
                 std::make_shared<StaticMobility>(Position{100, 0}));
  a_.add_route({Address(10, 0, 0, 3), 32, Address(10, 0, 0, 2),
                Interface::kRadio, 2});
  std::uint8_t seen_ttl = 0;
  c.bind(9000, [&](const Datagram& d, const RxInfo&) { seen_ttl = d.ttl; });
  a_.send_udp(9000, {Address(10, 0, 0, 3), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(10));
  EXPECT_EQ(seen_ttl, kDefaultTtl - 1);
  EXPECT_EQ(b_.stats().forwarded, 1u);
}

TEST_F(TwoNodeFixture, LongestPrefixMatchWins) {
  a_.add_route({Address(10, 0, 0, 0), 24, std::nullopt, Interface::kRadio, 5});
  a_.add_route({Address(10, 0, 0, 2), 32, Address(10, 0, 0, 2),
                Interface::kRadio, 9});
  const auto r = a_.lookup_route(Address(10, 0, 0, 2));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->prefix_len, 32);
}

// A route source (the running MANET daemon) answers first. A MANET
// address it has no route to has none, whatever the on-link /24 says;
// any other address falls back to the static routes.
TEST_F(TwoNodeFixture, RouteSourceOwnsTheManetSubnet) {
  a_.add_route({kInternetPrefix, kInternetPrefixLen, std::nullopt,
                Interface::kWired, 1});
  a_.set_route_source([](Address dst) -> std::optional<RouteEntry> {
    if (dst != Address(10, 0, 0, 3)) return std::nullopt;
    return RouteEntry{dst, 32, Address(10, 0, 0, 2), Interface::kRadio, 2};
  });
  const auto sourced = a_.lookup_route(Address(10, 0, 0, 3));
  ASSERT_TRUE(sourced);
  EXPECT_EQ(sourced->next_hop, Address(10, 0, 0, 2));
  EXPECT_EQ(sourced->metric, 2);
  EXPECT_FALSE(a_.lookup_route(Address(10, 0, 0, 2)));
  const auto internet = a_.lookup_route(Address(192, 0, 2, 7));
  ASSERT_TRUE(internet);
  EXPECT_EQ(internet->iface, Interface::kWired);

  a_.set_route_source(nullptr);
  const auto on_link = a_.lookup_route(Address(10, 0, 0, 2));
  ASSERT_TRUE(on_link);
  EXPECT_EQ(on_link->prefix_len, kManetPrefixLen);
  EXPECT_FALSE(on_link->next_hop);
}

TEST_F(TwoNodeFixture, RouteResolverClaimsUnroutable) {
  int claimed = 0;
  a_.set_route_resolver([&](Datagram) {
    ++claimed;
    return true;
  });
  a_.send_udp(9000, {Address(172, 16, 0, 1), 9000}, to_bytes("x"));
  sim_.run_for(milliseconds(1));
  EXPECT_EQ(claimed, 1);
  EXPECT_EQ(a_.stats().no_route_drops, 0u);
}

TEST(InternetTest, DeliversByAddressWithLatency) {
  sim::Simulator sim;
  Internet internet(sim, milliseconds(30));
  Datagram got;
  int count = 0;
  internet.attach(Address(192, 0, 2, 1), [&](const Datagram& d) {
    got = d;
    ++count;
  });
  Datagram d;
  d.src = Address(192, 0, 2, 2);
  d.dst = Address(192, 0, 2, 1);
  d.payload = to_bytes("web");
  internet.send(d);
  sim.run_for(milliseconds(10));
  EXPECT_EQ(count, 0);  // still in flight
  sim.run_for(milliseconds(25));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(to_string(got.payload), "web");
}

TEST(InternetTest, UnknownAddressDropped) {
  sim::Simulator sim;
  Internet internet(sim);
  Datagram d;
  d.dst = Address(192, 0, 2, 99);
  internet.send(d);
  sim.run_to_completion();
  EXPECT_EQ(internet.datagrams_dropped(), 1u);
}

TEST(InternetTest, DnsResolution) {
  sim::Simulator sim;
  Internet internet(sim);
  internet.register_domain("voicehoc.ch", Address(192, 0, 2, 10));
  const auto a = internet.resolve("voicehoc.ch");
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, Address(192, 0, 2, 10));
  EXPECT_FALSE(internet.resolve("unknown.example"));
}

TEST(InternetTest, WiredHostSendsAndReceives) {
  sim::Simulator sim;
  Internet internet(sim);
  Host a(sim, 0, "a"), b(sim, 1, "b");
  a.attach_wired(internet, Address(192, 0, 2, 1));
  b.attach_wired(internet, Address(192, 0, 2, 2));
  std::string got;
  b.bind(5060, [&](const Datagram& d, const RxInfo& info) {
    got = to_string(d.payload);
    EXPECT_EQ(info.iface, Interface::kWired);
  });
  a.send_udp(5060, {Address(192, 0, 2, 2), 5060}, to_bytes("sip"));
  sim.run_for(milliseconds(100));
  EXPECT_EQ(got, "sip");
}

}  // namespace
}  // namespace siphoc::net
