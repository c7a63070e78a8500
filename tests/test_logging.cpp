// Tests: logging plumbing and host stack edge cases not covered elsewhere.
#include <gtest/gtest.h>

#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace siphoc {
namespace {

class LogCapture {
 public:
  explicit LogCapture(Logging& log) : log_(log) {
    log_.set_sink([this](const LogRecord& rec) { records.push_back(rec); });
    log_.set_level(LogLevel::kDebug);
  }
  ~LogCapture() {
    log_.set_sink(nullptr);
    log_.set_level(LogLevel::kOff);
  }
  std::vector<LogRecord> records;

 private:
  Logging& log_;
};

TEST(LoggingTest, RecordsCarryComponentNodeAndTime) {
  sim::Simulator sim;  // registers the time source on its context's log
  LogCapture capture(sim.ctx().log());
  Logger log(sim.ctx().log(), "proxy", "n3");
  sim.run_for(seconds(2));
  log.info("hello ", 42, " world");
  ASSERT_EQ(capture.records.size(), 1u);
  const auto& rec = capture.records.front();
  EXPECT_EQ(rec.component, "proxy");
  EXPECT_EQ(rec.node, "n3");
  EXPECT_EQ(rec.message, "hello 42 world");
  EXPECT_EQ(rec.level, LogLevel::kInfo);
  EXPECT_EQ(rec.time, TimePoint{} + seconds(2));
}

TEST(LoggingTest, LevelFiltering) {
  Logging logging;
  LogCapture capture(logging);
  logging.set_level(LogLevel::kWarn);
  Logger log(logging, "test");
  log.debug("dropped");
  log.info("dropped");
  log.warn("kept");
  log.error("kept");
  EXPECT_EQ(capture.records.size(), 2u);
}

TEST(LoggingTest, OffLevelMeansNoSinkCalls) {
  Logging logging;
  LogCapture capture(logging);
  logging.set_level(LogLevel::kOff);
  Logger log(logging, "test");
  log.error("still dropped");
  EXPECT_TRUE(capture.records.empty());
}

TEST(LoggingTest, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::kTrace), "trace");
  EXPECT_EQ(to_string(LogLevel::kError), "error");
  EXPECT_EQ(to_string(LogLevel::kOff), "off");
}

TEST(HostEdgeTest, InjectRespectsTtl) {
  sim::Simulator sim;
  net::Host host(sim, 0, "h");
  net::Datagram d;
  d.dst = net::Address(10, 0, 0, 99);  // not ours: would forward
  d.ttl = 1;
  host.inject(d, net::Interface::kTunnel);
  EXPECT_EQ(host.stats().ttl_drops, 1u);
  EXPECT_EQ(host.stats().forwarded, 0u);
}

TEST(HostEdgeTest, NoListenerCountsDrop) {
  sim::Simulator sim;
  net::Host host(sim, 0, "h");
  host.send_udp(1000, {net::kLoopbackAddress, 2000}, to_bytes("x"));
  sim.run_for(milliseconds(1));
  EXPECT_EQ(host.stats().no_listener_drops, 1u);
  EXPECT_EQ(host.stats().udp_delivered, 0u);
}

TEST(HostEdgeTest, UnbindStopsDelivery) {
  sim::Simulator sim;
  net::Host host(sim, 0, "h");
  int got = 0;
  host.bind(1000, [&](const net::Datagram&, const net::RxInfo&) { ++got; });
  host.send_udp(999, {net::kLoopbackAddress, 1000}, to_bytes("a"));
  sim.run_for(milliseconds(1));
  host.unbind(1000);
  host.send_udp(999, {net::kLoopbackAddress, 1000}, to_bytes("b"));
  sim.run_for(milliseconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(host.bound(1000) == false);
}

TEST(HostEdgeTest, OwnsAddressAcrossInterfaces) {
  sim::Simulator sim;
  net::Internet internet(sim);
  net::RadioMedium medium(sim, net::RadioConfig{});
  net::Host host(sim, 0, "h");
  host.attach_radio(medium, net::Address(10, 0, 0, 1),
                    std::make_shared<net::StaticMobility>(net::Position{}));
  host.attach_wired(internet, net::Address(192, 0, 2, 5));
  host.attach_tunnel(net::Address(10, 8, 0, 1), [](net::Datagram) {});
  EXPECT_TRUE(host.owns_address(net::Address(10, 0, 0, 1)));
  EXPECT_TRUE(host.owns_address(net::Address(192, 0, 2, 5)));
  EXPECT_TRUE(host.owns_address(net::Address(10, 8, 0, 1)));
  EXPECT_TRUE(host.owns_address(net::kLoopbackAddress));
  EXPECT_FALSE(host.owns_address(net::Address(10, 0, 0, 2)));
  host.detach_tunnel();
  EXPECT_FALSE(host.owns_address(net::Address(10, 8, 0, 1)));
}

TEST(HostEdgeTest, RouteReplacementNotDuplication) {
  sim::Simulator sim;
  net::Host host(sim, 0, "h");
  const std::size_t before = host.routes().size();
  host.add_route({net::Address(10, 0, 0, 9), 32, net::Address(10, 0, 0, 2),
                  net::Interface::kRadio, 2});
  host.add_route({net::Address(10, 0, 0, 9), 32, net::Address(10, 0, 0, 3),
                  net::Interface::kRadio, 1});
  EXPECT_EQ(host.routes().size(), before + 1);
  const auto r = host.lookup_route(net::Address(10, 0, 0, 9));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->next_hop, net::Address(10, 0, 0, 3));
}

}  // namespace
}  // namespace siphoc
