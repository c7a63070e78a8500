// Tests: layer-2 tunnel (client/server), gateway provider, connection
// provider -- including failure detection and gateway failover.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "routing/aodv.hpp"
#include "siphoc/connection_provider.hpp"
#include "siphoc/gateway_provider.hpp"
#include "slp/manet_slp.hpp"

namespace siphoc {
namespace {

using net::Address;

class TunnelFixture : public ::testing::Test {
 protected:
  /// Chain of n MANET nodes with full stacks; node 0 optionally wired.
  void build(std::size_t n, bool gateway_at_0 = true) {
    sim_ = std::make_unique<sim::Simulator>(13);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    internet_ = std::make_unique<net::Internet>(*sim_, milliseconds(20));
    for (std::size_t i = 0; i < n; ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(
          *medium_,
          Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                  1},
          std::make_shared<net::StaticMobility>(
              net::Position{100.0 * static_cast<double>(i), 0}));
      hosts_.push_back(std::move(host));
      daemons_.push_back(std::make_unique<routing::Aodv>(*hosts_.back()));
      dirs_.push_back(std::make_unique<slp::ManetSlp>(
          *hosts_.back(), *daemons_.back()));
      daemons_.back()->start();
      gateways_.push_back(
          std::make_unique<GatewayProvider>(*hosts_.back(), *dirs_.back()));
      connections_.push_back(std::make_unique<ConnectionProvider>(
          *hosts_.back(), *dirs_.back()));
    }
    if (gateway_at_0) {
      hosts_[0]->attach_wired(*internet_, Address(192, 0, 2, 100));
    }
    for (auto& g : gateways_) g->start();
    for (auto& c : connections_) c->start();
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::unique_ptr<net::Internet> internet_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<routing::Aodv>> daemons_;
  std::vector<std::unique_ptr<slp::ManetSlp>> dirs_;
  std::vector<std::unique_ptr<GatewayProvider>> gateways_;
  std::vector<std::unique_ptr<ConnectionProvider>> connections_;
};

TEST_F(TunnelFixture, GatewayAdvertisesOnlyWhenWired) {
  build(2, /*gateway_at_0=*/false);
  sim_->run_for(seconds(12));
  EXPECT_FALSE(gateways_[0]->serving());
  EXPECT_FALSE(connections_[1]->internet_available());
  // Uplink appears at runtime.
  hosts_[0]->attach_wired(*internet_, Address(192, 0, 2, 100));
  sim_->run_for(seconds(15));
  EXPECT_TRUE(gateways_[0]->serving());
  EXPECT_TRUE(connections_[1]->internet_available());
}

TEST_F(TunnelFixture, MultihopClientAttaches) {
  build(4);
  sim_->run_for(seconds(20));
  EXPECT_TRUE(connections_[3]->internet_available());
  EXPECT_TRUE(connections_[3]->internet_address().in_prefix(
      net::kTunnelPrefix, net::kTunnelPrefixLen));
  EXPECT_EQ(gateways_[0]->tunnel_server().client_count(), 3u);
}

TEST_F(TunnelFixture, TunneledDatagramReachesInternetAndBack) {
  build(3);
  sim_->run_for(seconds(15));
  ASSERT_TRUE(connections_[2]->internet_available());

  // An Internet echo server.
  net::Host server(*sim_, 500, "echo");
  server.attach_wired(*internet_, Address(192, 0, 2, 10));
  server.bind(7000, [&](const net::Datagram& d, const net::RxInfo&) {
    net::Datagram reply;
    reply.dst = d.src;
    reply.dst_port = d.src_port;
    reply.src_port = 7000;
    reply.payload = d.payload;
    server.send_datagram(std::move(reply));
  });

  std::string echoed;
  hosts_[2]->bind(7001, [&](const net::Datagram& d, const net::RxInfo& info) {
    echoed = to_string(d.payload);
    EXPECT_EQ(info.iface, net::Interface::kTunnel);
  });
  hosts_[2]->send_udp(7001, {Address(192, 0, 2, 10), 7000},
                      to_bytes("ping-through-tunnel"));
  sim_->run_for(seconds(2));
  EXPECT_EQ(echoed, "ping-through-tunnel");
  const auto& metrics = sim_->ctx().metrics();
  const Counter* up =
      metrics.find_counter("tunnel.datagrams_up_total", "n0", "tunnel");
  const Counter* down =
      metrics.find_counter("tunnel.datagrams_down_total", "n0", "tunnel");
  ASSERT_NE(up, nullptr);
  ASSERT_NE(down, nullptr);
  EXPECT_GT(up->value(), 0u);
  EXPECT_GT(down->value(), 0u);
}

TEST_F(TunnelFixture, TunnelBetweenTwoClients) {
  build(3);
  sim_->run_for(seconds(15));
  ASSERT_TRUE(connections_[1]->internet_available());
  ASSERT_TRUE(connections_[2]->internet_available());
  // n1 sends to n2's *tunnel* address: up the tunnel, hairpin at the
  // gateway's Internet attachments, back down the other tunnel.
  std::string got;
  hosts_[2]->bind(7100, [&](const net::Datagram& d, const net::RxInfo&) {
    got = to_string(d.payload);
  });
  hosts_[1]->send_udp(7100, {connections_[2]->internet_address(), 7100},
                      to_bytes("hairpin"));
  sim_->run_for(seconds(2));
  EXPECT_EQ(got, "hairpin");
}

TEST_F(TunnelFixture, GatewayLossTearsTunnelDown) {
  build(2);
  sim_->run_for(seconds(12));
  ASSERT_TRUE(connections_[1]->internet_available());
  // Gateway vanishes (battery died).
  gateways_[0]->stop();
  medium_->set_enabled(0, false);
  sim_->run_for(seconds(15));  // keepalive misses accumulate
  EXPECT_FALSE(connections_[1]->internet_available());
}

TEST_F(TunnelFixture, FailoverToSecondGateway) {
  build(3);
  sim_->run_for(seconds(15));
  ASSERT_TRUE(connections_[1]->internet_available());
  const auto first_gw = connections_[1]->current_gateway();

  // A second gateway comes up at the other end of the chain...
  hosts_[2]->attach_wired(*internet_, Address(192, 0, 2, 102));
  sim_->run_for(seconds(10));
  // ...then the first one dies.
  hosts_[0]->detach_wired();
  gateways_[0]->stop();
  medium_->set_enabled(0, false);
  sim_->run_for(seconds(40));  // teardown + re-discovery + reconnect

  EXPECT_TRUE(connections_[1]->internet_available());
  EXPECT_NE(connections_[1]->current_gateway(), first_gw);
  EXPECT_GT(connections_[1]->gateway_discoveries(), 1u);
}

TEST_F(TunnelFixture, ServerExpiresSilentClients) {
  build(2);
  sim_->run_for(seconds(12));
  ASSERT_EQ(gateways_[0]->tunnel_server().client_count(), 1u);
  // Client node goes dark without disconnecting.
  connections_[1]->stop();
  medium_->set_enabled(1, false);
  sim_->run_for(seconds(15));
  EXPECT_EQ(gateways_[0]->tunnel_server().client_count(), 0u);
}

TEST_F(TunnelFixture, DisconnectReleasesLease) {
  build(2);
  sim_->run_for(seconds(12));
  ASSERT_EQ(gateways_[0]->tunnel_server().client_count(), 1u);
  const auto lease = connections_[1]->internet_address();
  connections_[1]->stop();  // sends DISCONNECT
  sim_->run_for(seconds(2));
  EXPECT_EQ(gateways_[0]->tunnel_server().client_count(), 0u);
  EXPECT_FALSE(internet_->attached(lease));
}

TEST_F(TunnelFixture, WiredNodeNeverOpensTunnel) {
  build(2);
  sim_->run_for(seconds(12));
  EXPECT_TRUE(connections_[0]->internet_available());
  EXPECT_FALSE(connections_[0]->tunnel_up());
  EXPECT_EQ(connections_[0]->internet_address(), Address(192, 0, 2, 100));
}

}  // namespace
}  // namespace siphoc
