// Gateway Provider (paper section 2): on a node with Internet connectivity,
// "makes this information available to other nodes by publishing an SLP
// gateway service. It also starts a layer two tunnel server ready to accept
// connections."
#pragma once

#include "siphoc/tunnel.hpp"
#include "slp/directory.hpp"

namespace siphoc {

class GatewayProvider {
 public:
  /// The gateway service is re-advertised every kAdvertiseInterval with a
  /// lifetime of three intervals.
  static constexpr Duration kAdvertiseInterval = seconds(5);
  static constexpr Duration kAdvertiseLifetime = seconds(15);

  GatewayProvider(net::Host& host, slp::Directory& directory);
  ~GatewayProvider();

  /// Starts advertising + serving if (and only if) the host currently has
  /// a wired Internet attachment; re-checked every advertise interval, so
  /// connectivity gained or lost at runtime is picked up.
  void start();
  void stop();

  bool serving() const { return server_.running(); }
  const TunnelServer& tunnel_server() const { return server_; }

 private:
  void tick();

  net::Host& host_;
  slp::Directory& directory_;
  Logger log_;
  TunnelServer server_;
  sim::PeriodicTimer timer_;
  bool started_ = false;
};

}  // namespace siphoc
