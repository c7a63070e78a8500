// Connection Provider (paper section 2): "manages connections of the node
// to the Internet when there is a gateway in the MANET. It periodically
// checks whether it can find an gateway service (using MANET SLP) and open
// a layer two tunnel connection to the node offering the tunnel server."
#pragma once

#include "siphoc/tunnel.hpp"
#include "slp/directory.hpp"

namespace siphoc {

class ConnectionProvider {
 public:
  /// Period of the attachment check; an offline check looks up a gateway
  /// service and waits at most kLookupTimeout for it.
  static constexpr Duration kCheckInterval = seconds(5);
  static constexpr Duration kLookupTimeout = seconds(3);

  /// `on_change` fires when Internet reachability flips.
  ConnectionProvider(net::Host& host, slp::Directory& directory,
                     std::function<void(bool online)> on_change = {});
  ~ConnectionProvider();

  void start();
  void stop();

  /// The node is online when it has native wired connectivity or an open
  /// tunnel to a gateway.
  bool internet_available() const;
  /// The address this node is reachable at from the Internet (wired or
  /// tunnel-assigned), or unspecified when offline.
  net::Address internet_address() const;

  bool tunnel_up() const { return tunnel_.connected(); }
  net::Endpoint current_gateway() const { return tunnel_.gateway(); }

  std::uint64_t gateway_discoveries() const { return discoveries_; }

 private:
  void tick();

  net::Host& host_;
  slp::Directory& directory_;
  Logger log_;
  std::function<void(bool)> on_change_;
  TunnelClient tunnel_;
  sim::PeriodicTimer timer_;
  bool started_ = false;
  bool lookup_in_flight_ = false;
  bool failover_pending_ = false;  // tunnel lost; next attach is a failover
  TimePoint loss_time_{};          // when the tunnel went down
  std::uint64_t discoveries_ = 0;
};

}  // namespace siphoc
