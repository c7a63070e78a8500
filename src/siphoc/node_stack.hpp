// NodeStack: the full per-node SIPHoc deployment (paper Figure 1).
//
// Assembles, in the same composition the paper runs as five operating
// system processes on each laptop/iPAQ:
//   * the MANET routing daemon (AODV or OLSR),
//   * MANET SLP, installed as the routing protocol's piggyback plugin,
//   * the SIPHoc proxy (outbound proxy for the local VoIP application),
//   * the Gateway Provider (activates when the node has an uplink),
//   * the Connection Provider (discovers gateways, maintains the tunnel).
// All five are always built; the gateway provider idles until the node has
// an uplink, and the connection provider supplies the proxy's
// Internet-visible address (a wired gateway's own address, or a tunnel
// lease). The VoIP application itself (voip::SoftPhone) attaches on top
// through nothing but the standard SIP interface on localhost:5060.
//
// This is the library's primary public entry point: construct a Host per
// node, wrap it in a NodeStack, start() -- the node is a SIPHoc node.
#pragma once

#include <memory>

#include "routing/aodv.hpp"
#include "routing/olsr.hpp"
#include "siphoc/connection_provider.hpp"
#include "siphoc/gateway_provider.hpp"
#include "siphoc/proxy.hpp"
#include "slp/manet_slp.hpp"

namespace siphoc {

enum class RoutingKind { kAodv, kOlsr };

struct NodeStackConfig {
  slp::ManetSlpConfig slp;
  ProxyConfig proxy;
};

class NodeStack {
 public:
  /// `internet` supplies DNS for provider domains; pass nullptr for nodes
  /// that will never reach the Internet.
  NodeStack(net::Host& host, net::Internet* internet, RoutingKind routing,
            const NodeStackConfig& config = {});
  ~NodeStack();

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  void start();
  void stop();

  net::Host& host() { return host_; }
  routing::Protocol& routing() { return *routing_; }
  slp::ManetSlp& slp() { return *slp_; }
  SiphocProxy& proxy() { return *proxy_; }
  GatewayProvider& gateway_provider() { return *gateway_; }
  ConnectionProvider& connection_provider() { return *connection_; }

  bool internet_available() const {
    return connection_->internet_available();
  }

 private:
  net::Host& host_;
  std::unique_ptr<routing::Protocol> routing_;
  std::unique_ptr<slp::ManetSlp> slp_;
  std::unique_ptr<SiphocProxy> proxy_;
  std::unique_ptr<GatewayProvider> gateway_;
  std::unique_ptr<ConnectionProvider> connection_;
  bool started_ = false;
};

}  // namespace siphoc
