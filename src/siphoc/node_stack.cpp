#include "siphoc/node_stack.hpp"

namespace siphoc {

NodeStack::NodeStack(net::Host& host, net::Internet* internet,
                     const NodeStackConfig& config)
    : host_(host) {
  if (config.routing == RoutingKind::kAodv) {
    routing_ = std::make_unique<routing::Aodv>(host_);
  } else {
    routing_ = std::make_unique<routing::Olsr>(host_);
  }

  const slp::ManetSlpConfig slp_config = config.slp.value_or(
      config.routing == RoutingKind::kAodv ? slp::ManetSlpConfig::for_aodv()
                                           : slp::ManetSlpConfig::for_olsr());
  slp_ = std::make_unique<slp::ManetSlp>(host_, *routing_, slp_config);

  proxy_ = std::make_unique<SiphocProxy>(host_, *slp_, config.proxy);
  if (internet != nullptr) {
    proxy_->set_dns_resolver([internet](const std::string& domain) {
      return internet->resolve(domain);
    });
  }

  gateway_ = std::make_unique<GatewayProvider>(host_, *slp_);
  // Reachability flips reach the proxy: a re-attach may carry a fresh
  // tunnel lease, and upstream provider bindings must follow it.
  connection_ = std::make_unique<ConnectionProvider>(
      host_, *slp_,
      [this](bool online) { proxy_->on_internet_change(online); });
  proxy_->set_internet_address_fn(
      [this] { return connection_->internet_address(); });
}

NodeStack::~NodeStack() { stop(); }

void NodeStack::start() {
  if (started_) return;
  started_ = true;
  routing_->start();
  gateway_->start();
  connection_->start();
}

void NodeStack::stop() {
  if (!started_) return;
  started_ = false;
  connection_->stop();
  gateway_->stop();
  routing_->stop();
}

}  // namespace siphoc
