#include "siphoc/node_stack.hpp"

namespace siphoc {

NodeStack::NodeStack(net::Host& host, net::Internet* internet,
                     RoutingKind routing, const NodeStackConfig& config)
    : host_(host) {
  if (routing == RoutingKind::kAodv) {
    routing_ = std::make_unique<routing::Aodv>(host_);
  } else {
    routing_ = std::make_unique<routing::Olsr>(host_);
  }

  slp_ = std::make_unique<slp::ManetSlp>(host_, *routing_, config.slp);

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
