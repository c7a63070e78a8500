#include "siphoc/gateway_provider.hpp"

#include "common/metrics.hpp"

namespace siphoc {

GatewayProvider::GatewayProvider(net::Host& host, slp::Directory& directory)
    : host_(host),
      directory_(directory),
      log_(host.sim().ctx().log(), "gateway", host.name()),
      server_(host) {}

GatewayProvider::~GatewayProvider() { stop(); }

void GatewayProvider::start() {
  if (started_) return;
  started_ = true;
  tick();
  timer_.start(host_.sim(), kAdvertiseInterval, [this] { tick(); });
}

void GatewayProvider::stop() {
  if (!started_) return;
  started_ = false;
  timer_.stop();
  server_.stop();
  directory_.deregister_service(std::string(slp::kGatewayService),
                                host_.manet_address().to_string());
}

void GatewayProvider::tick() {
  const bool online = host_.has_wired();
  if (online && !server_.running()) {
    server_.start();
    log_.info("internet uplink present, tunnel server started");
  } else if (!online && server_.running()) {
    server_.stop();
    directory_.deregister_service(std::string(slp::kGatewayService),
                                  host_.manet_address().to_string());
    log_.info("internet uplink lost, tunnel server stopped");
    return;
  }
  if (!online) return;
  // Refresh the gateway advertisement; the value is the MANET endpoint of
  // our tunnel server. The key is this gateway's own address so multiple
  // gateways coexist in every cache (clients find any via wildcard lookup).
  const net::Endpoint ep{host_.manet_address(), net::kTunnelPort};
  host_.sim().ctx().metrics()
      .counter("gateway.advertisements_total", host_.name(), "gateway")
      .add();
  directory_.register_service(std::string(slp::kGatewayService),
                              host_.manet_address().to_string(),
                              ep.to_string(), kAdvertiseLifetime);
}

}  // namespace siphoc
