#include "baselines/push_gateway.hpp"

namespace siphoc::baselines {

FixedGatewayClient::FixedGatewayClient(net::Host& host,
                                       FixedGatewayConfig config,
                                       std::function<void(bool)> on_change)
    : host_(host),
      config_(config),
      log_(host.sim().ctx().log(), "fixedgw", host.name()),
      on_change_(std::move(on_change)),
      tunnel_(host, [this](bool connected, net::Address) {
        if (on_change_) on_change_(connected || host_.has_wired());
      }) {}

FixedGatewayClient::~FixedGatewayClient() { stop(); }

void FixedGatewayClient::start() {
  if (started_) return;
  started_ = true;
  tick();
  timer_.start(host_.sim(), kRetryInterval, [this] { tick(); },
               milliseconds(300));
}

void FixedGatewayClient::stop() {
  if (!started_) return;
  started_ = false;
  timer_.stop();
  if (tunnel_.connected()) tunnel_.disconnect();
}

void FixedGatewayClient::tick() {
  if (!started_ || host_.has_wired() || tunnel_.connected()) return;
  ++attempts_;
  // No discovery: always the provisioned endpoint, reachable or not.
  tunnel_.connect(config_.gateway);
}

}  // namespace siphoc::baselines
