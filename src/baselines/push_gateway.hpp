// Baseline [8] (Chen et al., APWCS): push-based VoIP for Internet-enabled
// MANETs with a statically designated gateway.
//
// "the work assumes a fixed topology with one node acting as gateway"
// (paper section 5). The client side therefore skips gateway *discovery*
// entirely: it opens a tunnel to a pre-configured gateway endpoint and
// keeps retrying that one endpoint forever. Bench E4 compares this against
// SIPHoc's Connection Provider on (a) time-to-Internet from cold start and
// (b) behaviour when the designated gateway disappears and another node
// has connectivity -- the fixed scheme never recovers.
#pragma once

#include "siphoc/tunnel.hpp"

namespace siphoc::baselines {

struct FixedGatewayConfig {
  net::Endpoint gateway;  // statically provisioned
};

class FixedGatewayClient {
 public:
  /// Period of the connect attempts while offline.
  static constexpr Duration kRetryInterval = seconds(5);

  FixedGatewayClient(net::Host& host, FixedGatewayConfig config,
                     std::function<void(bool online)> on_change = {});
  ~FixedGatewayClient();

  void start();
  void stop();

  bool internet_available() const {
    return host_.has_wired() || tunnel_.connected();
  }
  net::Address internet_address() const {
    if (host_.has_wired()) return host_.wired_address();
    if (tunnel_.connected()) return tunnel_.tunnel_address();
    return {};
  }
  std::uint64_t connect_attempts() const { return attempts_; }

 private:
  void tick();

  net::Host& host_;
  FixedGatewayConfig config_;
  Logger log_;
  std::function<void(bool)> on_change_;
  TunnelClient tunnel_;
  sim::PeriodicTimer timer_;
  bool started_ = false;
  std::uint64_t attempts_ = 0;
};

}  // namespace siphoc::baselines
