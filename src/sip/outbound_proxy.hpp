// A provider's dedicated outbound proxy (RFC 3261 stateless proxy).
//
// Some SIP providers -- the paper's polyphone.ethz.ch -- require clients to
// send all requests through a specific outbound proxy that is *not* the
// host the URI domain resolves to. This element models that box: it relays
// requests to a fixed next hop (the provider's registrar), adding its Via,
// and retraces responses. Registrars configured with
// `require_outbound_proxy` accept requests only from this element's
// address.
//
// It also powers the fix for the paper's open issue: the SIPHoc proxy can
// be provisioned with per-domain outbound-proxy endpoints
// (ProxyConfig::provider_outbound_proxies) and will relay through this box
// instead of the DNS-resolved registrar.
#pragma once

#include "common/logging.hpp"
#include "sip/transport.hpp"

namespace siphoc::sip {

/// The proxy listens on net::kSipPort.
struct OutboundProxyConfig {
  net::Endpoint next_hop;  // the provider's registrar/proxy
};

class OutboundProxy {
 public:
  OutboundProxy(net::Host& host, OutboundProxyConfig config);

  struct OutboundProxyStats {
    std::uint64_t requests_relayed = 0;
    std::uint64_t responses_relayed = 0;
    std::uint64_t dropped = 0;
  };
  const OutboundProxyStats& stats() const { return stats_; }

 private:
  void on_message(Message message, net::Endpoint from);

  net::Host& host_;
  OutboundProxyConfig config_;
  Logger log_;
  Transport transport_;
  std::uint64_t branch_counter_ = 0;
  OutboundProxyStats stats_;
};

}  // namespace siphoc::sip
