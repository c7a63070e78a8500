// The SIPHoc Proxy (paper section 2, Figure 1):
//
//   "A proxy with a standard SIP interface but implementing MANET-specific
//    functionality. Each proxy serves as an outbound SIP proxy for the
//    local VoIP application."
//
// Behaviour (paper section 3.1, Figure 3):
//   * REGISTER from the local VoIP app (step 1): store the binding locally
//     and advertise this proxy's own MANET endpoint as the user's contact
//     in MANET SLP (step 2, Figure 4). When the node is attached to the
//     Internet and the user's provider domain resolves, the REGISTER is
//     additionally relayed upstream (section 3.2) with the Contact
//     rewritten to the node's Internet-visible endpoint.
//   * INVITE from the local app (step 5): resolve the callee's AOR through
//     MANET SLP (steps 6-7) and forward to the remote proxy's endpoint;
//     on SLP miss, fall back to the Internet via DNS on the URI domain --
//     which is exactly the step that cannot work for providers requiring
//     their own outbound proxy (the polyphone.ethz.ch open issue).
//   * Requests arriving from the network for a locally registered user
//     (step 8) are delivered to the VoIP app's registered contact.
//
// The proxy is stateless (RFC 3261 16.11): it pushes/pops Via and lets the
// user agents' transactions provide reliability. Crossing between the MANET
// and the Internet realm it also rewrites loopback Contacts to the proper
// realm endpoint and runs a small SDP ALG so RTP flows over the tunnel.
#pragma once

#include <map>
#include <vector>

#include "common/logging.hpp"
#include "sim/simulator.hpp"
#include "sip/transport.hpp"
#include "slp/directory.hpp"

namespace siphoc {

struct ProxyConfig {
  std::uint16_t port = 5060;
  Duration slp_advertise_lifetime = minutes(2);
  /// Fix for the paper's §3.2 open issue: providers that require their own
  /// outbound proxy cannot be reached via the URI domain's DNS entry
  /// (SIPHoc overwrote the client's outbound-proxy setting). Provisioning
  /// the provider's proxy endpoint per domain lets the SIPHoc proxy relay
  /// through it instead.
  std::map<std::string, net::Endpoint> provider_outbound_proxies;
};

class SiphocProxy {
 public:
  /// How long a MANET SLP lookup for a callee's contact may take.
  static constexpr Duration kSlpLookupTimeout = seconds(4);
  /// Binding lifetime of a REGISTER that carries no Expires header.
  static constexpr Duration kDefaultBindingLifetime = seconds(3600);

  SiphocProxy(net::Host& host, slp::Directory& directory,
              ProxyConfig config = {});
  ~SiphocProxy();

  /// Wiring for Internet-connected operation: the current Internet-visible
  /// address (unspecified = offline) and a DNS resolver for SIP domains.
  void set_internet_address_fn(std::function<net::Address()> fn) {
    internet_address_ = std::move(fn);
  }
  void set_dns_resolver(
      std::function<std::optional<net::Address>(const std::string&)> fn) {
    dns_ = std::move(fn);
  }

  /// Connection-provider hook: Internet reachability flipped. On re-attach
  /// the node's Internet-visible address may have changed (a new tunnel
  /// lease, possibly from a different gateway), which silently invalidates
  /// every contact this proxy registered upstream -- so each locally bound
  /// AOR's REGISTER is replayed toward its provider with the new address.
  void on_internet_change(bool online);

  net::Endpoint manet_endpoint() const {
    return {host_.manet_address(), config_.port};
  }

  struct Binding {
    std::string aor;
    net::Endpoint contact;  // the local VoIP app (loopback)
    TimePoint expires{};
  };
  std::optional<Binding> binding(const std::string& user) const;
  std::size_t binding_count() const;

 private:
  void on_message(sip::Message message, net::Endpoint from);
  void handle_register(sip::Message request, net::Endpoint from);
  void route_request(sip::Message request, net::Endpoint from);
  void forward_request(sip::Message request, net::Endpoint dst);
  void deliver_to_local(sip::Message request, const Binding& binding);
  void forward_via_internet(sip::Message request, const std::string& domain,
                            net::Endpoint from);
  void forward_response(sip::Message response);
  void respond_error(const sip::Message& request, int status,
                     net::Endpoint from);

  bool egress_is_internet(net::Address dst) const;
  net::Address current_internet_address() const;
  /// Where requests for `domain` go on the Internet: the provisioned
  /// provider outbound proxy if any, else DNS on the domain.
  std::optional<net::Endpoint> resolve_provider(const std::string& domain);
  /// Rewrites a loopback Contact to this proxy's endpoint in the target
  /// realm, and the SDP connection address when leaving toward the
  /// Internet.
  void rewrite_for_egress(sip::Message& message, net::Endpoint dst);

  net::Host& host_;
  slp::Directory& directory_;
  ProxyConfig config_;
  Logger log_;
  sip::Transport transport_;
  std::function<net::Address()> internet_address_;
  std::function<std::optional<net::Address>(const std::string&)> dns_;

  std::map<std::string, Binding> bindings_;  // by user name
  std::uint64_t branch_counter_ = 0;

  // Last REGISTER relayed upstream per AOR (pre-Via, pre-rewrite), kept so
  // a re-attach under a fresh tunnel lease can replay it -- the provider
  // would otherwise keep serving the dead address until the phone's own
  // refresh, hours later.
  struct UpstreamRegister {
    sip::Message request;
    net::Endpoint provider;
  };
  std::map<std::string, UpstreamRegister> upstream_replay_;
  net::Address last_upstream_inet_;

  // Internet-forwarded requests kept around briefly so a provider's
  // 480 + Retry-After (P2P ring mid-repair) can be answered with ONE
  // delayed re-forward instead of surfacing the failure to the caller.
  struct RetryableForward {
    sip::Message request;  // pre-Via copy
    std::string domain;
    net::Endpoint from;
    TimePoint expires{};
  };
  static constexpr std::size_t kMaxRetryable = 16;
  std::map<std::string, RetryableForward> retryable_;  // call-id + cseq
  std::vector<sim::EventHandle> retry_timers_;
};

}  // namespace siphoc
