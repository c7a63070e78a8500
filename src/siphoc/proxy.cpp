#include "siphoc/proxy.hpp"

#include <charconv>

#include "common/metrics.hpp"
#include "sip/sdp.hpp"

namespace siphoc {

using sip::Message;

namespace {

Counter& proxy_counter(net::Host& host, const std::string& name) {
  return host.sim().ctx().metrics().counter(name, host.name(), "proxy");
}

}  // namespace

SiphocProxy::SiphocProxy(net::Host& host, slp::Directory& directory,
                         ProxyConfig config)
    : host_(host),
      directory_(directory),
      config_(config),
      log_(host.sim().ctx().log(), "proxy", host.name()),
      transport_(host, config_.port) {
  transport_.set_handler([this](Message m, net::Endpoint from) {
    on_message(std::move(m), from);
  });
}

SiphocProxy::~SiphocProxy() {
  for (auto& timer : retry_timers_) timer.cancel();
}

std::optional<SiphocProxy::Binding> SiphocProxy::binding(
    const std::string& user) const {
  const auto it = bindings_.find(user);
  if (it == bindings_.end() || it->second.expires <= host_.sim().now()) {
    return std::nullopt;
  }
  return it->second;
}

std::size_t SiphocProxy::binding_count() const {
  std::size_t n = 0;
  for (const auto& [user, b] : bindings_) {
    if (b.expires > host_.sim().now()) ++n;
  }
  return n;
}

net::Address SiphocProxy::current_internet_address() const {
  return internet_address_ ? internet_address_() : net::Address{};
}

std::optional<net::Endpoint> SiphocProxy::resolve_provider(
    const std::string& domain) {
  if (const auto it = config_.provider_outbound_proxies.find(domain);
      it != config_.provider_outbound_proxies.end()) {
    return it->second;
  }
  if (dns_) {
    if (const auto addr = dns_(domain)) return net::Endpoint{*addr, 5060};
  }
  return std::nullopt;
}

bool SiphocProxy::egress_is_internet(net::Address dst) const {
  return dst.in_prefix(net::kInternetPrefix, net::kInternetPrefixLen) ||
         dst.in_prefix(net::kTunnelPrefix, net::kTunnelPrefixLen);
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void SiphocProxy::on_message(Message message, net::Endpoint from) {
  if (message.is_response()) {
    forward_response(std::move(message));
    return;
  }
  if (message.method() == sip::kRegister && from.address.is_loopback()) {
    handle_register(std::move(message), from);
    return;
  }
  route_request(std::move(message), from);
}

void SiphocProxy::respond_error(const Message& request, int status,
                                net::Endpoint from) {
  if (request.method() == sip::kAck) return;  // never answer an ACK
  Message response = Message::response_to(request, status);
  if (!transport_.send_response(response)) {
    transport_.send(response, from);
  }
}

// --------------------------------------------------------------------------
// REGISTER (Figure 3 steps 1-2)
// --------------------------------------------------------------------------

void SiphocProxy::handle_register(Message request, net::Endpoint from) {
  const auto to = request.to();
  const auto contact = request.contact();
  if (!to || !contact) {
    respond_error(request, 400, from);
    return;
  }
  const std::string aor = to->uri.aor();
  const std::string user = to->uri.user;

  std::uint32_t expires =
      static_cast<std::uint32_t>(to_seconds(kDefaultBindingLifetime));
  if (const auto h = request.header("expires")) {
    std::from_chars(h->data(), h->data() + h->size(), expires);
  }

  if (expires == 0) {
    bindings_.erase(user);
    upstream_replay_.erase(aor);
    directory_.deregister_service(std::string(slp::kSipContactService), aor);
  } else {
    const auto contact_ep = contact->uri.numeric_endpoint();
    if (!contact_ep) {
      respond_error(request, 400, from);
      return;
    }
    Binding b;
    b.aor = aor;
    b.contact = *contact_ep;
    b.expires = host_.sim().now() + seconds(expires);
    bindings_[user] = std::move(b);
    proxy_counter(host_, "proxy.registrations_total").add();

    // Step 2: advertise *this proxy's* MANET endpoint as the responsible
    // contact for the user -- the Figure 4 state.
    directory_.register_service(
        std::string(slp::kSipContactService), aor,
        manet_endpoint().to_string(),
        std::min(config_.slp_advertise_lifetime, Duration(seconds(expires))));
    log_.info("registered ", aor, " -> ", contact_ep->to_string(),
              "; advertised ", manet_endpoint().to_string(), " via SLP");
  }

  // Section 3.2: with Internet connectivity, relay the REGISTER to the
  // user's provider so the official SIP address works transparently. The
  // provider's response (200 -- or 403 from an outbound-proxy-requiring
  // provider) is what the VoIP app then sees.
  const net::Address inet = current_internet_address();
  if (!inet.is_unspecified()) {
    if (const auto provider = resolve_provider(to->uri.host)) {
      if (expires != 0) {
        // Keep the pristine REGISTER around: a later re-attach under a new
        // tunnel lease replays it so the provider learns the new contact.
        upstream_replay_[aor] = UpstreamRegister{request, *provider};
        last_upstream_inet_ = inet;
      }
      proxy_counter(host_, "proxy.upstream_registers_total").add();
      forward_request(std::move(request), *provider);
      return;
    }
  }

  // Isolated MANET: the proxy itself acts as the registrar.
  Message ok = Message::response_to(request, 200);
  ok.add_header("contact", contact->to_string() + ";expires=" +
                               std::to_string(expires));
  if (!transport_.send_response(ok)) transport_.send(ok, from);
}

void SiphocProxy::on_internet_change(bool online) {
  if (!online) return;
  const net::Address inet = current_internet_address();
  if (inet.is_unspecified() || inet == last_upstream_inet_) return;
  last_upstream_inet_ = inet;
  const TimePoint now = host_.sim().now();
  for (auto it = upstream_replay_.begin(); it != upstream_replay_.end();) {
    // Drop replays whose local binding is gone or expired.
    const auto to = it->second.request.to();
    std::optional<Binding> bound;
    if (to) bound = binding(to->uri.user);
    if (!bound || bound->expires <= now) {
      it = upstream_replay_.erase(it);
      continue;
    }
    proxy_counter(host_, "proxy.upstream_rebinds_total").add();
    proxy_counter(host_, "proxy.upstream_registers_total").add();
    log_.info("re-attached as ", inet.to_string(), "; rebinding ", it->first,
              " upstream");
    forward_request(it->second.request, it->second.provider);
    ++it;
  }
}

// --------------------------------------------------------------------------
// Request routing (Figure 3 steps 5-8)
// --------------------------------------------------------------------------

void SiphocProxy::route_request(Message request, net::Endpoint from) {
  const int mf = request.max_forwards();
  if (mf <= 0) {
    respond_error(request, 483, from);
    return;
  }
  request.set_max_forwards(mf - 1);

  const sip::Uri& uri = request.request_uri();
  const auto numeric = uri.numeric_endpoint();

  // Step 8: a request for one of our registered users is handed to the
  // local VoIP application -- either addressed to our own endpoint
  // (in-dialog / provider-routed) or still carrying the AOR.
  const bool addressed_to_us =
      numeric && host_.owns_address(numeric->address);
  if (addressed_to_us || !numeric) {
    if (const auto b = binding(uri.user)) {
      deliver_to_local(std::move(request), *b);
      return;
    }
    // An AOR bound here by full AOR match (user registered under another
    // domain spelling) -- check before resolving further.
    if (!numeric) {
      for (const auto& [user, b] : bindings_) {
        if (b.aor == uri.aor() && b.expires > host_.sim().now()) {
          deliver_to_local(std::move(request), b);
          return;
        }
      }
    }
    if (addressed_to_us) {
      proxy_counter(host_, "proxy.not_found_total").add();
      respond_error(request, 404, from);
      return;
    }
  }

  // Direct forward: in-dialog requests address a concrete remote endpoint.
  if (numeric && !host_.owns_address(numeric->address)) {
    forward_request(std::move(request), *numeric);
    return;
  }

  // Steps 6-7: consult MANET SLP for the callee's proxy endpoint.
  const std::string aor = uri.aor();
  const std::string domain = uri.host;
  proxy_counter(host_, "proxy.slp_lookups_total").add();
  log_.info("resolving ", aor, " via MANET SLP");
  directory_.lookup(
      std::string(slp::kSipContactService), aor, kSlpLookupTimeout,
      [this, request = std::move(request), from,
       domain](std::optional<slp::ServiceEntry> entry) mutable {
        if (entry) {
          const auto ep = net::Endpoint::parse(entry->value);
          if (ep) {
            proxy_counter(host_, "proxy.slp_hits_total").add();
            log_.info("SLP resolved ", request.request_uri().aor(), " -> ",
                      ep->to_string());
            forward_request(std::move(request), *ep);
            return;
          }
        }
        // Not in the MANET: try the Internet (section 3.2).
        forward_via_internet(std::move(request), domain, from);
      });
}

void SiphocProxy::forward_via_internet(Message request,
                                       const std::string& domain,
                                       net::Endpoint from) {
  const net::Address inet = current_internet_address();
  if (inet.is_unspecified()) {
    proxy_counter(host_, "proxy.not_found_total").add();
    log_.info("cannot resolve ", request.request_uri().aor(),
              ": not in MANET, no Internet connectivity");
    respond_error(request, 404, from);
    return;
  }
  // Provisioned provider outbound proxy wins over DNS (§3.2 open-issue
  // fix: some providers only accept requests through their own proxy).
  const auto provider = resolve_provider(domain);
  if (!provider) {
    proxy_counter(host_, "proxy.not_found_total").add();
    log_.info("cannot resolve provider domain '", domain, "'");
    respond_error(request, 404, from);
    return;
  }
  proxy_counter(host_, "proxy.internet_forwards_total").add();

  // Park a pre-Via copy so a 480 + Retry-After from the provider (its P2P
  // ring is mid-repair) can trigger one delayed re-forward. Bounded: prune
  // what expired, and when the window is full just forgo retryability.
  if (request.method() != sip::kAck) {
    const TimePoint now = host_.sim().now();
    for (auto it = retryable_.begin(); it != retryable_.end();) {
      it = it->second.expires <= now ? retryable_.erase(it) : std::next(it);
    }
    if (retryable_.size() < kMaxRetryable) {
      std::string key = request.call_id();
      if (const auto cseq = request.cseq()) {
        key += " " + cseq->to_string();
      }
      retryable_[key] = RetryableForward{request, domain, from,
                                         now + seconds(32)};
    }
  }
  forward_request(std::move(request), *provider);
}

void SiphocProxy::deliver_to_local(Message request, const Binding& binding) {
  proxy_counter(host_, "proxy.delivered_local_total").add();
  sip::Via via;
  via.host = net::kLoopbackAddress.to_string();
  via.port = config_.port;
  via.params["branch"] =
      std::string(sip::kBranchCookie) + "phoc" +
      std::to_string(++branch_counter_);
  request.push_via(via);
  transport_.send(request, binding.contact);
}

void SiphocProxy::forward_request(Message request, net::Endpoint dst) {
  rewrite_for_egress(request, dst);
  sip::Via via;
  via.host = egress_is_internet(dst.address)
                 ? current_internet_address().to_string()
                 : host_.manet_address().to_string();
  via.port = config_.port;
  via.params["branch"] =
      std::string(sip::kBranchCookie) + "phoc" +
      std::to_string(++branch_counter_);
  request.push_via(via);
  proxy_counter(host_, "proxy.requests_forwarded_total").add();
  transport_.send(request, dst);
}

void SiphocProxy::forward_response(Message response) {
  // Pop our Via (whichever realm endpoint it names) and relay to the next.
  auto vias = response.vias();
  if (vias.empty()) return;
  const std::string& top_host = vias.front().host;
  const bool ours = top_host == host_.manet_address().to_string() ||
                    top_host == current_internet_address().to_string() ||
                    top_host == net::kLoopbackAddress.to_string();
  if (!ours || vias.front().port != config_.port) {
    log_.warn("response with foreign top Via ", top_host, ", dropping");
    return;
  }
  response.pop_via();

  // 480 + Retry-After from a provider whose resolution ring is still
  // stabilizing: swallow the failure and re-forward the parked request
  // once, after the indicated delay, instead of relaying it to the caller.
  if (response.status() == 480) {
    if (const auto after = response.header("retry-after")) {
      std::string key = response.call_id();
      if (const auto cseq = response.cseq()) {
        key += " " + cseq->to_string();
      }
      const auto it = retryable_.find(key);
      if (it != retryable_.end() &&
          it->second.expires > host_.sim().now()) {
        RetryableForward parked = std::move(it->second);
        retryable_.erase(it);  // one retry per forwarded request
        int delay_s = 1;
        int parsed = 0;
        const auto [ptr, ec] = std::from_chars(
            after->data(), after->data() + after->size(), parsed);
        if (ec == std::errc{} && parsed > 0 && parsed <= 16) delay_s = parsed;
        proxy_counter(host_, "proxy.retry_after_retries_total").add();
        log_.info("provider asked to retry ",
                  parked.request.request_uri().aor(), " after ", delay_s,
                  "s (ring stabilizing)");
        std::erase_if(retry_timers_,
                      [](const sim::EventHandle& h) { return !h.pending(); });
        retry_timers_.push_back(host_.sim().schedule(
            seconds(delay_s), [this, parked = std::move(parked)]() mutable {
              forward_via_internet(std::move(parked.request), parked.domain,
                                   parked.from);
            }));
        return;
      }
    }
  }

  const auto next = response.top_via();
  if (!next) return;
  auto dst = next->response_endpoint();
  if (!dst) {
    log_.warn("cannot route response: unresolvable Via");
    return;
  }
  rewrite_for_egress(response, *dst);
  transport_.send(response, *dst);
}

// --------------------------------------------------------------------------
// Realm crossing: Contact rewriting + SDP ALG
// --------------------------------------------------------------------------

void SiphocProxy::rewrite_for_egress(Message& message, net::Endpoint dst) {
  if (dst.address.is_loopback()) return;  // staying on this node
  const bool to_internet = egress_is_internet(dst.address);

  // Loopback Contact (the local VoIP app) must become an address the peer
  // can route to: this proxy's realm endpoint, keeping the user part so
  // in-dialog requests can be matched back to the binding.
  if (const auto contact = message.contact()) {
    if (const auto ep = contact->uri.numeric_endpoint();
        ep && ep->address.is_loopback()) {
      sip::NameAddr rewritten = *contact;
      const net::Address realm_addr =
          to_internet ? current_internet_address() : host_.manet_address();
      rewritten.uri = sip::Uri::from_endpoint({realm_addr, config_.port},
                                              contact->uri.user);
      message.set_header("contact", rewritten.to_string());
    }
  }

  // SDP ALG: media leaving toward the Internet must carry the
  // Internet-visible address (RTP then rides the tunnel).
  if (to_internet && message.header("content-type") &&
      *message.header("content-type") == sip::kSdpContentType) {
    auto sdp = sip::Sdp::parse(message.body());
    if (sdp && (sdp->connection.in_prefix(net::kManetPrefix,
                                          net::kManetPrefixLen) ||
                sdp->connection.is_loopback())) {
      sdp->connection = current_internet_address();
      message.set_body(sdp->serialize(), std::string(sip::kSdpContentType));
    }
  }
}

}  // namespace siphoc
