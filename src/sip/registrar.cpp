#include "sip/registrar.hpp"

#include <algorithm>
#include <charconv>
#include <vector>

#include "common/md5.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "sip/auth.hpp"
#include "sip/p2p_resolver.hpp"

namespace siphoc::sip {

Registrar::Registrar(net::Host& host, RegistrarConfig config)
    : host_(host),
      config_(std::move(config)),
      log_(host.sim().ctx().log(), "registrar", config_.domain),
      transport_(host, net::kSipPort) {
  if (config_.store_shards > 0) {
    ShardedBindingStore::Config sc;
    sc.shards = config_.store_shards;
    store_ = std::make_unique<ShardedBindingStore>(sc);
  } else {
    store_ = std::make_unique<SingleMapStore>();
  }
  transport_.set_handler([this](Message m, net::Endpoint from) {
    on_message(std::move(m), from);
  });
  // Zero jitter: the tick must not perturb the deterministic RNG streams.
  maintenance_.start(host_.sim(), kMaintenanceInterval,
                     [this] { maintenance_tick(); });
}

Registrar::~Registrar() { maintenance_.stop(); }

Counter& Registrar::counter(const char* name) {
  return host_.sim().ctx().metrics().counter(name, config_.domain,
                                             "registrar");
}

std::uint64_t Registrar::read_counter(const char* name) const {
  const Counter* c = host_.sim().ctx().metrics().find_counter(
      name, config_.domain, "registrar");
  return c != nullptr ? c->value() : 0;
}

std::uint64_t Registrar::registers_accepted() const {
  return read_counter("registrar.registers_accepted_total");
}
std::uint64_t Registrar::registers_rejected() const {
  return read_counter("registrar.registers_rejected_total");
}
std::uint64_t Registrar::requests_forwarded() const {
  return read_counter("registrar.requests_forwarded_total");
}
std::uint64_t Registrar::requests_failed() const {
  return read_counter("registrar.requests_failed_total");
}

void Registrar::maintenance_tick() {
  // Expired digest nonces die on the timer (they used to accumulate one
  // per challenge, forever), and the table is hard-capped: above the cap
  // the nonces closest to expiry are evicted first.
  const TimePoint now = host_.sim().now();
  for (auto it = issued_nonces_.begin(); it != issued_nonces_.end();) {
    it = it->second <= now ? issued_nonces_.erase(it) : std::next(it);
  }
  if (issued_nonces_.size() > config_.nonce_cap) {
    std::vector<std::pair<TimePoint, std::string>> by_expiry;
    by_expiry.reserve(issued_nonces_.size());
    for (const auto& [nonce, expires] : issued_nonces_) {
      by_expiry.emplace_back(expires, nonce);
    }
    std::sort(by_expiry.begin(), by_expiry.end());
    const std::size_t excess = issued_nonces_.size() - config_.nonce_cap;
    for (std::size_t i = 0; i < excess; ++i) {
      issued_nonces_.erase(by_expiry[i].second);
    }
  }
  host_.sim().ctx().metrics()
      .gauge("registrar.nonces", config_.domain, "registrar")
      .set(static_cast<double>(issued_nonces_.size()));

  // One wheel turn: only the due expiry buckets are touched.
  if (store_->purge_expired(now) > 0) {
    host_.sim().ctx().metrics()
        .gauge("registrar.bindings", config_.domain, "registrar")
        .set(static_cast<double>(store_->size()));
  }
}

std::optional<Registrar::Binding> Registrar::binding(
    const std::string& aor) const {
  return store_->lookup(aor, host_.sim().now());
}

std::size_t Registrar::binding_count() const { return store_->size(); }

void Registrar::on_message(Message message, net::Endpoint from) {
  if (message.is_response()) {
    forward_response(std::move(message));
    return;
  }
  if (config_.require_outbound_proxy && from.address != config_.trusted_proxy) {
    log_.info("rejecting ", message.summary(), " from ",
              from.address.to_string(), ": not via our outbound proxy");
    counter("registrar.registers_rejected_total").add();
    if (message.method() != kAck) respond(message, 403, from);
    return;
  }
  if (message.method() == kRegister) {
    handle_register(std::move(message), from);
  } else {
    forward_request(std::move(message), from);
  }
}

void Registrar::respond(const Message& request, int status,
                        net::Endpoint from) {
  Message response = Message::response_to(request, status);
  if (!transport_.send_response(response)) {
    transport_.send(response, from);
  }
}

bool Registrar::check_authorization(const Message& request,
                                    net::Endpoint from) {
  if (!config_.require_auth) return true;

  const auto issue_challenge = [&](bool stale) {
    DigestChallenge challenge;
    challenge.realm = config_.domain;
    challenge.stale = stale;
    challenge.nonce =
        md5_hex(config_.domain + std::to_string(++nonce_counter_) +
                std::to_string(host_.rng().uniform_u64()));
    issued_nonces_[challenge.nonce] =
        host_.sim().now() + config_.nonce_lifetime;
    Message response = Message::response_to(request, 401, "Unauthorized");
    response.add_header("www-authenticate", challenge.to_string());
    if (!transport_.send_response(response)) {
      transport_.send(response, from);
    }
  };

  const auto header = request.header("authorization");
  if (!header) {
    issue_challenge(/*stale=*/false);
    return false;
  }
  const auto auth = DigestAuthorization::parse(*header);
  if (!auth) {
    issue_challenge(/*stale=*/false);
    return false;
  }
  const auto nonce_it = issued_nonces_.find(auth->nonce);
  if (nonce_it == issued_nonces_.end() ||
      nonce_it->second <= host_.sim().now()) {
    // The client answered a nonce we no longer honor (expired or evicted):
    // re-challenge with stale=true so it retries with the fresh nonce
    // without re-prompting for credentials (RFC 2617 §3.2.1).
    issue_challenge(/*stale=*/true);
    return false;
  }
  const auto cred = config_.credentials.find(auth->username);
  if (cred == config_.credentials.end() ||
      !verify_authorization(*auth, cred->second, request.method())) {
    counter("registrar.registers_rejected_total").add();
    log_.info("bad credentials for '", auth->username, "'");
    respond(request, 403, from);
    return false;
  }
  return true;
}

void Registrar::handle_register(Message request, net::Endpoint from) {
  const auto to = request.to();
  if (!to) {
    respond(request, 400, from);
    return;
  }
  if (!check_authorization(request, from)) return;
  const std::string aor = to->uri.aor();

  std::uint32_t expires =
      static_cast<std::uint32_t>(to_seconds(kDefaultExpires));
  if (const auto h = request.header("expires")) {
    std::from_chars(h->data(), h->data() + h->size(), expires);
  }

  // RFC 3261 §10.2.2: "Contact: *" is only valid with "Expires: 0" and
  // wipes every binding of the AOR.
  const auto contact_header = request.header("contact");
  const bool wildcard = contact_header && trim(*contact_header) == "*";
  if (wildcard && expires != 0) {
    respond(request, 400, from);
    return;
  }

  const std::optional<NameAddr> contact =
      wildcard ? std::nullopt : request.contact();
  if (expires == 0) {
    if (p2p_ != nullptr) {
      p2p_->unpublish(aor);
    } else {
      store_->erase(aor);
    }
    host_.sim().ctx().metrics()
        .gauge("registrar.bindings", config_.domain, "registrar")
        .set(static_cast<double>(store_->size()));
    log_.info("unregistered ", aor, wildcard ? " (wildcard)" : "");
  } else if (contact) {
    const TimePoint binding_expires = host_.sim().now() + seconds(expires);
    if (p2p_ != nullptr) {
      // Serverless mode: the binding lives in the Chord-lite ring, keyed
      // by the same hash the sharded store uses.
      p2p_->publish(aor, contact->uri, binding_expires);
    } else {
      store_->upsert(aor, contact->uri, binding_expires);
    }
    counter("registrar.registers_accepted_total").add();
    host_.sim().ctx().metrics()
        .gauge("registrar.bindings", config_.domain, "registrar")
        .set(static_cast<double>(store_->size()));
    log_.info("registered ", aor, " -> ", contact->uri.to_string(),
              " expires=", expires);
  } else {
    respond(request, 400, from);
    return;
  }

  Message ok = Message::response_to(request, 200);
  if (contact) {
    ok.add_header("contact", contact->to_string() + ";expires=" +
                                 std::to_string(expires));
  }
  if (!transport_.send_response(ok)) transport_.send(ok, from);
}

void Registrar::forward_request(Message request, net::Endpoint from) {
  // Loop/expiry guard.
  const int mf = request.max_forwards();
  if (mf <= 0) {
    if (request.method() != kAck) respond(request, 483, from);
    return;
  }
  request.set_max_forwards(mf - 1);

  // Destination: a numeric request URI forwards directly (in-dialog
  // requests addressed to a contact); a domain URI is looked up in the
  // bindings.
  if (const auto numeric = request.request_uri().numeric_endpoint();
      numeric && !host_.owns_address(numeric->address)) {
    Binding direct;
    direct.contact = request.request_uri();
    direct.expires = host_.sim().now() + seconds(1);
    forward_to_binding(std::move(request), from, direct);
    return;
  }

  const std::string aor = request.request_uri().aor();
  if (p2p_ != nullptr) {
    // Ring resolution: O(log n) hops through the gateways' finger tables;
    // the request parks here until the ring answers or times out.
    p2p_->resolve(aor, [this, request = std::move(request), from](
                           std::optional<ContactBinding> binding, int) mutable {
      if (!binding && !p2p_->stable()) {
        // The ring is mid-repair: the binding may exist on a node we could
        // not reach yet. 480 + Retry-After tells the proxy to try again
        // after stabilization instead of surfacing a terminal 404.
        counter("registrar.retry_after_total").add();
        log_.info(request.method(), " for ", request.request_uri().aor(),
                  ": ring unstable -> 480 retry-after");
        if (request.method() != kAck) {
          Message response = Message::response_to(request, 480);
          response.set_header("retry-after", "1");
          if (!transport_.send_response(response)) {
            transport_.send(response, from);
          }
        }
        return;
      }
      forward_to_binding(std::move(request), from, std::move(binding));
    });
    return;
  }
  forward_to_binding(std::move(request), from, binding(aor));
}

void Registrar::forward_to_binding(Message request, net::Endpoint from,
                                   std::optional<Binding> binding) {
  if (!binding) {
    counter("registrar.requests_failed_total").add();
    log_.info(request.method(), " for ", request.request_uri().aor(),
              ": no binding -> 404");
    if (request.method() != kAck) respond(request, 404, from);
    return;
  }
  const auto contact_ep = binding->contact.numeric_endpoint();
  if (!contact_ep) {
    counter("registrar.requests_failed_total").add();
    if (request.method() != kAck) respond(request, 502, from);
    return;
  }

  Via via;
  via.host = host_.wired_address().to_string();
  via.port = net::kSipPort;
  via.params["branch"] =
      std::string(kBranchCookie) + "reg" +
      std::to_string(host_.rng().uniform_int(0, 0xffffff));
  request.push_via(via);
  counter("registrar.requests_forwarded_total").add();
  transport_.send(request, *contact_ep);
}

void Registrar::forward_response(Message response) {
  // Pop our Via, forward to the next one.
  auto vias = response.vias();
  if (vias.empty()) return;
  if (vias.front().host != host_.wired_address().to_string()) {
    log_.warn("response with foreign top Via, dropping");
    return;
  }
  response.pop_via();
  auto next = response.top_via();
  if (!next) return;
  auto dst = next->response_endpoint();
  if (!dst) return;
  transport_.send(response, *dst);
}

}  // namespace siphoc::sip
