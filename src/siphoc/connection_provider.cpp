#include "siphoc/connection_provider.hpp"

#include "common/metrics.hpp"

namespace siphoc {

ConnectionProvider::ConnectionProvider(net::Host& host,
                                       slp::Directory& directory,
                                       std::function<void(bool)> on_change)
    : host_(host),
      directory_(directory),
      log_(host.sim().ctx().log(), "connprov", host.name()),
      on_change_(std::move(on_change)),
      tunnel_(host, [this](bool connected, net::Address address) {
        if (connected) {
          log_.info("attached to the Internet as ", address.to_string());
        } else {
          log_.info("detached from the Internet");
          // The next successful reattach is a failover from this loss.
          host_.sim().ctx().metrics()
              .counter("connprov.tunnel_losses_total", host_.name(),
                       "connprov")
              .add();
          failover_pending_ = true;
          loss_time_ = host_.sim().now();
        }
        if (connected && failover_pending_) {
          failover_pending_ = false;
          host_.sim().ctx().metrics()
              .counter("connprov.failovers_total", host_.name(), "connprov")
              .add();
          // Tunnel-loss -> re-attach latency: the recovery time the chaos
          // soak and docs/RESILIENCE.md bound.
          host_.sim().ctx().metrics()
              .histogram("connprov.failover_duration_ms", kLatencyBucketsMs,
                         host_.name(), "connprov")
              .observe(to_millis(host_.sim().now() - loss_time_));
        }
        if (on_change_) on_change_(internet_available());
      }) {}

ConnectionProvider::~ConnectionProvider() { stop(); }

void ConnectionProvider::start() {
  if (started_) return;
  started_ = true;
  tick();
  timer_.start(host_.sim(), kCheckInterval, [this] { tick(); },
               milliseconds(500));
}

void ConnectionProvider::stop() {
  if (!started_) return;
  started_ = false;
  timer_.stop();
  if (tunnel_.connected()) tunnel_.disconnect();
}

bool ConnectionProvider::internet_available() const {
  return host_.has_wired() || tunnel_.connected();
}

net::Address ConnectionProvider::internet_address() const {
  if (host_.has_wired()) return host_.wired_address();
  if (tunnel_.connected()) return tunnel_.tunnel_address();
  return {};
}

void ConnectionProvider::tick() {
  if (!started_) return;
  if (host_.has_wired()) {
    // Native uplink: a tunnel is redundant (and this node may now be a
    // gateway itself, serving others on the tunnel port).
    if (tunnel_.connected() || tunnel_.connecting()) tunnel_.disconnect();
    return;
  }
  if (tunnel_.connected() || tunnel_.connecting() || lookup_in_flight_) {
    return;
  }
  lookup_in_flight_ = true;
  ++discoveries_;
  host_.sim().ctx().metrics()
      .counter("connprov.gateway_discoveries_total", host_.name(), "connprov")
      .add();
  directory_.lookup(
      std::string(slp::kGatewayService), "", kLookupTimeout,
      [this](std::optional<slp::ServiceEntry> entry) {
        lookup_in_flight_ = false;
        if (!started_ || !entry || tunnel_.connected()) return;
        const auto ep = net::Endpoint::parse(entry->value);
        if (!ep) {
          log_.warn("gateway advertisement with bad endpoint '",
                    entry->value, "'");
          return;
        }
        log_.info("found gateway at ", ep->to_string(), ", opening tunnel");
        tunnel_.connect(*ep);
      });
}

}  // namespace siphoc
