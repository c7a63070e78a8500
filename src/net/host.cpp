#include "net/host.hpp"

#include <algorithm>
#include <stdexcept>

namespace siphoc::net {

Host::Host(sim::Simulator& sim, NodeId id, std::string name)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      rng_(sim.rng().fork()),
      log_(sim.ctx().log(), "host", name_) {}

void Host::attach_radio(RadioMedium& medium, Address address,
                        std::shared_ptr<MobilityModel> mobility) {
  medium_ = &medium;
  radio_address_ = address;
  mobility_ = std::move(mobility);
  RadioAttachment att;
  att.mac = id_;
  att.address = address;
  att.position = [this] { return position(); };
  // No mobility model means Position{} forever; both cases let the medium
  // cache the position in its spatial index.
  att.fixed_position = mobility_ == nullptr || mobility_->is_fixed();
  att.deliver = [this](const Frame& f) { on_radio_frame(f); };
  att.unicast_failed = [this](const Frame& f) {
    if (link_failure_) link_failure_(f);
  };
  medium.attach(std::move(att));
  // The radio's own subnet is always on-link.
  add_route({kManetPrefix, kManetPrefixLen, std::nullopt, Interface::kRadio,
             /*metric=*/100});
}

void Host::attach_wired(Internet& internet, Address address) {
  internet_ = &internet;
  wired_address_ = address;
  internet.attach(address, [this](const Datagram& d) {
    inject(d, Interface::kWired);
  });
  add_route({kInternetPrefix, kInternetPrefixLen, std::nullopt,
             Interface::kWired, /*metric=*/1});
  // Tunnel-client leases are publicly routable on the emulated Internet:
  // the owning gateway attaches them and relays (see siphoc::TunnelServer).
  add_route({kTunnelPrefix, kTunnelPrefixLen, std::nullopt,
             Interface::kWired, /*metric=*/2});
}

void Host::detach_wired() {
  if (internet_ == nullptr) return;
  internet_->detach(wired_address_);
  clear_routes(Interface::kWired);
  internet_ = nullptr;
  wired_address_ = Address{};
}

void Host::attach_tunnel(Address address, std::function<void(Datagram)> encap) {
  tunnel_address_ = address;
  tunnel_encap_ = std::move(encap);
}

void Host::detach_tunnel() {
  tunnel_address_ = Address{};
  tunnel_encap_ = nullptr;
  clear_routes(Interface::kTunnel);
}

bool Host::owns_address(Address a) const {
  if (a.is_loopback()) return true;
  return (a == radio_address_ && !radio_address_.is_unspecified()) ||
         (a == wired_address_ && !wired_address_.is_unspecified()) ||
         (a == tunnel_address_ && !tunnel_address_.is_unspecified());
}

Position Host::position() const {
  return mobility_ ? mobility_->position_at(sim_.now()) : Position{};
}

void Host::bind(std::uint16_t port, UdpHandler handler) {
  if (!udp_.try_emplace(port, std::move(handler)).second) {
    throw std::logic_error(name_ + ": UDP port " + std::to_string(port) +
                           " is already bound");
  }
}

void Host::unbind(std::uint16_t port) { udp_.erase(port); }

void Host::send_udp(std::uint16_t src_port, Endpoint dst, Bytes payload) {
  Datagram d;
  d.dst = dst.address;
  d.dst_port = dst.port;
  d.src_port = src_port;
  d.payload = std::move(payload);
  // Source address is filled in by send_datagram once the egress interface
  // is known; loopback traffic keeps 127.0.0.1.
  send_datagram(std::move(d));
}

void Host::send_broadcast(std::uint16_t src_port, std::uint16_t dst_port,
                          Bytes payload) {
  if (medium_ == nullptr) return;
  Datagram d;
  d.src = radio_address_;
  d.dst = kBroadcastAddress;
  d.src_port = src_port;
  d.dst_port = dst_port;
  d.ttl = 1;
  d.payload = std::move(payload);
  Frame frame{id_, kBroadcastMac, std::move(d)};
  medium_->transmit(frame);
}

void Host::add_route(RouteEntry entry) {
  // Replace an identical prefix/len/iface entry instead of duplicating.
  std::erase_if(routes_, [&](const RouteEntry& r) {
    return r.prefix == entry.prefix && r.prefix_len == entry.prefix_len &&
           r.iface == entry.iface;
  });
  routes_.push_back(entry);
}

void Host::clear_routes(Interface iface) {
  std::erase_if(routes_, [&](const RouteEntry& r) { return r.iface == iface; });
}

std::optional<RouteEntry> Host::lookup_route(Address dst) const {
  if (route_source_) {
    if (auto route = route_source_(dst)) return route;
    if (dst.in_prefix(kManetPrefix, kManetPrefixLen)) return std::nullopt;
  }
  const RouteEntry* best = nullptr;
  for (const auto& r : routes_) {
    if (!r.matches(dst)) continue;
    if (best == nullptr || r.prefix_len > best->prefix_len ||
        (r.prefix_len == best->prefix_len && r.metric < best->metric)) {
      best = &r;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

void Host::on_radio_frame(const Frame& frame) {
  const Datagram& d = frame.datagram;
  if (d.dst.is_broadcast() || owns_address(d.dst)) {
    RxInfo info{Interface::kRadio, frame.src_mac, d.corrupted};
    deliver_local(d, info);
    return;
  }
  forward(d);
}

void Host::forward(Datagram d) {
  if (!forwarding_) return;
  if (d.ttl <= 1) {
    ++stats_.ttl_drops;
    return;
  }
  d.ttl -= 1;
  ++stats_.forwarded;
  if (forward_tap_) forward_tap_(d);
  send_datagram(std::move(d));
}

void Host::send_datagram(Datagram d) {
  // Loopback and local addresses short-circuit.
  if (d.dst.is_loopback() || owns_address(d.dst)) {
    if (d.src.is_unspecified()) d.src = kLoopbackAddress;
    // Defer delivery so callers finish their own processing first (matches
    // kernel loopback semantics and avoids reentrancy in the SIP stack).
    sim_.schedule(microseconds(10), [this, d = std::move(d)] {
      deliver_local(d, RxInfo{Interface::kLoopback, id_, d.corrupted});
    });
    return;
  }
  if (d.dst.is_broadcast()) {
    if (medium_ != nullptr) {
      if (d.src.is_unspecified()) d.src = radio_address_;
      d.ttl = 1;
      medium_->transmit(Frame{id_, kBroadcastMac, std::move(d)});
    }
    return;
  }

  const auto route = lookup_route(d.dst);
  if (!route) {
    // Originated and forwarded datagrams alike may be claimed by the
    // routing daemon (on-demand discovery buffers them).
    if (route_resolver_ && route_resolver_(d)) return;
    ++stats_.no_route_drops;
    log_.debug("no route to ", d.dst.to_string(), ", dropping ", d.summary());
    return;
  }

  switch (route->iface) {
    case Interface::kRadio: {
      if (d.src.is_unspecified()) d.src = radio_address_;
      const Address next_hop = route->next_hop.value_or(d.dst);
      if (!transmit_radio(d, next_hop)) ++stats_.no_route_drops;
      break;
    }
    case Interface::kWired: {
      if (d.src.is_unspecified()) d.src = wired_address_;
      if (internet_ != nullptr) internet_->send(d);
      break;
    }
    case Interface::kTunnel: {
      if (d.src.is_unspecified()) d.src = tunnel_address_;
      if (tunnel_encap_) tunnel_encap_(std::move(d));
      break;
    }
    case Interface::kLoopback: {
      sim_.schedule(microseconds(10), [this, d = std::move(d)] {
        deliver_local(d, RxInfo{Interface::kLoopback, id_, d.corrupted});
      });
      break;
    }
  }
}

bool Host::transmit_radio(const Datagram& d, Address next_hop) {
  if (medium_ == nullptr) return false;
  const auto mac = medium_->resolve(next_hop);
  if (!mac) {
    log_.debug("cannot resolve next hop ", next_hop.to_string());
    return false;
  }
  medium_->transmit(Frame{id_, *mac, d});
  return true;
}

void Host::deliver_local(const Datagram& d, const RxInfo& info) {
  const auto it = udp_.find(d.dst_port);
  if (it == udp_.end()) {
    ++stats_.no_listener_drops;
    return;
  }
  ++stats_.udp_delivered;
  it->second(d, info);
}

void Host::inject(Datagram d, Interface iface) {
  if (d.dst.is_broadcast() || owns_address(d.dst)) {
    deliver_local(d, RxInfo{iface, id_, d.corrupted});
    return;
  }
  forward(std::move(d));
}

}  // namespace siphoc::net
