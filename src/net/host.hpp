// Host: the emulated node operating-system network stack.
//
// One Host corresponds to one laptop/iPAQ of the paper's testbed. It owns:
//   * a loopback interface (the VoIP app reaches its SIPHoc proxy via
//     127.0.0.1, exactly as the paper configures "outbound proxy =
//     localhost"),
//   * optionally a radio interface on the shared wireless medium,
//   * optionally a wired interface on the Internet segment (gateway nodes
//     and SIP provider servers),
//   * optionally a tunnel interface installed by the Connection Provider,
//   * a short table of static prefix routes (the on-link MANET subnet, the
//     Internet, tunnel leases) with longest-prefix-match lookup; a running
//     MANET routing daemon (AODV/OLSR) answers for the MANET subnet itself
//     through set_route_source, so its routes live in the daemon only,
//   * a UDP port space with bind/sendto semantics; each port has one owner.
//
// IP forwarding is on by default: datagrams addressed elsewhere are
// re-routed with TTL decrement, which is what turns a set of hosts plus a
// routing protocol into a multihop MANET.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/internet.hpp"
#include "net/medium.hpp"
#include "net/mobility.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace siphoc::net {

enum class Interface : std::uint8_t {
  kLoopback,
  kRadio,
  kWired,
  kTunnel,
};

struct RouteEntry {
  Address prefix;
  int prefix_len = 32;
  std::optional<Address> next_hop;  // nullopt: destination is on-link
  Interface iface = Interface::kRadio;
  int metric = 1;

  bool matches(Address dst) const { return dst.in_prefix(prefix, prefix_len); }
};

/// Delivery context handed to UDP handlers alongside the datagram.
struct RxInfo {
  Interface iface = Interface::kLoopback;
  NodeId prev_hop_mac = 0;  // radio only: MAC of the transmitting neighbor
  /// Mirrors Datagram::corrupted for handlers that only look at the
  /// delivery context (chaos-engine ground truth, never on the wire).
  bool corrupted = false;
};

using UdpHandler = std::function<void(const Datagram&, const RxInfo&)>;

class Host {
 public:
  Host(sim::Simulator& sim, NodeId id, std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }

  // --- interfaces -------------------------------------------------------
  void attach_radio(RadioMedium& medium, Address address,
                    std::shared_ptr<MobilityModel> mobility);
  void attach_wired(Internet& internet, Address address);
  void detach_wired();

  /// Installs a tunnel interface: datagrams routed to it are handed to
  /// `encapsulate` (the tunnel client wraps and ships them over the MANET).
  void attach_tunnel(Address address, std::function<void(Datagram)> encap);
  void detach_tunnel();

  Address manet_address() const { return radio_address_; }
  Address wired_address() const { return wired_address_; }
  Address tunnel_address() const { return tunnel_address_; }
  bool has_wired() const { return internet_ != nullptr; }
  bool has_tunnel() const { return static_cast<bool>(tunnel_encap_); }
  bool owns_address(Address a) const;

  Position position() const;
  RadioMedium* medium() { return medium_; }
  Internet* internet() { return internet_; }

  // --- UDP --------------------------------------------------------------
  /// A port has one owner: binding one that is already bound throws
  /// std::logic_error and leaves the first handler in place.
  void bind(std::uint16_t port, UdpHandler handler);
  void unbind(std::uint16_t port);
  bool bound(std::uint16_t port) const { return udp_.contains(port); }

  /// Sends a UDP payload; the source address is picked from the egress
  /// interface. A datagram with no route is offered to the route resolver
  /// (on-demand discovery may buffer it); one nobody claims is dropped and
  /// counted in no_route_drops. The sender is not told either way.
  void send_udp(std::uint16_t src_port, Endpoint dst, Bytes payload);

  /// One-hop link-local broadcast on the radio (TTL 1). Routing daemons and
  /// the multicast-SLP baseline use this as their flooding primitive.
  void send_broadcast(std::uint16_t src_port, std::uint16_t dst_port,
                      Bytes payload);

  /// Full-control send (routing daemons forward buffered datagrams with it);
  /// routes, resolves and drops like send_udp.
  void send_datagram(Datagram d);

  // --- routing table ------------------------------------------------------
  void add_route(RouteEntry entry);
  void clear_routes(Interface iface);
  /// The route a datagram to `dst` takes: the route source's /32 when it
  /// has one; none for another MANET address while a source is installed
  /// (the daemon owns the subnet, so the on-link /24 must not make the
  /// address look one hop away); otherwise the static route with the
  /// longest prefix, then the lowest metric, then the first added.
  std::optional<RouteEntry> lookup_route(Address dst) const;
  /// The static routes only.
  const std::vector<RouteEntry>& routes() const { return routes_; }

  /// The running MANET routing daemon's own route to a destination, or
  /// nullopt when it has none. Installed by the daemon's start() and
  /// cleared by its stop().
  using RouteSource = std::function<std::optional<RouteEntry>(Address)>;
  void set_route_source(RouteSource source) {
    route_source_ = std::move(source);
  }

  /// The MANET routing daemon claims datagrams that have no route yet
  /// (on-demand protocols buffer them and start a route discovery). Return
  /// true to take ownership; false lets the host drop the datagram.
  void set_route_resolver(std::function<bool(Datagram)> resolver) {
    route_resolver_ = std::move(resolver);
  }

  /// Notified when a unicast radio frame found no reachable target (missing
  /// 802.11 ACK); AODV turns this into a RERR.
  void set_link_failure_listener(std::function<void(const Frame&)> listener) {
    link_failure_ = std::move(listener);
  }

  /// Observes every datagram this host forwards (not locally addressed);
  /// AODV refreshes active-route lifetimes from it.
  void set_forward_tap(std::function<void(const Datagram&)> tap) {
    forward_tap_ = std::move(tap);
  }

  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  struct HostStats {
    std::uint64_t udp_delivered = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t ttl_drops = 0;
    std::uint64_t no_listener_drops = 0;
  };
  const HostStats& stats() const { return stats_; }

  /// Entry point for tunnel decapsulation: injects a datagram as if it
  /// arrived on the tunnel interface.
  void inject(Datagram d, Interface iface);

 private:
  void on_radio_frame(const Frame& frame);
  /// Forwards a datagram addressed elsewhere: TTL check and decrement,
  /// the forward tap, then routing.
  void forward(Datagram d);
  void deliver_local(const Datagram& d, const RxInfo& info);
  bool transmit_radio(const Datagram& d, Address next_hop);

  sim::Simulator& sim_;
  NodeId id_;
  std::string name_;
  Rng rng_;
  Logger log_;

  RadioMedium* medium_ = nullptr;
  Address radio_address_;
  std::shared_ptr<MobilityModel> mobility_;

  Internet* internet_ = nullptr;
  Address wired_address_;

  Address tunnel_address_;
  std::function<void(Datagram)> tunnel_encap_;

  std::vector<RouteEntry> routes_;
  RouteSource route_source_;
  std::map<std::uint16_t, UdpHandler> udp_;
  std::function<bool(Datagram)> route_resolver_;
  std::function<void(const Frame&)> link_failure_;
  std::function<void(const Datagram&)> forward_tap_;
  bool forwarding_ = true;
  HostStats stats_;
};

}  // namespace siphoc::net
