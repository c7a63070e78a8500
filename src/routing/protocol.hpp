// Routing protocol interface and the RoutingHandler extension seam.
//
// The paper's MANET SLP "works by piggybacking service information onto
// routing messages ... by capturing routing messages (using the libipq
// library under linux) and extending them with service information. To
// assure generality, the routing specific functionality is encapsulated
// within a routing handler" (section 2).
//
// In this emulation the interception point is explicit: every routing
// daemon frames its control packets as [base message][extension bytes] and
// calls the installed RoutingHandler
//   * right before transmission, to collect extension bytes to append, and
//   * right after reception, handing over the extension bytes it stripped.
// A handler may additionally *answer* a flooded request (AODV RREQ) --
// the daemon then emits an RREP on the handler's behalf carrying the reply
// extension, which simultaneously establishes the route to the answering
// node. That coupling of service resolution with route establishment is the
// core SIPHoc idea.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "net/address.hpp"

namespace siphoc::routing {

/// What kind of routing packet the extension rides on.
enum class PacketKind : std::uint8_t {
  kAodvRreq,
  kAodvRrep,
  kAodvRerr,
  kAodvHello,
  kOlsrHello,
  kOlsrTc,
};

std::string_view to_string(PacketKind kind);

/// Metadata about the routing packet being extended/inspected.
struct PacketInfo {
  PacketKind kind{};
  net::Address originator;  // node that created the packet
  net::Address target;      // RREQ: sought destination (may be unspecified
                            // for pure service-discovery floods)
};

/// Result of inspecting an incoming extension.
struct HandlerVerdict {
  /// True when the handler wants to answer a flooded request; the daemon
  /// sends a reply packet (AODV: RREP) carrying `reply_extension`.
  bool answer = false;
  Bytes reply_extension;
};

class RoutingHandler {
 public:
  virtual ~RoutingHandler() = default;

  /// Called before a routing packet is serialized onto the wire. Returns
  /// the extension bytes to append (empty = nothing to piggyback).
  virtual Bytes on_outgoing(const PacketInfo& info) = 0;

  /// Called for every received routing packet that carried extension bytes
  /// (and also with an empty span, so handlers can observe the control
  /// traffic pattern). `from` is the packet originator.
  virtual HandlerVerdict on_incoming(const PacketInfo& info,
                                     std::span<const std::uint8_t> extension,
                                     net::Address from) = 0;
};

/// Route discovery counts every routing daemon exposes. Control traffic is
/// counted in the registry only (RoutingMetrics, aodv.rerr_tx_total).
struct RoutingStats {
  std::uint64_t route_discoveries = 0;
  std::uint64_t discovery_failures = 0;
};

/// Registry series shared by both daemons: the same three names with the
/// component label telling AODV from OLSR, so overhead benches can sum
/// across protocols without knowing which one ran. Bound once per daemon
/// instance against its simulation's registry; see docs/METRICS.md for the
/// catalog entry of each name.
struct RoutingMetrics {
  RoutingMetrics(MetricsRegistry& registry, std::string_view component,
                 std::string_view node)
      : control_packets(registry.counter("routing.control_packets_total",
                                         node, component)),
        control_bytes(registry.counter("routing.control_bytes_total", node,
                                       component)),
        piggyback_bytes(registry.counter("routing.piggyback_bytes_total",
                                         node, component)),
        decode_errors(registry.counter("routing.decode_errors_total", node,
                                       component)) {}

  Counter& control_packets;
  Counter& control_bytes;
  Counter& piggyback_bytes;
  /// Control packets rejected by the codec (CRC mismatch, truncation,
  /// unknown type) -- the chaos engine's corruption injector feeds this.
  Counter& decode_errors;
};

/// Common surface of the MANET routing daemons (AODV, OLSR).
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;
  virtual void start() = 0;
  virtual void stop() = 0;

  /// Installs the piggyback seam (at most one handler, the MANET SLP
  /// daemon's protocol plugin).
  virtual void set_handler(RoutingHandler* handler) = 0;

  /// Floods a service-discovery request carrying `extension` through the
  /// network. Reactive protocols implement this as a destination-less RREQ;
  /// proactive protocols may not need it (return false). Used by MANET SLP
  /// for cache-miss lookups.
  virtual bool flood_query(Bytes extension) = 0;

  /// Asks the daemon to (re)announce piggybacked state soon -- proactive
  /// protocols trigger an early HELLO/TC round. Reactive protocols may
  /// ignore it (their state rides on demand).
  virtual void nudge_advertisement() {}

  virtual const RoutingStats& stats() const = 0;

  /// Destinations the daemon currently holds a usable route to: the
  /// routes it answers the host's lookups with while it runs.
  virtual std::size_t route_count() const = 0;

  /// Bytes of the record the daemon keeps per route (sizeof, not counting
  /// heap storage the record owns): the per-route cost of its state.
  virtual std::size_t route_record_bytes() const = 0;
};

}  // namespace siphoc::routing
