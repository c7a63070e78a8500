// AODV daemon (RFC 3561 subset) over the emulated host stack.
//
// Implements: on-demand route discovery with expanding ring search and
// binary exponential retry, destination/originator sequence numbers, RREQ-ID
// duplicate suppression, reverse/forward route setup, HELLO-based neighbor
// liveness, link-layer failure feedback, RERR propagation along precursor
// lists, and packet buffering during discovery.
//
// Additionally exposes the two SIPHoc integration points:
//   * the RoutingHandler seam on every RREQ/RREP/HELLO (piggybacking), and
//   * flood_query(): a destination-less RREQ used as a service-discovery
//     flood; any node whose handler answers replies with an RREP that
//     carries the reply extension *and* establishes the route back to it.
//
// Soft state sits in flat tables, so a flooded RREQ costs one probe per
// address it touches and the 500 ms housekeeping tick skips what it can:
//   * the RREQ duplicate cache (RreqCache) forgets ids lazily: an id is a
//     duplicate while its latest expiry is later than the last tick;
//   * routes live in AodvTable's dense slots (see routing_table.hpp);
//   * a neighbor's last-heard time sits in a flat-indexed slot, and the
//     neighbor set `neighbors_` changes only when membership does: an
//     insert on the first hear after an absence, an erase on a loss. It
//     sees the membership changes the unordered_map of last-heard times
//     it replaces saw, so check_neighbors() visits lost neighbors, and
//     sends their RERRs, in that map's order (AodvNeighborLoss pins it).
#pragma once

#include <deque>
#include <map>
#include <unordered_set>

#include "common/flat_map.hpp"
#include "net/host.hpp"
#include "routing/aodv_codec.hpp"
#include "routing/protocol.hpp"
#include "routing/routing_table.hpp"

namespace siphoc::routing {

/// RREQ duplicate suppression (RFC 3561 6.3). An id stays a duplicate
/// until the first housekeeping tick at or after its latest expiry, not
/// just until that instant: exactly while the expiry is later than the
/// last tick. tick() only records its time; entries at or before it read
/// as absent and leave when the table next rebuilds to grow. A stopped
/// daemon does not tick, so its ids stay until the first tick after a
/// restart.
class RreqCache {
 public:
  /// Records RREQ (orig, id) as seen until `expiry`; true when it already
  /// was.
  bool note(net::Address orig, std::uint32_t id, TimePoint expiry);
  void tick(TimePoint now) { last_tick_ = now; }

  /// Slots held, stale entries included.
  std::size_t capacity() const { return expiry_.capacity(); }

 private:
  // (orig << 32) | id -> its latest expiry
  FlatMap<std::uint64_t, TimePoint> expiry_;
  TimePoint last_tick_ = TimePoint::min();
};

class Aodv final : public Protocol {
 public:
  /// RFC 3561 section 10 parameters.
  static constexpr Duration kHelloInterval = seconds(1);
  static constexpr int kAllowedHelloLoss = 2;
  static constexpr Duration kActiveRouteTimeout = seconds(3);
  static constexpr Duration kNodeTraversalTime = milliseconds(40);
  static constexpr int kNetDiameter = 35;
  static constexpr int kRreqRetries = 2;
  /// Expanding ring search (RFC 3561 6.4): the first RREQ TTL, its step,
  /// and the TTL past which the next try floods the whole network.
  static constexpr int kTtlStart = 2;
  static constexpr int kTtlIncrement = 2;
  static constexpr int kTtlThreshold = 7;
  /// Datagrams buffered per destination during its discovery; a full
  /// buffer drops its oldest.
  static constexpr std::size_t kMaxBufferedPerDst = 16;
  /// How long an RREQ id stays a duplicate after it was last heard.
  static constexpr Duration kRreqIdCacheTtl = seconds(3);
  static constexpr Duration kNetTraversalTime =
      2 * kNodeTraversalTime * kNetDiameter;
  static constexpr Duration kMyRouteTimeout = 2 * kActiveRouteTimeout;
  static constexpr Duration ring_traversal_time(int ttl) {
    return 2 * kNodeTraversalTime * (ttl + 2);
  }

  explicit Aodv(net::Host& host);
  ~Aodv() override;

  std::string_view name() const override { return "aodv"; }
  void start() override;
  void stop() override;
  void set_handler(RoutingHandler* handler) override { handler_ = handler; }
  bool flood_query(Bytes extension) override;
  const RoutingStats& stats() const override { return stats_; }
  std::size_t route_count() const override { return table_.valid_count(); }
  std::size_t route_record_bytes() const override {
    return sizeof(AodvRoute);
  }

  const AodvTable& table() const { return table_; }
  const RreqCache& rreq_cache() const { return rreq_seen_; }

  /// Number of datagrams currently buffered awaiting discovery.
  std::size_t buffered_count() const;

 private:
  struct PendingDiscovery {
    int ttl = 0;
    int retries = 0;
    std::deque<net::Datagram> buffered;
    sim::EventHandle timeout;
    bool service_query = false;
    Bytes query_extension;
    TimePoint started{};  // discovery latency span start
  };

  struct Metrics {
    Metrics(MetricsRegistry& registry, std::string_view node);
    MetricsRegistry* registry;  // the simulation's registry (spans)
    RoutingMetrics routing;
    Counter& rreq_originated;
    Counter& rreq_forwarded;
    Counter& rrep_tx;
    Counter& rerr_tx;
    Counter& hello_tx;
    Counter& discoveries;
    Counter& discovery_failures;
    Histogram& discovery_ms;
  };

  net::Address self() const { return host_.manet_address(); }
  TimePoint now() const { return host_.sim().now(); }

  // --- packet TX ---------------------------------------------------------
  void send_packet(const aodv::Message& message, net::Address unicast_to,
                   const PacketInfo& info);
  /// Counts one transmitted control packet of `wire_bytes`, `ext_bytes` of
  /// them piggybacked extension, in the stats and the registry.
  void count_tx(std::size_t wire_bytes, std::size_t ext_bytes);
  void broadcast_rreq(aodv::Rreq rreq, const Bytes& query_ext);
  void send_hello();

  // --- packet RX ---------------------------------------------------------
  void on_packet(const net::Datagram& d, const net::RxInfo& rx);
  void handle_rreq(const aodv::Rreq& m, std::span<const std::uint8_t> ext,
                   net::Address from);
  void handle_rrep(const aodv::Rrep& m, std::span<const std::uint8_t> ext,
                   net::Address from);
  void handle_rerr(const aodv::Rerr& m, net::Address from);

  // --- discovery ---------------------------------------------------------
  bool on_no_route(net::Datagram d);
  void start_discovery(net::Address dst);
  void send_rreq_for(net::Address dst, PendingDiscovery& pending);
  void on_discovery_timeout(net::Address dst);
  void flush_buffered(net::Address dst);

  // --- neighbor/liveness --------------------------------------------------
  void on_neighbor_heard(net::Address neighbor);
  void check_neighbors();
  void handle_link_break(net::Address neighbor);
  void send_rerr(const std::vector<std::pair<net::Address, std::uint32_t>>&
                     unreachable,
                 const std::vector<net::Address>& precursors);

  /// The host's route to `dst` (see net::Host::set_route_source): the
  /// table entry while it is valid. Not active(): an entry past its
  /// lifetime keeps routing until housekeeping expires it.
  std::optional<net::RouteEntry> route_to(net::Address dst) const;

  net::Host& host_;
  Logger log_;
  RoutingHandler* handler_ = nullptr;
  bool running_ = false;

  AodvTable table_;
  std::uint32_t seqno_ = 1;
  std::uint32_t rreq_id_ = 0;
  std::map<net::Address, PendingDiscovery> discoveries_;
  /// RreqCache::note() with the expiry of an id heard now.
  bool note_rreq(net::Address orig, std::uint32_t id) {
    return rreq_seen_.note(orig, id, now() + kRreqIdCacheTtl);
  }
  RreqCache rreq_seen_;
  // Neighbor address -> when last heard; TimePoint::min() while it is not
  // in neighbors_.
  FlatMap<std::uint32_t, TimePoint> heard_;
  std::unordered_set<net::Address> neighbors_;

  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer housekeeping_timer_;
  RoutingStats stats_;
  Metrics metrics_;
};

}  // namespace siphoc::routing
