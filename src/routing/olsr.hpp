// OLSR daemon (RFC 3626 subset) over the emulated host stack.
//
// Implements link sensing with symmetry confirmation via HELLO, two-hop
// neighborhood tracking, greedy MPR selection, TC origination by nodes with
// MPR selectors, MPR-based default forwarding with duplicate suppression,
// a topology set with validity times, and hop-count shortest-path (BFS)
// route computation; the host asks the daemon for its routes on every send
// (net::Host::set_route_source). A route recalculation is skipped while its
// inputs provably cannot have changed and otherwise only snapshots them: the
// BFS runs on the first read of the routes. MPR selection runs only when the
// set is used, evaluated at the time of its last input change
// (docs/PERFORMANCE.md section 5).
//
// SIPHoc integration: the RoutingHandler seam fires for every originated
// HELLO and TC, and for every *first* reception of a message carrying an
// extension (forwarded copies keep the original extension, so a TC floods
// the advertisement to every node -- the proactive piggyback channel).
#pragma once

#include <set>
#include <unordered_map>

#include "net/host.hpp"
#include "routing/olsr_codec.hpp"
#include "routing/protocol.hpp"

namespace siphoc::routing {

class Olsr final : public Protocol {
 public:
  /// RFC 3626 emission intervals and holding times (sections 18.2, 18.3).
  static constexpr Duration kHelloInterval = seconds(2);
  static constexpr Duration kTcInterval = seconds(5);
  static constexpr Duration kNeighborHold = seconds(6);
  static constexpr Duration kTopologyHold = seconds(15);
  /// Route recalculation runs this long after the first input change, so a
  /// burst of changes costs one recalculation.
  static constexpr Duration kRouteRecalcDelay = milliseconds(20);

  explicit Olsr(net::Host& host);
  ~Olsr() override;

  std::string_view name() const override { return "olsr"; }
  void start() override;
  void stop() override;
  void set_handler(RoutingHandler* handler) override { handler_ = handler; }

  /// OLSR is proactive: there is no on-demand flood; lookups are served
  /// from converged caches. Returns false so callers fall back to waiting.
  bool flood_query(Bytes) override { return false; }

  /// Early advertisement round: emit HELLO and TC now instead of waiting
  /// for the next period (used right after a registration so the new SIP
  /// binding propagates promptly).
  void nudge_advertisement() override;

  const RoutingStats& stats() const override { return stats_; }
  std::size_t route_count() const override { return routes().size(); }
  std::size_t route_record_bytes() const override { return sizeof(Route); }

  // Introspection for tests.
  std::set<net::Address> symmetric_neighbors() const {
    return symmetric_neighbors(now());
  }
  /// Brings the MPR set up to date first (see mprs_dirty_).
  const std::set<net::Address>& mpr_set();
  const std::set<net::Address>& mpr_selectors() const { return selectors_; }
  bool has_route(net::Address dst) const;

 private:
  struct LinkInfo {
    TimePoint last_heard{};
    TimePoint sym_until{};  // symmetric while now < sym_until
    bool is_mpr_of_us = false;
    std::uint32_t id = 0;  // interned neighbor address
  };
  struct TopologyEdge {
    std::uint32_t last_hop;  // TC originator (interned node id)
    std::uint32_t dest;      // advertised neighbor (interned node id)
    std::uint16_t ansn = 0;
    bool erased = false;  // dropped by a newer ANSN; compacted by expire_state
    TimePoint expires{};
  };
  struct Route {
    net::Address dst;
    net::Address next_hop;
    int metric = 0;
  };

  struct Metrics {
    Metrics(MetricsRegistry& registry, std::string_view node);
    RoutingMetrics routing;
    Counter& hello_tx;
    Counter& tc_tx;
    Counter& tc_forwarded;
  };

  net::Address self() const { return host_.manet_address(); }
  TimePoint now() const { return host_.sim().now(); }

  void send_hello();
  void send_tc();
  /// The message of tx_packet_ with the header of a fresh message of ours;
  /// the caller fills the body and the extension, then calls transmit().
  olsr::Message& originate(olsr::MsgType type, Duration vtime,
                           std::uint8_t ttl);
  /// Encodes and broadcasts tx_packet_ under the next packet sequence number.
  void transmit();
  void on_packet(const net::Datagram& d, const net::RxInfo& rx);
  void process_hello(const olsr::Message& m, net::Address from);
  void process_tc(const olsr::Message& m);
  void maybe_forward(const olsr::Message& m, net::Address prev_hop);

  std::set<net::Address> symmetric_neighbors(TimePoint t) const;
  /// Greedy MPR cover of two_hop_ over the links symmetric at `t`.
  void select_mprs(TimePoint t);
  /// Records an MPR input change at now(): every HELLO, and every
  /// expire_state() pass that removed a link or an edge.
  void mark_mprs_dirty() {
    mprs_dirty_ = true;
    mprs_time_ = now();
  }
  void schedule_route_calc();
  /// Snapshots the route inputs (see route_seeds_) unless they provably
  /// have not changed since the last snapshot.
  void calculate_routes();
  /// The routes of the last snapshot, sorted by dst; runs the BFS over the
  /// snapshot on the first read after calculate_routes() took it.
  const std::vector<Route>& routes() const;
  /// The host's route to `dst` (see net::Host::set_route_source): the
  /// route of the last calculation.
  std::optional<net::RouteEntry> route_to(net::Address dst) const;
  void expire_state();
  /// Dense id of a node address, assigned on first sight and never reused.
  std::uint32_t intern(net::Address a);

  bool is_symmetric(net::Address n) const {
    const auto it = links_.find(n);
    return it != links_.end() && it->second.sym_until > now();
  }

  net::Host& host_;
  Logger log_;
  RoutingHandler* handler_ = nullptr;
  bool running_ = false;

  std::uint16_t pkt_seq_ = 0;
  std::uint16_t msg_seq_ = 0;
  std::uint16_t ansn_ = 0;

  std::unordered_map<net::Address, LinkInfo> links_;
  // neighbor -> its symmetric neighbors (from HELLO) = two-hop candidates,
  // sorted and unique; rebuilt in place by every HELLO.
  std::unordered_map<net::Address, std::vector<net::Address>> two_hop_;
  std::set<net::Address> mprs_;       // we relay through these
  std::set<net::Address> selectors_;  // these relay through us
  // The MPR set is a pure function of links_, two_hop_ and the time of
  // evaluation, and the two maps change only in process_hello and
  // expire_state, which both call mark_mprs_dirty(). So mpr_set()
  // recomputes only when the set is used, evaluated at mprs_time_ (the last
  // change), not now: a link whose symmetry lapsed since then must not
  // change the set.
  bool mprs_dirty_ = false;
  TimePoint mprs_time_{};
  // Interned node ids: node_addrs_[id] is the address, ids_by_addr_ the
  // reverse map as (address, id) pairs sorted by address, so walking it
  // visits ids in address order. Topology edges, the route snapshot and
  // the BFS use ids; self_id_ is ours, interned by start().
  std::vector<std::pair<net::Address, std::uint32_t>> ids_by_addr_;
  std::vector<net::Address> node_addrs_;
  std::uint32_t self_id_ = 0;
  // Topology set in scan order (insertion order of surviving edges, which
  // decides next-hop ties). Entries dropped by a newer ANSN stay as
  // tombstones until expire_state() compacts the vector in order.
  std::vector<TopologyEdge> topology_;
  // originator id -> slots in topology_ of its edges that are not erased.
  std::vector<std::vector<std::uint32_t>> edges_by_originator_;
  // Duplicate set (RFC 3626 3.4): the msg_seqs of received TCs with their
  // expiry, per interned originator, in arrival order, which is also
  // expiry order (every key is held 30 s). A key leaves at the first
  // housekeeping tick at or after its expiry: on_packet drops the front
  // entries that expired by the last tick before it looks a key up. Times
  // are virtual microseconds, whose 48 bits last 8.9 years, so an entry
  // packs into 8 bytes.
  struct SeenSeq {
    std::uint64_t expires_us : 48;
    std::uint64_t msg_seq : 16;
  };
  static std::uint64_t micros(TimePoint t) {
    return static_cast<std::uint64_t>(t.time_since_epoch().count());
  }
  std::vector<std::vector<SeenSeq>> seen_seqs_;
  std::uint64_t last_tick_us_ = 0;  // the last expire_state() pass

  // Input snapshot of the last route calculation: the symmetric neighbors'
  // ids in address order (the BFS seeds) and the live topology edges as
  // flat last_hop/dest id pairs in scan order. routes_ is the BFS over it,
  // run by routes() on the first read after a new snapshot (routes_stale_).
  // Ids are never reused and one interned after the snapshot is not in it,
  // so the lazy BFS returns what an eager one at snapshot time would have.
  std::vector<std::uint32_t> route_seeds_;
  std::vector<std::uint32_t> route_edges_;
  mutable std::vector<Route> routes_;
  mutable bool routes_stale_ = false;
  // Set by every mutation that can change the snapshot (a link turning
  // symmetric, a new, revived or erased edge, a link or edge removal,
  // stop()). routes_deadline_ is the earliest sym_until / expires in the
  // last snapshot: the inputs also change with time, when a link lapses or
  // an edge expires without any message. Before it, a clean recalc cannot
  // differ from the last one and returns without taking a snapshot.
  bool routes_dirty_ = true;
  TimePoint routes_deadline_{};
  // Reused so the receive and send paths keep their vectors' capacity:
  // every packet is decoded into rx_packet_ (see olsr::decode_frame), and
  // every packet we send is built in the one message of tx_packet_. Both
  // are safe to reuse because a packet is never delivered synchronously:
  // on_packet cannot run again before it returns.
  olsr::Packet rx_packet_;
  olsr::Packet tx_packet_{0, std::vector<olsr::Message>(1)};
  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer tc_timer_;
  sim::PeriodicTimer housekeeping_timer_;
  sim::EventHandle route_calc_;
  bool route_calc_pending_ = false;
  RoutingStats stats_;
  Metrics metrics_;
};

}  // namespace siphoc::routing
