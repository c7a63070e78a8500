// AODV routing table (RFC 3561 section 6.2).
//
// The only copy of the daemon's routes: the protocol state (sequence
// numbers, lifetimes, precursor lists, validity) per destination. The host
// asks the daemon for a route on every send (net::Host::set_route_source),
// and the daemon answers with the entry here while it is valid.
//
// Layout: one AodvRoute per destination in a dense vector, found through a
// flat address -> slot index (one probe per lookup), and never erased; an
// invalid entry keeps its seqno for the next RREQ. expire() is a linear
// pass over the slots. on_link_break() alone walks `order_`, an
// insert-only std::unordered_map that sees exactly the insertions of the
// unordered_map this table once was, so it lists broken routes in that
// map's iteration order: the order of a RERR's destinations, pinned by
// AodvTableTest.LinkBreakListsRoutesInTheParentOrder.
//
// update() may add a slot and so move every entry: no caller holds an
// AodvRoute* across an update() of a destination the table may not know.
#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/time.hpp"
#include "net/address.hpp"

namespace siphoc::routing {

struct AodvRoute {
  net::Address dst;
  std::uint32_t seqno = 0;
  net::Address next_hop;
  std::uint8_t hop_count = 0;
  bool valid_seqno = false;
  bool valid = false;
  TimePoint expires{};
  std::set<net::Address> precursors;
};

class AodvTable {
 public:
  const AodvRoute* find(net::Address dst) const;
  AodvRoute* find(net::Address dst);

  /// Valid, unexpired entry or nullptr.
  const AodvRoute* active(net::Address dst, TimePoint now) const;

  /// Creates or updates an entry following the RFC 3561 update rules
  /// (section 6.2: newer seqno, or same seqno with fewer hops, or invalid
  /// entry). Returns the entry if it was applied. Creating an entry
  /// invalidates every AodvRoute pointer the table handed out.
  AodvRoute* update(net::Address dst, std::uint32_t seqno, bool valid_seqno,
                    std::uint8_t hop_count, net::Address next_hop,
                    TimePoint expires);

  /// Extends the lifetime of an entry (route in active use).
  void refresh(net::Address dst, TimePoint expires);

  /// Marks invalid, bumps seqno (RFC 6.11), returns affected precursors.
  std::vector<net::Address> invalidate(net::Address dst);

  /// Invalidates every route whose next hop is `neighbor`; returns the list
  /// of (dst, seqno) pairs for the RERR.
  std::vector<std::pair<net::Address, std::uint32_t>> on_link_break(
      net::Address neighbor);

  /// Drops entries whose lifetime passed (valid -> invalid).
  void expire(TimePoint now);

  void add_precursor(net::Address dst, net::Address precursor);

  std::size_t size() const { return routes_.size(); }
  std::size_t valid_count() const;

 private:
  std::vector<AodvRoute> routes_;
  FlatMap<std::uint32_t, std::uint32_t> index_;  // dst -> slot in routes_
  std::unordered_map<net::Address, std::uint32_t> order_;  // dst -> slot
};

}  // namespace siphoc::routing
