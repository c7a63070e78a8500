// AODV routing table (RFC 3561 section 6.2).
//
// The only copy of the daemon's routes: the protocol state (sequence
// numbers, lifetimes, precursor lists, validity) per destination. The host
// asks the daemon for a route on every send (net::Host::set_route_source),
// and the daemon answers with the entry here while it is valid.
#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "net/address.hpp"

namespace siphoc::routing {

struct AodvRoute {
  net::Address dst;
  std::uint32_t seqno = 0;
  bool valid_seqno = false;
  std::uint8_t hop_count = 0;
  net::Address next_hop;
  TimePoint expires{};
  bool valid = false;
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
  /// entry). Returns the entry if it was applied.
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
  std::unordered_map<net::Address, AodvRoute> routes_;
};

}  // namespace siphoc::routing
