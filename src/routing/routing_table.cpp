#include "routing/routing_table.hpp"

namespace siphoc::routing {

const AodvRoute* AodvTable::find(net::Address dst) const {
  const std::uint32_t* slot = index_.find(dst.value());
  return slot == nullptr ? nullptr : &routes_[*slot];
}

AodvRoute* AodvTable::find(net::Address dst) {
  const std::uint32_t* slot = index_.find(dst.value());
  return slot == nullptr ? nullptr : &routes_[*slot];
}

const AodvRoute* AodvTable::active(net::Address dst, TimePoint now) const {
  const AodvRoute* r = find(dst);
  return (r != nullptr && r->valid && r->expires > now) ? r : nullptr;
}

AodvRoute* AodvTable::update(net::Address dst, std::uint32_t seqno,
                             bool valid_seqno, std::uint8_t hop_count,
                             net::Address next_hop, TimePoint expires) {
  const auto [slot, added] = index_.emplace(
      dst.value(), static_cast<std::uint32_t>(routes_.size()));
  if (added) {
    routes_.emplace_back();
    order_.emplace(dst, *slot);
  }
  AodvRoute& r = routes_[*slot];
  const bool fresh = r.dst.is_unspecified();
  if (fresh) r.dst = dst;

  // RFC 3561 6.2: accept when (i) no entry, (ii) incoming seqno newer,
  // (iii) equal seqno but smaller hop count, (iv) entry invalid.
  const bool newer =
      valid_seqno &&
      (!r.valid_seqno ||
       static_cast<std::int32_t>(seqno - r.seqno) > 0);
  const bool equal_better =
      valid_seqno && r.valid_seqno && seqno == r.seqno &&
      hop_count < r.hop_count;
  const bool applies = fresh || !r.valid || newer || equal_better ||
                       (!valid_seqno && !r.valid_seqno);
  if (!applies) {
    // Still refresh lifetime when the data confirms the current route.
    if (r.valid && r.next_hop == next_hop && expires > r.expires)
      r.expires = expires;
    return nullptr;
  }

  if (valid_seqno) {
    r.seqno = seqno;
    r.valid_seqno = true;
  }
  r.hop_count = hop_count;
  r.next_hop = next_hop;
  r.expires = expires;
  r.valid = true;
  return &r;
}

void AodvTable::refresh(net::Address dst, TimePoint expires) {
  AodvRoute* r = find(dst);
  if (r != nullptr && r->valid && expires > r->expires) r->expires = expires;
}

std::vector<net::Address> AodvTable::invalidate(net::Address dst) {
  AodvRoute* r = find(dst);
  if (r == nullptr || !r->valid) return {};
  r->valid = false;
  if (r->valid_seqno) ++r->seqno;  // RFC 6.11: increment on invalidation
  std::vector<net::Address> precursors(r->precursors.begin(),
                                       r->precursors.end());
  r->precursors.clear();
  return precursors;
}

std::vector<std::pair<net::Address, std::uint32_t>> AodvTable::on_link_break(
    net::Address neighbor) {
  std::vector<std::pair<net::Address, std::uint32_t>> broken;
  for (const auto& [dst, slot] : order_) {
    AodvRoute& r = routes_[slot];
    if (r.valid && r.next_hop == neighbor) {
      r.valid = false;
      if (r.valid_seqno) ++r.seqno;
      broken.emplace_back(dst, r.seqno);
      r.precursors.clear();
    }
  }
  return broken;
}

void AodvTable::expire(TimePoint now) {
  for (AodvRoute& r : routes_) {
    if (r.valid && r.expires <= now) {
      r.valid = false;
      r.precursors.clear();
    }
  }
}

void AodvTable::add_precursor(net::Address dst, net::Address precursor) {
  AodvRoute* r = find(dst);
  if (r != nullptr) r->precursors.insert(precursor);
}

std::size_t AodvTable::valid_count() const {
  std::size_t n = 0;
  for (const AodvRoute& r : routes_) {
    if (r.valid) ++n;
  }
  return n;
}

}  // namespace siphoc::routing
