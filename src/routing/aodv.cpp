#include "routing/aodv.hpp"

#include <algorithm>

namespace siphoc::routing {

using aodv::Rerr;
using aodv::Rrep;
using aodv::Rreq;

Aodv::Metrics::Metrics(MetricsRegistry& r, std::string_view node)
    : registry(&r),
      routing(r, "aodv", node),
      rreq_originated(r.counter("aodv.rreq_originated_total", node, "aodv")),
      rreq_forwarded(r.counter("aodv.rreq_forwarded_total", node, "aodv")),
      rrep_tx(r.counter("aodv.rrep_tx_total", node, "aodv")),
      rerr_tx(r.counter("aodv.rerr_tx_total", node, "aodv")),
      hello_tx(r.counter("aodv.hello_tx_total", node, "aodv")),
      discoveries(r.counter("aodv.route_discoveries_total", node, "aodv")),
      discovery_failures(
          r.counter("aodv.discovery_failures_total", node, "aodv")),
      discovery_ms(r.histogram("routing.route_discovery_ms",
                               kLatencyBucketsMs, node, "aodv")) {}

Aodv::Aodv(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "aodv", host.name()),
      metrics_(host.sim().ctx().metrics(), host.name()) {}

Aodv::~Aodv() { stop(); }

void Aodv::start() {
  if (running_) return;
  running_ = true;
  host_.bind(net::kAodvPort, [this](const net::Datagram& d,
                                    const net::RxInfo& rx) { on_packet(d, rx); });
  // The daemon owns the MANET subnet: an address it has no route to gets
  // none from the on-link /24 either, which leaves it to discovery.
  host_.set_route_source([this](net::Address dst) { return route_to(dst); });
  host_.set_route_resolver(
      [this](net::Datagram d) { return on_no_route(std::move(d)); });
  host_.set_link_failure_listener([this](const net::Frame& f) {
    if (f.dst_mac == net::kBroadcastMac || host_.medium() == nullptr) return;
    if (const auto neighbor = host_.medium()->address_of(f.dst_mac)) {
      handle_link_break(*neighbor);
    }
  });
  hello_timer_.start(host_.sim(), kHelloInterval,
                     [this] { send_hello(); }, milliseconds(100));
  housekeeping_timer_.start(host_.sim(), milliseconds(500), [this] {
    table_.expire(now());
    check_neighbors();
    rreq_seen_.tick(now());
  });
}

bool RreqCache::note(net::Address orig, std::uint32_t id,
                     TimePoint expiry) {
  const auto live = [this](std::uint64_t, TimePoint e) {
    return e > last_tick_;
  };
  const auto [stored, added] = expiry_.emplace(
      (std::uint64_t{orig.value()} << 32) | id, expiry, live);
  const bool seen = !added && *stored > last_tick_;
  *stored = expiry;
  return seen;
}

void Aodv::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.stop();
  housekeeping_timer_.stop();
  for (auto& [dst, pending] : discoveries_) pending.timeout.cancel();
  discoveries_.clear();
  host_.unbind(net::kAodvPort);
  host_.set_route_source(nullptr);
  host_.set_route_resolver(nullptr);
  host_.set_link_failure_listener(nullptr);
}

std::optional<net::RouteEntry> Aodv::route_to(net::Address dst) const {
  const AodvRoute* r = table_.find(dst);
  if (r == nullptr || !r->valid) return std::nullopt;
  return net::RouteEntry{dst, 32, r->next_hop, net::Interface::kRadio,
                         r->hop_count};
}

std::size_t Aodv::buffered_count() const {
  std::size_t n = 0;
  for (const auto& [dst, p] : discoveries_) n += p.buffered.size();
  return n;
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

void Aodv::count_tx(std::size_t wire_bytes, std::size_t ext_bytes) {
  metrics_.routing.control_packets.add();
  metrics_.routing.control_bytes.add(wire_bytes);
  metrics_.routing.piggyback_bytes.add(ext_bytes);
}

void Aodv::send_packet(const aodv::Message& message, net::Address unicast_to,
                       const PacketInfo& info) {
  Bytes ext;
  if (handler_ != nullptr) ext = handler_->on_outgoing(info);
  Bytes wire = aodv::encode(message, ext);
  count_tx(wire.size(), ext.size());
  switch (info.kind) {
    case PacketKind::kAodvHello: metrics_.hello_tx.add(); break;
    case PacketKind::kAodvRrep: metrics_.rrep_tx.add(); break;
    case PacketKind::kAodvRerr: metrics_.rerr_tx.add(); break;
    default: break;
  }
  if (unicast_to.is_unspecified()) {
    host_.send_broadcast(net::kAodvPort, net::kAodvPort, std::move(wire));
  } else {
    host_.send_udp(net::kAodvPort, {unicast_to, net::kAodvPort},
                   std::move(wire));
  }
}

void Aodv::broadcast_rreq(Rreq rreq, const Bytes& query_ext) {
  PacketInfo info{PacketKind::kAodvRreq, self(), rreq.dst};
  Bytes ext;
  if (handler_ != nullptr) ext = handler_->on_outgoing(info);
  // A service-discovery flood carries its query in the extension block,
  // merged after whatever the handler wanted to piggyback anyway.
  ext.insert(ext.end(), query_ext.begin(), query_ext.end());
  Bytes wire = aodv::encode(rreq, ext);
  count_tx(wire.size(), ext.size());
  metrics_.rreq_originated.add();
  host_.send_broadcast(net::kAodvPort, net::kAodvPort, std::move(wire));
}

void Aodv::send_hello() {
  // RFC 3561 6.9: HELLO is an RREP with dst = self and hop count 0.
  Rrep hello;
  hello.dst = self();
  hello.dst_seqno = seqno_;
  hello.hop_count = 0;
  hello.lifetime_ms = static_cast<std::uint32_t>(
      to_millis(kAllowedHelloLoss * kHelloInterval));
  hello.is_hello = true;
  send_packet(hello, net::Address{},
              PacketInfo{PacketKind::kAodvHello, self(), self()});
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void Aodv::on_packet(const net::Datagram& d, const net::RxInfo&) {
  auto decoded = aodv::decode_frame(d.payload);
  if (!decoded) {
    metrics_.routing.decode_errors.add();
    log_.warn("malformed AODV packet from ", d.src.to_string(), ": ",
              decoded.error().message);
    return;
  }
  if (d.corrupted) {
    // Chaos-engine ground truth: a bit-flipped packet slipped past the CRC
    // trailer. The soak asserts this never happens (see docs/RESILIENCE.md).
    host_.sim().ctx().metrics()
        .counter("chaos.corrupt_accepted_total", host_.name(), "aodv")
        .add();
  }
  // The datagram source is the transmitting previous hop: control packets
  // travel link-locally (broadcast or one-hop unicast re-originated per hop).
  const net::Address from = d.src;
  on_neighbor_heard(from);

  if (const auto* rreq = std::get_if<Rreq>(&decoded->message)) {
    handle_rreq(*rreq, decoded->extension, from);
  } else if (const auto* rrep = std::get_if<Rrep>(&decoded->message)) {
    handle_rrep(*rrep, decoded->extension, from);
  } else if (const auto* rerr = std::get_if<Rerr>(&decoded->message)) {
    handle_rerr(*rerr, from);
  }
}

void Aodv::handle_rreq(const Rreq& m, std::span<const std::uint8_t> ext,
                       net::Address from) {
  if (m.orig == self()) return;  // own flood echoed back

  const bool duplicate = note_rreq(m.orig, m.rreq_id);

  // Reverse route to the previous hop and to the originator (RFC 6.5).
  table_.update(from, 0, false, 1, from, now() + kActiveRouteTimeout);
  table_.update(m.orig, m.orig_seqno, true,
                static_cast<std::uint8_t>(m.hop_count + 1), from,
                now() + kNetTraversalTime);

  if (duplicate) return;

  // Hand the extension to the SLP plugin; it may answer the flood.
  HandlerVerdict verdict;
  if (handler_ != nullptr) {
    verdict = handler_->on_incoming(
        PacketInfo{PacketKind::kAodvRreq, m.orig, m.dst}, ext, m.orig);
  }

  const bool is_service_query = m.dst.is_unspecified();
  if (is_service_query) {
    if (verdict.answer) {
      // Service hit: reply like a destination would, advertising a route to
      // ourselves, with the reply extension piggybacked on the RREP.
      seqno_ = std::max(seqno_ + 1, seqno_);
      Rrep reply;
      reply.dst = self();
      reply.dst_seqno = seqno_;
      reply.orig = m.orig;
      reply.hop_count = 0;
      reply.lifetime_ms =
          static_cast<std::uint32_t>(to_millis(kMyRouteTimeout));
      Bytes wire = aodv::encode(reply, verdict.reply_extension);
      count_tx(wire.size(), verdict.reply_extension.size());
      metrics_.rrep_tx.add();
      host_.send_udp(net::kAodvPort, {from, net::kAodvPort}, std::move(wire));
      return;  // answered floods are not propagated further by this node
    }
  } else {
    if (m.dst == self()) {
      // RFC 6.6.1: destination replies; seqno maxed with requested.
      if (m.unknown_seqno ||
          static_cast<std::int32_t>(m.dst_seqno - seqno_) > 0) {
        seqno_ = std::max(seqno_, m.dst_seqno);
      }
      ++seqno_;
      Rrep reply;
      reply.dst = self();
      reply.dst_seqno = seqno_;
      reply.orig = m.orig;
      reply.hop_count = 0;
      reply.lifetime_ms =
          static_cast<std::uint32_t>(to_millis(kMyRouteTimeout));
      send_packet(reply, from,
                  PacketInfo{PacketKind::kAodvRrep, self(), m.orig});
      return;
    }
    // Intermediate node with a fresh-enough route replies (RFC 6.6.2).
    const AodvRoute* route = table_.active(m.dst, now());
    if (route != nullptr && route->valid_seqno && !m.unknown_seqno &&
        static_cast<std::int32_t>(route->seqno - m.dst_seqno) >= 0) {
      Rrep reply;
      reply.dst = m.dst;
      reply.dst_seqno = route->seqno;
      reply.orig = m.orig;
      reply.hop_count = route->hop_count;
      reply.lifetime_ms = static_cast<std::uint32_t>(
          to_millis(route->expires - now()));
      table_.add_precursor(m.dst, from);
      send_packet(reply, from,
                  PacketInfo{PacketKind::kAodvRrep, self(), m.orig});
      return;
    }
  }

  // Propagate the flood.
  if (m.ttl <= 1) return;
  Rreq fwd = m;
  fwd.hop_count += 1;
  fwd.ttl -= 1;
  // Re-encode with the original extension (the query travels with the
  // flood); the local handler's own outgoing piggyback is not re-added to
  // forwarded packets to keep flood size bounded.
  Bytes wire = aodv::encode(fwd, ext);
  count_tx(wire.size(), 0);
  metrics_.rreq_forwarded.add();
  host_.send_broadcast(net::kAodvPort, net::kAodvPort, std::move(wire));
}

void Aodv::handle_rrep(const Rrep& m, std::span<const std::uint8_t> ext,
                       net::Address from) {
  if (m.is_hello) {
    // Neighbor liveness + 1-hop route.
    table_.update(m.dst, m.dst_seqno, true, 1, m.dst,
                  now() + milliseconds(m.lifetime_ms));
    if (handler_ != nullptr && !ext.empty()) {
      handler_->on_incoming(PacketInfo{PacketKind::kAodvHello, m.dst, m.dst},
                            ext, m.dst);
    }
    return;
  }

  // Forward route to the RREP destination (RFC 6.7).
  table_.update(from, 0, false, 1, from, now() + kActiveRouteTimeout);
  table_.update(m.dst, m.dst_seqno, true,
                static_cast<std::uint8_t>(m.hop_count + 1), from,
                now() + milliseconds(m.lifetime_ms));

  if (handler_ != nullptr && !ext.empty()) {
    handler_->on_incoming(PacketInfo{PacketKind::kAodvRrep, m.dst, m.orig},
                          ext, m.dst);
  }

  if (m.orig == self()) {
    // Our discovery completed.
    flush_buffered(m.dst);
    // A service-discovery flood (dst unspecified at request time) completes
    // via the pending entry keyed on the unspecified address.
    flush_buffered(net::Address{});
    return;
  }

  // Forward the RREP along the reverse route toward the originator.
  const AodvRoute* reverse = table_.active(m.orig, now());
  if (reverse == nullptr) {
    log_.debug("no reverse route for RREP to ", m.orig.to_string());
    return;
  }
  Rrep fwd = m;
  fwd.hop_count += 1;
  table_.add_precursor(m.dst, reverse->next_hop);
  const AodvRoute* forward = table_.find(m.dst);
  if (forward != nullptr) table_.add_precursor(m.orig, forward->next_hop);
  Bytes wire = aodv::encode(fwd, ext);
  count_tx(wire.size(), ext.size());
  host_.send_udp(net::kAodvPort, {reverse->next_hop, net::kAodvPort},
                 std::move(wire));
}

void Aodv::handle_rerr(const Rerr& m, net::Address from) {
  std::vector<std::pair<net::Address, std::uint32_t>> propagate;
  std::set<net::Address> precursors;
  for (const auto& u : m.destinations) {
    const AodvRoute* r = table_.find(u.dst);
    if (r != nullptr && r->valid && r->next_hop == from) {
      auto pre = table_.invalidate(u.dst);
      precursors.insert(pre.begin(), pre.end());
      propagate.emplace_back(u.dst, u.seqno);
    }
  }
  if (!propagate.empty()) {
    send_rerr(propagate,
              std::vector<net::Address>(precursors.begin(), precursors.end()));
  }
}

// --------------------------------------------------------------------------
// Discovery
// --------------------------------------------------------------------------

bool Aodv::on_no_route(net::Datagram d) {
  if (!running_) return false;
  if (!d.dst.in_prefix(net::kManetPrefix, net::kManetPrefixLen)) return false;
  auto& pending = discoveries_[d.dst];
  if (pending.buffered.size() >= kMaxBufferedPerDst) {
    pending.buffered.pop_front();
  }
  const net::Address dst = d.dst;
  pending.buffered.push_back(std::move(d));
  if (pending.buffered.size() == 1 && pending.retries == 0 &&
      pending.ttl == 0) {
    start_discovery(dst);
  }
  return true;
}

void Aodv::start_discovery(net::Address dst) {
  auto& pending = discoveries_[dst];
  pending.ttl = kTtlStart;
  pending.retries = 0;
  pending.started = now();
  ++stats_.route_discoveries;
  metrics_.discoveries.add();
  send_rreq_for(dst, pending);
}

void Aodv::send_rreq_for(net::Address dst, PendingDiscovery& pending) {
  ++rreq_id_;
  ++seqno_;
  Rreq rreq;
  rreq.rreq_id = rreq_id_;
  rreq.dst = dst;
  rreq.orig = self();
  rreq.orig_seqno = seqno_;
  rreq.ttl = static_cast<std::uint8_t>(pending.ttl);
  const AodvRoute* known = table_.find(dst);
  if (known != nullptr && known->valid_seqno) {
    rreq.dst_seqno = known->seqno;
    rreq.unknown_seqno = false;
  }
  note_rreq(self(), rreq.rreq_id);
  broadcast_rreq(rreq, pending.service_query ? pending.query_extension
                                             : Bytes{});

  const Duration wait =
      ring_traversal_time(pending.ttl) * (1 << pending.retries);
  pending.timeout.cancel();
  pending.timeout = host_.sim().schedule(
      wait, [this, dst] { on_discovery_timeout(dst); });
}

void Aodv::on_discovery_timeout(net::Address dst) {
  const auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  auto& pending = it->second;

  // Expanding ring search, then full-diameter retries (RFC 6.4).
  if (pending.ttl < kTtlThreshold) {
    pending.ttl += kTtlIncrement;
    send_rreq_for(dst, pending);
    return;
  }
  if (pending.ttl < kNetDiameter) {
    pending.ttl = kNetDiameter;
    send_rreq_for(dst, pending);
    return;
  }
  if (pending.retries < kRreqRetries) {
    ++pending.retries;
    send_rreq_for(dst, pending);
    return;
  }
  ++stats_.discovery_failures;
  metrics_.discovery_failures.add();
  log_.debug("route discovery for ",
             dst.is_unspecified() ? std::string("<service>") : dst.to_string(),
             " failed after ", pending.retries, " retries; dropping ",
             pending.buffered.size(), " datagrams");
  discoveries_.erase(it);
}

void Aodv::flush_buffered(net::Address dst) {
  const auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  auto buffered = std::move(it->second.buffered);
  metrics_.discovery_ms.observe(to_millis(now() - it->second.started));
  metrics_.registry->record_span("route_discovery", "aodv", host_.name(),
                                 it->second.started, now());
  it->second.timeout.cancel();
  discoveries_.erase(it);
  for (auto& d : buffered) host_.send_datagram(std::move(d));
}

bool Aodv::flood_query(Bytes extension) {
  if (!running_) return false;
  auto& pending = discoveries_[net::Address{}];
  pending.service_query = true;
  pending.query_extension = std::move(extension);
  pending.ttl = kNetDiameter;  // service floods go network-wide
  pending.retries = 0;
  pending.started = now();
  ++stats_.route_discoveries;
  metrics_.discoveries.add();
  send_rreq_for(net::Address{}, pending);
  return true;
}

// --------------------------------------------------------------------------
// Liveness
// --------------------------------------------------------------------------

void Aodv::on_neighbor_heard(net::Address neighbor) {
  if (neighbor == self() || neighbor.is_unspecified()) return;
  TimePoint& last = *heard_.emplace(neighbor.value(), TimePoint::min()).first;
  if (last == TimePoint::min()) neighbors_.insert(neighbor);
  last = now();
  table_.refresh(neighbor, now() + kActiveRouteTimeout);
}

void Aodv::check_neighbors() {
  const Duration max_silence =
      kAllowedHelloLoss * kHelloInterval + milliseconds(300);
  std::vector<net::Address> lost;
  for (const net::Address addr : neighbors_) {
    if (now() - *heard_.find(addr.value()) > max_silence) {
      lost.push_back(addr);
    }
  }
  for (const auto& addr : lost) handle_link_break(addr);
}

void Aodv::handle_link_break(net::Address neighbor) {
  if (TimePoint* last = heard_.find(neighbor.value())) {
    *last = TimePoint::min();
  }
  neighbors_.erase(neighbor);
  auto broken = table_.on_link_break(neighbor);
  if (broken.empty()) return;
  log_.debug("link to ", neighbor.to_string(), " broke, ", broken.size(),
             " routes lost");
  send_rerr(broken, {});
}

void Aodv::send_rerr(
    const std::vector<std::pair<net::Address, std::uint32_t>>& unreachable,
    const std::vector<net::Address>& precursors) {
  Rerr rerr;
  for (const auto& [dst, seqno] : unreachable) {
    rerr.destinations.push_back({dst, seqno});
  }
  if (precursors.size() == 1) {
    send_packet(rerr, precursors.front(),
                PacketInfo{PacketKind::kAodvRerr, self(), net::Address{}});
  } else {
    // Multiple (or unknown) precursors: broadcast, as RFC 3561 6.11 allows.
    send_packet(rerr, net::Address{},
                PacketInfo{PacketKind::kAodvRerr, self(), net::Address{}});
  }
}

}  // namespace siphoc::routing
