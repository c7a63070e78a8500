#include "routing/olsr.hpp"

#include <algorithm>

namespace siphoc::routing {

using olsr::Hello;
using olsr::LinkCode;
using olsr::Message;
using olsr::MsgType;
using olsr::Packet;
using olsr::Tc;

Olsr::Metrics::Metrics(MetricsRegistry& r, std::string_view node)
    : routing(r, "olsr", node),
      hello_tx(r.counter("olsr.hello_tx_total", node, "olsr")),
      tc_tx(r.counter("olsr.tc_tx_total", node, "olsr")),
      tc_forwarded(r.counter("olsr.tc_forwarded_total", node, "olsr")) {}

Olsr::Olsr(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "olsr", host.name()),
      metrics_(host.sim().ctx().metrics(), host.name()) {}

Olsr::~Olsr() {
  stop();
}

void Olsr::start() {
  if (running_) return;
  running_ = true;
  self_id_ = intern(self());
  host_.bind(net::kOlsrPort, [this](const net::Datagram& d,
                                    const net::RxInfo& rx) { on_packet(d, rx); });
  // The daemon owns the MANET subnet (see Aodv::start): only computed
  // routes are used.
  host_.set_route_source([this](net::Address dst) { return route_to(dst); });
  hello_timer_.start(host_.sim(), kHelloInterval,
                     [this] { send_hello(); }, milliseconds(200));
  tc_timer_.start(host_.sim(), kTcInterval, [this] { send_tc(); },
                  milliseconds(400));
  housekeeping_timer_.start(host_.sim(), milliseconds(500),
                            [this] { expire_state(); });
}

void Olsr::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.stop();
  tc_timer_.stop();
  housekeeping_timer_.stop();
  route_calc_.cancel();
  route_calc_pending_ = false;
  host_.unbind(net::kOlsrPort);
  host_.set_route_source(nullptr);
  routes_.clear();
  routes_stale_ = false;
  routes_dirty_ = true;
}

void Olsr::nudge_advertisement() {
  if (!running_) return;
  send_hello();
  send_tc();
}

std::set<net::Address> Olsr::symmetric_neighbors(TimePoint t) const {
  std::set<net::Address> out;
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > t) out.insert(addr);
  }
  return out;
}

const std::set<net::Address>& Olsr::mpr_set() {
  if (mprs_dirty_) {
    select_mprs(mprs_time_);
    mprs_dirty_ = false;
  }
  return mprs_;
}

bool Olsr::has_route(net::Address dst) const {
  return route_to(dst).has_value();
}

std::optional<net::RouteEntry> Olsr::route_to(net::Address dst) const {
  const auto& routes = this->routes();
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), dst,
      [](const Route& r, net::Address a) { return r.dst < a; });
  if (it == routes.end() || it->dst != dst) return std::nullopt;
  return net::RouteEntry{dst, 32, it->next_hop, net::Interface::kRadio,
                         it->metric};
}

std::uint32_t Olsr::intern(net::Address a) {
  const auto it = std::lower_bound(
      ids_by_addr_.begin(), ids_by_addr_.end(), a,
      [](const auto& entry, net::Address x) { return entry.first < x; });
  if (it != ids_by_addr_.end() && it->first == a) return it->second;
  const auto id = static_cast<std::uint32_t>(node_addrs_.size());
  ids_by_addr_.insert(it, {a, id});
  node_addrs_.push_back(a);
  edges_by_originator_.emplace_back();
  seen_seqs_.emplace_back();
  return id;
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

Message& Olsr::originate(MsgType type, Duration vtime, std::uint8_t ttl) {
  Message& m = tx_packet_.messages.front();
  m.type = type;
  m.vtime_ms = static_cast<std::uint16_t>(to_millis(vtime));
  m.originator = self();
  m.ttl = ttl;
  m.hop_count = 0;
  m.msg_seq = ++msg_seq_;
  return m;
}

void Olsr::send_hello() {
  // HELLO never leaves the 1-hop neighborhood.
  Message& m = originate(MsgType::kHello, kNeighborHold, 1);

  Hello::LinkGroup sym{LinkCode::kSym, {}};
  Hello::LinkGroup mpr{LinkCode::kMpr, {}};
  Hello::LinkGroup asym{LinkCode::kAsym, {}};
  const auto& mprs = mpr_set();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now()) {
      (mprs.contains(addr) ? mpr : sym).neighbors.push_back(addr);
    } else if (link.last_heard + kNeighborHold > now()) {
      asym.neighbors.push_back(addr);
    }
  }
  m.hello.links.clear();
  for (auto* g : {&mpr, &sym, &asym}) {
    if (!g->neighbors.empty()) m.hello.links.push_back(std::move(*g));
  }

  if (handler_ != nullptr) {
    m.extension = handler_->on_outgoing(
        PacketInfo{PacketKind::kOlsrHello, self(), net::Address{}});
  } else {
    m.extension.clear();
  }
  metrics_.hello_tx.add();
  transmit();
}

void Olsr::send_tc() {
  // RFC 3626 9.3: TC only when we have MPR selectors (someone routes
  // through us) -- but SIPHoc-style piggybacking still needs the proactive
  // channel, so we also emit a TC when the handler has payload to ship.
  Bytes ext;
  if (handler_ != nullptr) {
    ext = handler_->on_outgoing(
        PacketInfo{PacketKind::kOlsrTc, self(), net::Address{}});
  }
  if (selectors_.empty() && ext.empty()) return;

  Message& m = originate(MsgType::kTc, kTopologyHold, 255);
  m.tc.ansn = ++ansn_;
  m.tc.advertised.assign(selectors_.begin(), selectors_.end());
  m.extension = std::move(ext);
  metrics_.tc_tx.add();
  transmit();
}

void Olsr::transmit() {
  const Message& message = tx_packet_.messages.front();
  tx_packet_.pkt_seq = ++pkt_seq_;
  metrics_.routing.piggyback_bytes.add(message.extension.size());
  Bytes wire = olsr::encode(tx_packet_);
  metrics_.routing.control_packets.add();
  metrics_.routing.control_bytes.add(wire.size());
  host_.send_broadcast(net::kOlsrPort, net::kOlsrPort, std::move(wire));
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void Olsr::on_packet(const net::Datagram& d, const net::RxInfo&) {
  if (auto ok = olsr::decode_frame(d.payload, rx_packet_); !ok) {
    metrics_.routing.decode_errors.add();
    log_.warn("malformed OLSR packet from ", d.src.to_string(), ": ",
              ok.error().message);
    return;
  }
  if (d.corrupted) {
    // Chaos-engine ground truth: corruption survived the CRC trailer; the
    // chaos soak asserts this counter stays zero.
    host_.sim().ctx().metrics()
        .counter("chaos.corrupt_accepted_total", host_.name(), "olsr")
        .add();
  }
  const net::Address prev_hop = d.src;
  for (const auto& m : rx_packet_.messages) {
    if (m.originator == self()) continue;

    if (m.type == MsgType::kHello) {
      process_hello(m, prev_hop);
      if (handler_ != nullptr) {
        handler_->on_incoming(
            PacketInfo{PacketKind::kOlsrHello, m.originator, net::Address{}},
            m.extension, m.originator);
      }
      continue;
    }

    // TC: duplicate-suppressed processing + MPR forwarding. Our own TCs
    // never get here (skipped above), so only received keys are recorded.
    // process_tc() interns the originator first too, so ids are assigned
    // in the same order.
    auto& seen = seen_seqs_[intern(m.originator)];
    seen.erase(seen.begin(),
               std::find_if(seen.begin(), seen.end(), [&](const SeenSeq& s) {
                 return s.expires_us > last_tick_us_;
               }));
    if (std::any_of(seen.begin(), seen.end(), [&](const SeenSeq& s) {
          return s.msg_seq == m.msg_seq;
        })) {
      continue;
    }
    seen.push_back({micros(now() + seconds(30)), m.msg_seq});

    process_tc(m);
    if (handler_ != nullptr) {
      handler_->on_incoming(
          PacketInfo{PacketKind::kOlsrTc, m.originator, net::Address{}},
          m.extension, m.originator);
    }
    maybe_forward(m, prev_hop);
  }
}

void Olsr::process_hello(const Message& m, net::Address from) {
  const auto [entry, fresh] = links_.try_emplace(from);
  LinkInfo& link = entry->second;
  if (fresh) link.id = intern(from);
  link.last_heard = now();

  // Symmetry check: do they list us in any group?
  bool lists_us = false;
  bool selects_us_mpr = false;
  for (const auto& g : m.hello.links) {
    for (const auto& n : g.neighbors) {
      if (n == self()) {
        lists_us = true;
        if (g.code == LinkCode::kMpr) selects_us_mpr = true;
      }
    }
  }
  if (lists_us) {
    if (link.sym_until <= now()) routes_dirty_ = true;  // becomes symmetric
    link.sym_until = now() + kNeighborHold;
  }
  link.is_mpr_of_us = selects_us_mpr;
  if (selects_us_mpr) {
    selectors_.insert(from);
  } else {
    selectors_.erase(from);
  }

  // Two-hop neighborhood: their symmetric neighbors (excluding us).
  auto& their_neighbors = two_hop_[from];
  their_neighbors.clear();
  for (const auto& g : m.hello.links) {
    if (g.code == LinkCode::kAsym) continue;
    for (const auto& n : g.neighbors) {
      if (n != self()) their_neighbors.push_back(n);
    }
  }
  std::sort(their_neighbors.begin(), their_neighbors.end());
  their_neighbors.erase(
      std::unique(their_neighbors.begin(), their_neighbors.end()),
      their_neighbors.end());

  mark_mprs_dirty();
  schedule_route_calc();
}

void Olsr::process_tc(const Message& m) {
  // RFC 9.5: keep only the newest advertisement set per originator.
  // Refresh surviving edges in place first, then drop the stale-ANSN
  // remainder: a periodic TC that re-advertises the same neighbor set
  // then leaves topology_ untouched (same entries, same positions) and
  // the route inputs clean. Quirks kept on purpose: a TC with an older
  // ANSN still refreshes (and lowers the ANSN of) the edges it names, and
  // a destination repeated within one TC is refreshed, not duplicated.
  const TimePoint t = now();
  const std::uint32_t origin = intern(m.originator);
  for (const auto& dest : m.tc.advertised) {
    const auto& slots = edges_by_originator_[origin];
    const auto it = std::find_if(slots.begin(), slots.end(),
                                 [&](std::uint32_t slot) {
                                   return node_addrs_[topology_[slot].dest] ==
                                          dest;
                                 });
    if (it != slots.end()) {
      TopologyEdge& e = topology_[*it];
      if (e.expires <= t) routes_dirty_ = true;  // revived before the purge
      e.ansn = m.tc.ansn;
      e.expires = t + kTopologyHold;
    } else {
      const std::uint32_t slot = static_cast<std::uint32_t>(topology_.size());
      topology_.push_back({origin, intern(dest), m.tc.ansn, false,
                           t + kTopologyHold});
      edges_by_originator_[origin].push_back(slot);  // after intern() grew it
      routes_dirty_ = true;
    }
  }
  std::erase_if(edges_by_originator_[origin], [&](std::uint32_t slot) {
    TopologyEdge& e = topology_[slot];
    if (static_cast<std::int16_t>(m.tc.ansn - e.ansn) <= 0) return false;
    e.erased = true;
    routes_dirty_ = true;
    return true;
  });
  schedule_route_calc();
}

void Olsr::maybe_forward(const Message& m, net::Address prev_hop) {
  // Default forwarding algorithm: retransmit only if the previous hop has
  // selected us as MPR, the link is symmetric, and TTL allows it.
  if (m.ttl <= 1) return;
  if (!is_symmetric(prev_hop)) return;
  const auto it = links_.find(prev_hop);
  if (it == links_.end() || !it->second.is_mpr_of_us) return;

  // Only TCs get here. Copy-assignment keeps fwd's vectors' capacity.
  Message& fwd = tx_packet_.messages.front();
  fwd.type = m.type;
  fwd.vtime_ms = m.vtime_ms;
  fwd.originator = m.originator;
  fwd.ttl = static_cast<std::uint8_t>(m.ttl - 1);
  fwd.hop_count = static_cast<std::uint8_t>(m.hop_count + 1);
  fwd.msg_seq = m.msg_seq;
  fwd.tc = m.tc;
  fwd.extension = m.extension;
  metrics_.tc_forwarded.add();
  transmit();
}

// --------------------------------------------------------------------------
// MPR selection (RFC 8.3.1, greedy heuristic)
// --------------------------------------------------------------------------

void Olsr::select_mprs(TimePoint t) {
  std::set<net::Address> neighbors = symmetric_neighbors(t);

  // Two-hop nodes strictly two hops away.
  std::set<net::Address> uncovered;
  for (const auto& n : neighbors) {
    const auto it = two_hop_.find(n);
    if (it == two_hop_.end()) continue;
    for (const auto& t : it->second) {
      if (t != self() && !neighbors.contains(t)) uncovered.insert(t);
    }
  }

  std::set<net::Address> mprs;
  // First: neighbors that are the only path to some two-hop node.
  for (const auto& t : uncovered) {
    net::Address only;
    int count = 0;
    for (const auto& n : neighbors) {
      const auto it = two_hop_.find(n);
      if (it != two_hop_.end() &&
          std::binary_search(it->second.begin(), it->second.end(), t)) {
        only = n;
        ++count;
      }
    }
    if (count == 1) mprs.insert(only);
  }
  for (const auto& n : mprs) {
    const auto it = two_hop_.find(n);
    if (it == two_hop_.end()) continue;
    for (const auto& t : it->second) uncovered.erase(t);
  }
  // Greedy: repeatedly pick the neighbor covering the most remaining.
  while (!uncovered.empty()) {
    net::Address best;
    std::size_t best_cover = 0;
    for (const auto& n : neighbors) {
      if (mprs.contains(n)) continue;
      const auto it = two_hop_.find(n);
      if (it == two_hop_.end()) continue;
      std::size_t cover = 0;
      for (const auto& t : it->second) {
        if (uncovered.contains(t)) ++cover;
      }
      if (cover > best_cover) {
        best_cover = cover;
        best = n;
      }
    }
    if (best_cover == 0) break;  // leftover two-hop nodes are unreachable
    mprs.insert(best);
    for (const auto& t : two_hop_.at(best)) uncovered.erase(t);
  }
  mprs_ = std::move(mprs);
}

// --------------------------------------------------------------------------
// Route calculation (hop-count Dijkstra == BFS over links + topology)
// --------------------------------------------------------------------------

void Olsr::schedule_route_calc() {
  if (route_calc_pending_) return;
  route_calc_pending_ = true;
  route_calc_ = host_.sim().schedule(kRouteRecalcDelay, [this] {
    route_calc_pending_ = false;
    calculate_routes();
  });
}

void Olsr::calculate_routes() {
  if (!running_) return;
  // Routes are a pure function of the symmetric neighbor set and the live
  // topology edges in scan order. Those change through the mutations that
  // set routes_dirty_, and with time alone at routes_deadline_ (a link
  // lapsing, an edge expiring). Before then a clean recalc is a no-op --
  // by far the common case: every HELLO and TC debounces into a recalc,
  // but a converged network's periodic refreshes leave the inputs alone.
  const TimePoint t = now();
  if (!routes_dirty_ && t < routes_deadline_) return;
  routes_dirty_ = false;

  // Snapshot the inputs: the symmetric neighbors in address order (the
  // BFS seed order) and the live edges in scan order.
  TimePoint deadline = TimePoint::max();
  route_seeds_.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= t) continue;
    route_seeds_.push_back(link.id);
    deadline = std::min(deadline, link.sym_until);
  }
  std::sort(route_seeds_.begin(), route_seeds_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return node_addrs_[a] < node_addrs_[b];
            });
  route_edges_.clear();
  for (const auto& e : topology_) {
    if (e.erased || e.expires <= t) continue;
    route_edges_.push_back(e.last_hop);
    route_edges_.push_back(e.dest);
    deadline = std::min(deadline, e.expires);
  }
  routes_deadline_ = deadline;
  routes_stale_ = true;
}

const std::vector<Olsr::Route>& Olsr::routes() const {
  if (!routes_stale_) return routes_;
  routes_stale_ = false;

  // Adjacency from TC edges (last_hop -> dest) in both directions: links
  // are bidirectional once symmetric. CSR over node ids, filled in
  // topology_ scan order so equal-distance tie-breaks pick the same next
  // hop a linear scan would.
  const std::size_t nodes = node_addrs_.size();
  const auto& edges = route_edges_;
  std::vector<std::uint32_t> offsets(nodes + 1, 0);
  for (const std::uint32_t v : edges) ++offsets[v + 1];
  for (std::size_t v = 0; v < nodes; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::uint32_t> targets(edges.size());
  for (std::size_t i = 0; i + 1 < edges.size(); i += 2) {
    targets[cursor[edges[i]]++] = edges[i + 1];
    targets[cursor[edges[i + 1]]++] = edges[i];
  }

  // Hop-count BFS from the symmetric neighbors; distance 0 means
  // unreached.
  std::vector<int> distance(nodes, 0);
  std::vector<std::uint32_t> next_hop(nodes);
  std::vector<std::uint32_t> queue = route_seeds_;
  for (const std::uint32_t n : queue) {
    distance[n] = 1;
    next_hop[n] = n;
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint32_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const std::uint32_t v = targets[k];
      if (v == self_id_ || distance[v] != 0) continue;
      distance[v] = distance[u] + 1;
      next_hop[v] = next_hop[u];
      queue.push_back(v);
    }
  }

  // Every reached node, in address order: sorted by dst for free.
  routes_.clear();
  for (const auto& [addr, v] : ids_by_addr_) {
    if (distance[v] == 0) continue;
    routes_.push_back({addr, node_addrs_[next_hop[v]], distance[v]});
  }
  return routes_;
}

void Olsr::expire_state() {
  const TimePoint t = now();
  bool changed = false;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.last_heard + kNeighborHold <= t) {
      selectors_.erase(it->first);
      two_hop_.erase(it->first);
      it = links_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  // Compact expired edges and tombstones, keeping scan order; only an
  // edge that expired (not one a newer ANSN already dropped) is a change.
  bool compact = false;
  for (const auto& e : topology_) {
    if (e.erased) {
      compact = true;
    } else if (e.expires <= t) {
      compact = changed = true;
    }
  }
  if (compact) {
    std::erase_if(topology_, [&](const TopologyEdge& e) {
      return e.erased || e.expires <= t;
    });
    for (auto& slots : edges_by_originator_) slots.clear();
    for (std::size_t i = 0; i < topology_.size(); ++i) {
      edges_by_originator_[topology_[i].last_hop].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  last_tick_us_ = micros(t);
  if (changed) {
    routes_dirty_ = true;
    mark_mprs_dirty();
    schedule_route_calc();
  }
}

}  // namespace siphoc::routing
