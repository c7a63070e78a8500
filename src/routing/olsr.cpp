#include "routing/olsr.hpp"

#include <algorithm>
#include <queue>

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

Olsr::Olsr(net::Host& host, OlsrConfig config)
    : host_(host), config_(config), log_("olsr", host.name()),
      metrics_(host.sim().ctx().metrics(), host.name()) {}

Olsr::~Olsr() {
  stop();
}

void Olsr::start() {
  if (running_) return;
  running_ = true;
  // The daemon owns the FIB (see Aodv::start): drop the on-link /24 so
  // only computed routes are used.
  host_.remove_route(net::kManetPrefix, net::kManetPrefixLen);
  host_.bind(net::kOlsrPort, [this](const net::Datagram& d,
                                    const net::RxInfo& rx) { on_packet(d, rx); });
  hello_timer_.start(host_.sim(), config_.hello_interval,
                     [this] { send_hello(); }, milliseconds(200));
  tc_timer_.start(host_.sim(), config_.tc_interval, [this] { send_tc(); },
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
  for (const auto& [dst, entry] : installed_routes_) host_.remove_route(dst, 32);
  installed_routes_.clear();
  // Forget the input snapshot: the empty FIB now corresponds to empty
  // inputs, so a restart must not early-out of its first recalculation.
  route_sym_last_.clear();
  route_edges_last_.clear();
  host_.add_route({net::kManetPrefix, net::kManetPrefixLen, std::nullopt,
                   net::Interface::kRadio, /*metric=*/100});
}

void Olsr::nudge_advertisement() {
  if (!running_) return;
  send_hello();
  send_tc();
}

std::set<net::Address> Olsr::symmetric_neighbors() const {
  std::set<net::Address> out;
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now()) out.insert(addr);
  }
  return out;
}

bool Olsr::has_route(net::Address dst) const {
  return installed_routes_.contains(dst);
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

void Olsr::send_hello() {
  Message m;
  m.type = MsgType::kHello;
  m.vtime_ms = static_cast<std::uint16_t>(to_millis(config_.neighbor_hold));
  m.originator = self();
  m.ttl = 1;  // HELLO never leaves the 1-hop neighborhood
  m.msg_seq = ++msg_seq_;

  Hello::LinkGroup sym{LinkCode::kSym, {}};
  Hello::LinkGroup mpr{LinkCode::kMpr, {}};
  Hello::LinkGroup asym{LinkCode::kAsym, {}};
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > now()) {
      (mprs_.contains(addr) ? mpr : sym).neighbors.push_back(addr);
    } else if (link.last_heard + config_.neighbor_hold > now()) {
      asym.neighbors.push_back(addr);
    }
  }
  for (auto* g : {&mpr, &sym, &asym}) {
    if (!g->neighbors.empty()) m.hello.links.push_back(*g);
  }

  if (handler_ != nullptr) {
    m.extension = handler_->on_outgoing(
        PacketInfo{PacketKind::kOlsrHello, self(), net::Address{}});
  }
  metrics_.hello_tx.add();
  transmit(std::move(m));
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

  Message m;
  m.type = MsgType::kTc;
  m.vtime_ms = static_cast<std::uint16_t>(to_millis(config_.topology_hold));
  m.originator = self();
  m.ttl = 255;
  m.msg_seq = ++msg_seq_;
  m.tc.ansn = ++ansn_;
  m.tc.advertised.assign(selectors_.begin(), selectors_.end());
  m.extension = std::move(ext);
  duplicates_.insert({self(), m.msg_seq});
  duplicate_ttl_[{self(), m.msg_seq}] = now() + seconds(30);
  metrics_.tc_tx.add();
  transmit(std::move(m));
}

void Olsr::transmit(Message message) {
  Packet p;
  p.pkt_seq = ++pkt_seq_;
  stats_.extension_bytes_sent += message.extension.size();
  metrics_.routing.piggyback_bytes.add(message.extension.size());
  p.messages.push_back(std::move(message));
  Bytes wire = olsr::encode(p);
  ++stats_.control_packets_sent;
  stats_.control_bytes_sent += wire.size();
  metrics_.routing.control_packets.add();
  metrics_.routing.control_bytes.add(wire.size());
  host_.send_broadcast(net::kOlsrPort, net::kOlsrPort, std::move(wire));
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void Olsr::on_packet(const net::Datagram& d, const net::RxInfo&) {
  auto packet = olsr::decode(d.payload);
  if (!packet) {
    metrics_.routing.decode_errors.add();
    log_.warn("malformed OLSR packet from ", d.src.to_string(), ": ",
              packet.error().message);
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
  for (const auto& m : packet->messages) {
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

    // TC: duplicate-suppressed processing + MPR forwarding.
    const auto key = std::make_pair(m.originator, m.msg_seq);
    if (duplicates_.contains(key)) continue;
    duplicates_.insert(key);
    duplicate_ttl_[key] = now() + seconds(30);

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
  auto& link = links_[from];
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
  if (lists_us) link.sym_until = now() + config_.neighbor_hold;
  link.is_mpr_of_us = selects_us_mpr;
  if (selects_us_mpr) {
    selectors_.insert(from);
  } else {
    selectors_.erase(from);
  }

  // Two-hop neighborhood: their symmetric neighbors (excluding us).
  std::set<net::Address> their_neighbors;
  for (const auto& g : m.hello.links) {
    if (g.code == LinkCode::kAsym) continue;
    for (const auto& n : g.neighbors) {
      if (n != self()) their_neighbors.insert(n);
    }
  }
  two_hop_[from] = std::move(their_neighbors);

  select_mprs();
  schedule_route_calc();
}

void Olsr::process_tc(const Message& m) {
  // RFC 9.5: keep only the newest advertisement set per originator.
  // Refresh surviving edges in place first, then drop the stale-ANSN
  // remainder: a periodic TC that re-advertises the same neighbor set
  // then leaves topology_ untouched (same entries, same positions), which
  // is what lets calculate_routes() early-out on its input snapshot.
  for (const auto& dest : m.tc.advertised) {
    const auto it = std::find_if(
        topology_.begin(), topology_.end(), [&](const TopologyEdge& e) {
          return e.last_hop == m.originator && e.dest == dest;
        });
    if (it != topology_.end()) {
      it->ansn = m.tc.ansn;
      it->expires = now() + config_.topology_hold;
    } else {
      topology_.push_back(
          {m.originator, dest, m.tc.ansn, now() + config_.topology_hold});
    }
  }
  std::erase_if(topology_, [&](const TopologyEdge& e) {
    return e.last_hop == m.originator &&
           static_cast<std::int16_t>(m.tc.ansn - e.ansn) > 0;
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

  Message fwd = m;
  fwd.ttl -= 1;
  fwd.hop_count += 1;
  metrics_.tc_forwarded.add();
  transmit(std::move(fwd));
}

// --------------------------------------------------------------------------
// MPR selection (RFC 8.3.1, greedy heuristic)
// --------------------------------------------------------------------------

void Olsr::select_mprs() {
  std::set<net::Address> neighbors = symmetric_neighbors();

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
      if (it != two_hop_.end() && it->second.contains(t)) {
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
  route_calc_ = host_.sim().schedule(config_.route_recalc_delay, [this] {
    route_calc_pending_ = false;
    calculate_routes();
  });
}

void Olsr::calculate_routes() {
  if (!running_) return;
  struct Hop {
    net::Address next_hop;
    int distance = 0;
  };
  // Snapshot the routing inputs: the symmetric neighbor set (sorted, which
  // is also the BFS seed order) and the live topology edges in scan order.
  // Routes are a pure function of these, so when the snapshot matches the
  // previous run the BFS below would reproduce installed_routes_
  // bit-for-bit -- skip it. That is by far the common case: every HELLO
  // and TC debounces into a recalc, but a converged network's periodic
  // refreshes leave the inputs untouched.
  const TimePoint t = now();
  route_sym_scratch_.clear();
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > t) route_sym_scratch_.push_back(addr);
  }
  std::sort(route_sym_scratch_.begin(), route_sym_scratch_.end());
  route_edges_scratch_.clear();
  for (const auto& e : topology_) {
    if (e.expires <= t) continue;
    route_edges_scratch_.push_back(e.last_hop);
    route_edges_scratch_.push_back(e.dest);
  }
  if (route_sym_scratch_ == route_sym_last_ &&
      route_edges_scratch_ == route_edges_last_) {
    return;
  }
  route_sym_last_ = route_sym_scratch_;
  route_edges_last_ = route_edges_scratch_;

  // Adjacency from TC edges (last_hop -> dest) in both directions: links
  // are bidirectional once symmetric. Indexed up front so the BFS is
  // O(V + E) instead of rescanning the whole topology set per visited
  // node; per-node neighbor lists keep topology_ scan order so
  // equal-distance tie-breaks pick the same next hop a linear scan would.
  std::unordered_map<net::Address, std::vector<net::Address>> adjacency;
  adjacency.reserve(route_edges_scratch_.size());
  for (std::size_t i = 0; i + 1 < route_edges_scratch_.size(); i += 2) {
    adjacency[route_edges_scratch_[i]].push_back(route_edges_scratch_[i + 1]);
    adjacency[route_edges_scratch_[i + 1]].push_back(route_edges_scratch_[i]);
  }

  std::unordered_map<net::Address, Hop> reach;
  std::queue<net::Address> frontier;
  for (const auto& n : route_sym_scratch_) {
    reach[n] = {n, 1};
    frontier.push(n);
  }
  while (!frontier.empty()) {
    const net::Address u = frontier.front();
    frontier.pop();
    const Hop hop = reach.at(u);
    const auto adj = adjacency.find(u);
    if (adj == adjacency.end()) continue;
    for (const net::Address v : adj->second) {
      if (v == self() || reach.contains(v)) continue;
      reach[v] = {hop.next_hop, hop.distance + 1};
      frontier.push(v);
    }
  }

  std::map<net::Address, std::pair<net::Address, int>> routes;
  for (const auto& [dst, hop] : reach) {
    routes.emplace(dst, std::make_pair(hop.next_hop, hop.distance));
  }

  // Mirror into the host FIB: touch only routes whose next hop or metric
  // actually changed, drop vanished ones. Steady state (converged
  // network, periodic TCs) then costs zero FIB writes.
  for (const auto& [dst, entry] : routes) {
    const auto it = installed_routes_.find(dst);
    if (it != installed_routes_.end() && it->second == entry) continue;
    host_.add_route(
        {dst, 32, entry.first, net::Interface::kRadio, entry.second});
  }
  for (const auto& [dst, entry] : installed_routes_) {
    if (!routes.contains(dst)) host_.remove_route(dst, 32);
  }
  installed_routes_ = std::move(routes);
}

void Olsr::expire_state() {
  const TimePoint t = now();
  bool changed = false;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.last_heard + config_.neighbor_hold <= t) {
      selectors_.erase(it->first);
      two_hop_.erase(it->first);
      it = links_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  const auto before = topology_.size();
  std::erase_if(topology_,
                [&](const TopologyEdge& e) { return e.expires <= t; });
  changed = changed || topology_.size() != before;
  std::erase_if(duplicate_ttl_, [&](const auto& kv) {
    if (kv.second <= t) {
      duplicates_.erase(kv.first);
      return true;
    }
    return false;
  });
  if (changed) {
    select_mprs();
    schedule_route_calc();
  }
}

}  // namespace siphoc::routing
