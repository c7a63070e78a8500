#include "sip/p2p_resolver.hpp"

#include <algorithm>
#include <charconv>

#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"

namespace siphoc::sip {

namespace {

/// The resolver's UDP port on its wired address.
constexpr std::uint16_t kPort = 5070;
/// Bindings are replicated to this many ring successors of the
/// responsible node, so a node loss does not lose the binding.
constexpr std::size_t kSuccessorCount = 2;
/// End-to-end resolve budget; the per-attempt retry ladder lives inside
/// this window.
constexpr Duration kLookupTimeout = seconds(2);
/// Maintenance timer period: successor probing, failure repair, finger
/// fixing. Zero jitter -- stabilization must not perturb the
/// deterministic packet schedule.
constexpr Duration kStabilizeInterval = seconds(2);
/// Consecutive unanswered probes before a successor is declared dead.
constexpr int kProbeTolerance = 2;
/// First per-hop GET timeout; doubles per retry attempt.
constexpr Duration kRetryInitial = milliseconds(250);
/// Retransmissions through an alternate hop after the first GET.
constexpr int kRetryMax = 3;
/// How long a node stays on the dead-node suspicion list (next_hop
/// avoids suspects) before it gets another chance.
constexpr Duration kSuspectTtl = seconds(10);
/// In-flight resolve cap: beyond this, new resolves fail immediately
/// (p2p.resolve_dropped_total) instead of growing pending_ unbounded.
constexpr std::size_t kMaxPending = 64;
/// GET forwarding TTL: queries caught in a routing loop mid-churn are
/// dropped (p2p.ttl_drops_total), not forwarded forever.
constexpr int kMaxHops = 32;

/// Ring-hop count buckets: diameters stay in the single digits for any
/// ring this testbed builds, 16+ means the finger tables are broken.
constexpr double kHopBuckets[] = {1, 2, 3, 4, 6, 8, 12, 16};

/// Clockwise ring distance from `a` to `b` (unsigned wraparound).
std::uint64_t ring_distance(std::uint64_t a, std::uint64_t b) { return b - a; }

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

/// Splits one protocol line on single spaces.
std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t space = line.find(' ', pos);
    if (space == std::string_view::npos) {
      out.push_back(line.substr(pos));
      break;
    }
    out.push_back(line.substr(pos, space - pos));
    pos = space + 1;
  }
  return out;
}

}  // namespace

P2pResolver::P2pResolver(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "p2p", host.name()),
      node_id_(id_of({host.wired_address(), kPort})) {
  host_.bind(kPort, [this](const net::Datagram& d, const net::RxInfo&) {
    on_datagram(d);
  });
  // Replicated records expire like any binding; sweep them on a coarse
  // cadence (no jitter: determinism).
  gc_.start(host_.sim(), seconds(5),
            [this] { records_.purge_expired(host_.sim().now()); });
  // Stabilization: successor probing, failure repair, finger fixing. Zero
  // jitter for the same reason; a singleton view makes the tick a no-op.
  maintenance_.start(host_.sim(), kStabilizeInterval,
                     [this] { on_stabilize_tick(); });
}

P2pResolver::~P2pResolver() {
  gc_.stop();
  maintenance_.stop();
  // Cancel every in-flight resolve's timers: the closures capture `this`
  // and must never fire into a destroyed resolver (ring-node crashes
  // destroy resolvers mid-run).
  for (auto& [request, pending] : pending_) {
    pending.deadline.cancel();
    pending.retry.cancel();
  }
  pending_.clear();
  host_.unbind(kPort);
}

net::Endpoint P2pResolver::endpoint() const {
  return {host_.wired_address(), kPort};
}

std::uint64_t P2pResolver::id_of(net::Endpoint endpoint) {
  return hash_aor(endpoint.to_string());
}

Counter& P2pResolver::counter(const std::string& name) {
  return host_.sim().ctx().metrics().counter(name, host_.name(), "p2p");
}

void P2pResolver::count_decode_error() {
  counter("p2p.decode_errors_total").add();
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

void P2pResolver::join(const std::vector<net::Endpoint>& members) {
  std::vector<RingNode> ring;
  ring.reserve(members.size());
  for (const auto& ep : members) ring.push_back({id_of(ep), ep});
  std::sort(ring.begin(), ring.end());
  ring.erase(std::unique(ring.begin(), ring.end(),
                         [](const RingNode& a, const RingNode& b) {
                           return a.id == b.id;
                         }),
             ring.end());
  const bool self_present = std::any_of(
      ring.begin(), ring.end(),
      [this](const RingNode& n) { return n.id == node_id_; });
  if (!self_present) {
    log_.warn("join(): own endpoint missing from membership");
    return;
  }
  view_ = std::move(ring);
  left_ = false;
  suspects_.clear();
  probe_misses_.clear();
  last_view_change_ = host_.sim().now();
  rebuild_routes();
  log_.info("joined ring: ", view_.size(), " nodes, ", fingers_.size(),
            " fingers, ", successors_.size(), " successors");
}

void P2pResolver::join_ring(net::Endpoint bootstrap) {
  view_ = {{node_id_, endpoint()}};
  left_ = false;
  suspects_.clear();
  probe_misses_.clear();
  last_view_change_ = host_.sim().now();
  rebuild_routes();
  send_line(bootstrap, "JOIN " + endpoint().to_string());
  log_.info("joining ring via ", bootstrap.to_string());
}

void P2pResolver::leave() {
  if (view_.size() <= 1) return;
  // Departure first: by the time the handoff PUTs arrive, peers have
  // removed us and route keys in our old arc to our ex-successor (the
  // LEAVE and the PUTs ride the same FIFO wire to that successor).
  broadcast("LEAVE " + endpoint().to_string());
  const net::Endpoint heir = successors_.empty() ? net::Endpoint{}
                                                 : successors_.front().endpoint;
  const TimePoint now = host_.sim().now();
  std::vector<std::pair<std::string, ContactBinding>> held;
  records_.for_each([&](const std::string& aor, const ContactBinding& b) {
    if (b.expires > now) held.emplace_back(aor, b);
  });
  for (const auto& [aor, binding] : held) {
    if (heir.address.is_unspecified()) break;
    send_line(heir, "PUT " + aor + " " +
                        std::to_string(
                            binding.expires.time_since_epoch().count()) +
                        " " + binding.contact.to_string());
    counter("p2p.stabilize_handoffs_total").add();
  }
  log_.info("leaving ring, handed off ", held.size(), " records");
  view_ = {{node_id_, endpoint()}};
  left_ = true;
  probe_misses_.clear();
  last_view_change_ = now;
  rebuild_routes();
}

void P2pResolver::rebuild_routes() {
  host_.sim().ctx().metrics()
      .gauge("p2p.membership", host_.name(), "p2p")
      .set(static_cast<double>(view_.size()));
  if (view_.size() <= 1) {
    predecessor_id_ = node_id_;
    successors_.clear();
    fingers_.clear();
    return;
  }
  const auto self = std::find_if(
      view_.begin(), view_.end(),
      [this](const RingNode& n) { return n.id == node_id_; });
  const std::size_t self_index =
      static_cast<std::size_t>(self - view_.begin());
  const std::size_t n = view_.size();

  predecessor_id_ = view_[(self_index + n - 1) % n].id;

  successors_.clear();
  for (std::size_t k = 1; k <= kSuccessorCount && k < n; ++k) {
    successors_.push_back(view_[(self_index + k) % n]);
  }

  // Finger k = successor(node_id + 2^k) over the full membership. Dedup:
  // small rings collapse most fingers onto the immediate successor.
  fingers_.clear();
  for (std::uint32_t k = 0; k < 64; ++k) {
    const std::uint64_t target = node_id_ + (1ull << k);
    auto it =
        std::lower_bound(view_.begin(), view_.end(), RingNode{target, {}});
    if (it == view_.end()) it = view_.begin();
    if (it->id == node_id_) continue;
    fingers_.push_back(*it);
  }
  std::sort(fingers_.begin(), fingers_.end());
  fingers_.erase(std::unique(fingers_.begin(), fingers_.end(),
                             [](const RingNode& a, const RingNode& b) {
                               return a.id == b.id;
                             }),
                 fingers_.end());
}

bool P2pResolver::add_member(net::Endpoint ep) {
  if (left_) return false;  // a departed node stays out until it rejoins
  const std::uint64_t id = id_of(ep);
  if (id == node_id_) return false;
  const auto it = std::lower_bound(view_.begin(), view_.end(),
                                   RingNode{id, {}});
  if (it != view_.end() && it->id == id) return false;
  view_.insert(it, {id, ep});
  suspects_.erase(id);
  probe_misses_.erase(id);
  last_view_change_ = host_.sim().now();
  rebuild_routes();
  sync_records();
  return true;
}

bool P2pResolver::remove_member(std::uint64_t id) {
  if (id == node_id_) return false;
  const auto it = std::lower_bound(view_.begin(), view_.end(),
                                   RingNode{id, {}});
  if (it == view_.end() || it->id != id) return false;
  view_.erase(it);
  probe_misses_.erase(id);
  last_view_change_ = host_.sim().now();
  rebuild_routes();
  sync_records();
  return true;
}

void P2pResolver::sync_records() {
  // Re-home everything we hold against the *new* arcs: owned records get
  // their replicas refreshed; records we merely replicate are PUT back
  // into the ring so the (possibly new) owner stores them. PUT/REP are
  // idempotent upserts, so convergence is safe to repeat.
  const TimePoint now = host_.sim().now();
  std::vector<std::pair<std::string, ContactBinding>> held;
  records_.for_each([&](const std::string& aor, const ContactBinding& b) {
    if (b.expires > now) held.emplace_back(aor, b);
  });
  for (const auto& [aor, binding] : held) {
    const std::string expires_contact =
        std::to_string(binding.expires.time_since_epoch().count()) + " " +
        binding.contact.to_string();
    if (responsible_for(hash_aor(aor))) {
      for (const RingNode& succ : successors_) {
        send_line(succ.endpoint, "REP " + aor + " " + expires_contact);
      }
    } else if (const RingNode* hop = next_hop(hash_aor(aor))) {
      send_line(hop->endpoint, "PUT " + aor + " " + expires_contact);
    }
    counter("p2p.stabilize_handoffs_total").add();
  }
}

void P2pResolver::broadcast(const std::string& line) {
  for (const RingNode& member : view_) {
    if (member.id == node_id_) continue;
    send_line(member.endpoint, line);
  }
}

void P2pResolver::purge_suspects() {
  const TimePoint now = host_.sim().now();
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    it = it->second <= now ? suspects_.erase(it) : std::next(it);
  }
}

void P2pResolver::on_stabilize_tick() {
  if (view_.size() <= 1) return;
  counter("p2p.stabilize_ticks_total").add();
  purge_suspects();

  // Probes sent on earlier ticks that went unanswered: past the tolerance
  // the successor is dead -- repair the view, tell the ring, re-replicate.
  std::vector<RingNode> dead;
  for (const RingNode& succ : successors_) {
    const auto it = probe_misses_.find(succ.id);
    if (it != probe_misses_.end() && it->second >= kProbeTolerance) {
      dead.push_back(succ);
    }
  }
  for (const RingNode& node : dead) declare_dead(node);

  // Probe the (repaired) successor list; PONG clears the miss counter.
  const std::string self_ep = endpoint().to_string();
  for (const RingNode& succ : successors_) {
    ++probe_misses_[succ.id];
    send_line(succ.endpoint,
              "PING " + std::to_string(++next_request_) + " " + self_ep);
    counter("p2p.stabilize_probes_total").add();
  }

  // Finger fixing: recompute the table from the current view.
  rebuild_routes();
}

void P2pResolver::declare_dead(const RingNode& node) {
  counter("p2p.stabilize_failures_total").add();
  suspects_[node.id] = host_.sim().now() + kSuspectTtl;
  log_.info("successor ", node.endpoint.to_string(),
            " stopped answering probes; repairing ring");
  remove_member(node.id);
  broadcast("DEAD " + node.endpoint.to_string());
}

bool P2pResolver::stable() const {
  return suspects_.empty() &&
         host_.sim().now() - last_view_change_ >= kStabilizeInterval;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

bool P2pResolver::responsible_for(std::uint64_t key) const {
  if (predecessor_id_ == node_id_ || view_.size() <= 1) return true;  // alone
  // Arc (pred, self], allowing for wraparound.
  return ring_distance(predecessor_id_, key) <=
         ring_distance(predecessor_id_, node_id_);
}

const P2pResolver::RingNode* P2pResolver::next_hop(std::uint64_t key) const {
  const std::uint64_t key_distance = ring_distance(node_id_, key);
  const auto suspect = [this](std::uint64_t id) {
    return suspects_.count(id) != 0;
  };
  const RingNode* best = nullptr;
  std::uint64_t best_distance = 0;
  for (const RingNode& finger : fingers_) {
    if (suspect(finger.id)) continue;
    const std::uint64_t d = ring_distance(node_id_, finger.id);
    if (d != 0 && d <= key_distance && d >= best_distance) {
      best = &finger;
      best_distance = d;
    }
  }
  if (best == nullptr) {
    for (const RingNode& succ : successors_) {
      if (!suspect(succ.id)) return &succ;
    }
    // Everyone is under suspicion: trying a suspect beats dropping.
    if (!successors_.empty()) return &successors_.front();
  }
  return best;
}

const P2pResolver::RingNode* P2pResolver::retry_hop(
    std::uint64_t key, const std::vector<std::uint64_t>& tried) const {
  const auto excluded = [&](std::uint64_t id) {
    return std::find(tried.begin(), tried.end(), id) != tried.end();
  };
  const auto suspect = [this](std::uint64_t id) {
    return suspects_.count(id) != 0;
  };
  // First attempt: greedy finger routing, same as a forwarded GET (this is
  // what the hop histogram measures).
  if (tried.empty()) return next_hop(key);
  // Retries skip the greedy path entirely and aim straight at the owner
  // arc: successor(key) stores the record and its `kSuccessorCount`
  // successors replicate it, and any holder answers a GET from its local
  // store. Greedy retries would re-converge on the same dead predecessor;
  // walking the holder chain instead leaves a live candidate for any
  // single ring-node loss.
  const auto owner = std::lower_bound(view_.begin(), view_.end(),
                                      RingNode{key, {}});
  const std::size_t n = view_.size();
  if (n > 1) {
    const std::size_t owner_index = static_cast<std::size_t>(
        (owner == view_.end() ? view_.begin() : owner) - view_.begin());
    for (std::size_t i = 0; i <= kSuccessorCount && i < n; ++i) {
      const RingNode& holder = view_[(owner_index + i) % n];
      if (holder.id == node_id_ || excluded(holder.id) ||
          suspect(holder.id)) {
        continue;
      }
      return &holder;
    }
  }
  for (const RingNode& succ : successors_) {
    if (!excluded(succ.id) && !suspect(succ.id)) return &succ;
  }
  // Last resort: any untried member, suspicion notwithstanding.
  for (const RingNode& member : view_) {
    if (member.id != node_id_ && !excluded(member.id)) return &member;
  }
  return nullptr;
}

void P2pResolver::send_line(net::Endpoint dst, const std::string& line) {
  host_.send_udp(kPort, dst, to_bytes(line));
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

void P2pResolver::store_record(const std::string& aor, const Uri& contact,
                               TimePoint expires, bool replicate) {
  records_.upsert(aor, contact, expires);
  counter("p2p.records_stored_total").add();
  host_.sim().ctx().metrics()
      .gauge("p2p.records", host_.name(), "p2p")
      .set(static_cast<double>(records_.size()));
  if (!replicate) return;
  const std::string line =
      "REP " + aor + " " +
      std::to_string(expires.time_since_epoch().count()) + " " +
      contact.to_string();
  for (const RingNode& succ : successors_) send_line(succ.endpoint, line);
}

void P2pResolver::publish(const std::string& aor, const Uri& contact,
                          TimePoint expires) {
  counter("p2p.puts_total").add();
  const std::uint64_t key = hash_aor(aor);
  if (responsible_for(key)) {
    store_record(aor, contact, expires, /*replicate=*/true);
    return;
  }
  const RingNode* hop = next_hop(key);
  if (hop == nullptr) return;
  send_line(hop->endpoint,
            "PUT " + aor + " " +
                std::to_string(expires.time_since_epoch().count()) + " " +
                contact.to_string());
}

void P2pResolver::unpublish(const std::string& aor) {
  const std::uint64_t key = hash_aor(aor);
  if (responsible_for(key)) {
    records_.erase(aor);
    for (const RingNode& succ : successors_) {
      send_line(succ.endpoint, "RDEL " + aor);
    }
    return;
  }
  if (const RingNode* hop = next_hop(key)) {
    send_line(hop->endpoint, "DEL " + aor);
  }
}

// ---------------------------------------------------------------------------
// Resolution with per-hop retry
// ---------------------------------------------------------------------------

void P2pResolver::resolve(const std::string& aor, ResolveCallback callback) {
  counter("p2p.lookups_total").add();
  const std::uint64_t key = hash_aor(aor);
  auto& metrics = host_.sim().ctx().metrics();
  if (responsible_for(key)) {
    // Zero-hop answer, still asynchronous so callers see one shape.
    auto binding = records_.lookup(aor, host_.sim().now());
    metrics.histogram("p2p.lookup_hops", kHopBuckets, host_.name(), "p2p")
        .observe(0);
    if (!binding) counter("p2p.misses_total").add();
    host_.sim().schedule(Duration::zero(),
                         [callback = std::move(callback),
                          binding = std::move(binding)]() mutable {
                           callback(std::move(binding), 0);
                         });
    return;
  }
  if (pending_.size() >= kMaxPending) {
    counter("p2p.resolve_dropped_total").add();
    host_.sim().schedule(Duration::zero(),
                         [callback = std::move(callback)]() mutable {
                           callback(std::nullopt, -1);
                         });
    return;
  }

  const std::uint64_t request = ++next_request_;
  Pending pending;
  pending.callback = std::move(callback);
  pending.started = host_.sim().now();
  pending.aor = aor;
  pending.key = key;
  pending.deadline =
      host_.sim().schedule(kLookupTimeout, [this, request] {
        const auto it = pending_.find(request);
        if (it == pending_.end()) return;
        counter("p2p.timeouts_total").add();
        finish(request, std::nullopt, -1);
      });
  pending_.emplace(request, std::move(pending));
  send_attempt(request);
}

void P2pResolver::send_attempt(std::uint64_t request) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  const RingNode* hop = retry_hop(pending.key, pending.tried);
  if (hop == nullptr) {
    // Every candidate tried. A replica we hold ourselves still counts as
    // an answer; otherwise the lookup is out of road.
    auto binding = records_.lookup(pending.aor, host_.sim().now());
    if (!binding) counter("p2p.retry_exhausted_total").add();
    finish(request, std::move(binding), pending.attempts);
    return;
  }
  pending.tried.push_back(hop->id);
  ++pending.attempts;
  send_line(hop->endpoint, "GET " + std::to_string(request) + " " +
                               endpoint().to_string() + " 1 " + pending.aor);
  if (pending.attempts <= kRetryMax) {
    // Exponential per-attempt backoff: 1x, 2x, 4x ... of kRetryInitial.
    const Duration delay = kRetryInitial *
                           (1ll << (pending.attempts - 1));
    pending.retry = host_.sim().schedule(
        delay, [this, request] { on_retry(request); });
  }
}

void P2pResolver::on_retry(std::uint64_t request) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  // The hop we tried never produced an answer: suspect it and go around.
  if (!pending.tried.empty()) {
    suspects_[pending.tried.back()] =
        host_.sim().now() + kSuspectTtl;
  }
  counter("p2p.retry_attempts_total").add();
  send_attempt(request);
}

void P2pResolver::finish(std::uint64_t request,
                         std::optional<ContactBinding> binding, int hops) {
  const auto it = pending_.find(request);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  pending.deadline.cancel();
  pending.retry.cancel();

  auto& metrics = host_.sim().ctx().metrics();
  if (hops >= 0) {
    metrics.histogram("p2p.lookup_hops", kHopBuckets, host_.name(), "p2p")
        .observe(hops);
    metrics
        .histogram("p2p.resolve_ms", kLatencyBucketsMs, host_.name(), "p2p")
        .observe(to_millis(host_.sim().now() - pending.started));
    if (!binding) counter("p2p.misses_total").add();
  }
  pending.callback(std::move(binding), hops);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

void P2pResolver::on_datagram(const net::Datagram& datagram) {
  // Traffic from a suspect proves it alive again.
  suspects_.erase(id_of({datagram.src, datagram.src_port}));

  const std::string line = to_string(datagram.payload);
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    count_decode_error();
    return;
  }
  const std::string_view verb(line.data(), space);
  const std::string_view rest(line.data() + space + 1,
                              line.size() - space - 1);
  if (verb == "PUT" || verb == "REP") {
    handle_put(verb, rest);
  } else if (verb == "GET") {
    handle_get(rest);
  } else if (verb == "RES") {
    handle_result(rest);
  } else if (verb == "DEL" || verb == "RDEL") {
    if (rest.empty()) {
      count_decode_error();
      return;
    }
    const std::string aor(rest);
    const std::uint64_t key = hash_aor(aor);
    if (verb == "RDEL" || responsible_for(key)) {
      records_.erase(aor);
      if (verb == "DEL") {
        for (const RingNode& succ : successors_) {
          send_line(succ.endpoint, "RDEL " + aor);
        }
      }
    } else if (const RingNode* hop = next_hop(key)) {
      send_line(hop->endpoint, line);
    }
  } else if (verb == "JOIN" || verb == "JOINED" || verb == "LEAVE" ||
             verb == "DEAD" || verb == "MEMB" || verb == "PING" ||
             verb == "PONG") {
    handle_control(verb, rest);
  } else {
    count_decode_error();
  }
}

void P2pResolver::handle_put(std::string_view verb, std::string_view rest) {
  const auto f = fields(rest);
  if (f.size() < 3) {
    count_decode_error();
    return;
  }
  const std::string aor(f[0]);
  const TimePoint expires{
      Duration(static_cast<Duration::rep>(parse_u64(f[1])))};
  const auto contact = Uri::parse(f[2]);
  if (!contact) {
    count_decode_error();
    return;
  }
  if (verb == "REP") {
    records_.upsert(aor, *contact, expires);
    return;
  }
  const std::uint64_t key = hash_aor(aor);
  if (responsible_for(key)) {
    store_record(aor, *contact, expires, /*replicate=*/true);
  } else if (const RingNode* hop = next_hop(key)) {
    counter("p2p.forwards_total").add();
    send_line(hop->endpoint, "PUT " + aor + " " + std::string(f[1]) + " " +
                                 std::string(f[2]));
  }
}

void P2pResolver::handle_get(std::string_view rest) {
  const auto f = fields(rest);
  if (f.size() < 4) {
    count_decode_error();
    return;
  }
  const std::uint64_t request = parse_u64(f[0]);
  const auto origin = net::Endpoint::parse(f[1]);
  const int hops = static_cast<int>(parse_u64(f[2]));
  const std::string aor(f[3]);
  if (!origin) {
    count_decode_error();
    return;
  }

  const std::uint64_t key = hash_aor(aor);
  // Any live holder answers -- replicas included. That is what lets a
  // lookup survive the owner's crash before stabilization promotes the
  // replica to owner.
  const auto binding = records_.lookup(aor, host_.sim().now());
  if (!binding && !responsible_for(key)) {
    if (hops >= kMaxHops) {
      counter("p2p.ttl_drops_total").add();
      return;
    }
    if (const RingNode* hop = next_hop(key)) {
      counter("p2p.forwards_total").add();
      send_line(hop->endpoint, "GET " + std::to_string(request) + " " +
                                   std::string(f[1]) + " " +
                                   std::to_string(hops + 1) + " " + aor);
    }
    return;
  }
  std::string reply = "RES " + std::to_string(request) + " " +
                      std::to_string(hops) + " ";
  if (binding) {
    reply += "found " +
             std::to_string(binding->expires.time_since_epoch().count()) +
             " " + binding->contact.to_string();
  } else {
    reply += "miss";
  }
  send_line(*origin, reply);
}

void P2pResolver::handle_result(std::string_view rest) {
  const auto f = fields(rest);
  if (f.size() < 3) {
    count_decode_error();
    return;
  }
  const std::uint64_t request = parse_u64(f[0]);
  const int hops = static_cast<int>(parse_u64(f[1]));
  if (pending_.find(request) == pending_.end()) return;  // late duplicate

  std::optional<ContactBinding> binding;
  if (f[2] == "found") {
    if (f.size() < 5) {
      count_decode_error();
      return;
    }
    const TimePoint expires{
        Duration(static_cast<Duration::rep>(parse_u64(f[3])))};
    const auto contact = Uri::parse(f[4]);
    if (!contact) {
      count_decode_error();
      return;
    }
    binding = ContactBinding{*contact, expires};
  } else if (f[2] != "miss") {
    count_decode_error();
    return;
  }
  finish(request, std::move(binding), hops);
}

void P2pResolver::handle_control(std::string_view verb,
                                 std::string_view rest) {
  const auto f = fields(rest);
  if (verb == "PING") {
    if (f.size() < 2) {
      count_decode_error();
      return;
    }
    const auto origin = net::Endpoint::parse(f[1]);
    if (!origin) {
      count_decode_error();
      return;
    }
    // A probe from a node our view evicted (false suspicion, or we missed
    // its rejoin broadcast): it is demonstrably alive -- take it back.
    add_member(*origin);
    send_line(*origin, "PONG " + std::string(f[0]) + " " +
                           endpoint().to_string());
    return;
  }
  if (verb == "PONG") {
    if (f.size() < 2) {
      count_decode_error();
      return;
    }
    const auto from = net::Endpoint::parse(f[1]);
    if (!from) {
      count_decode_error();
      return;
    }
    probe_misses_.erase(id_of(*from));
    return;
  }
  if (verb == "MEMB") {
    bool any = false;
    for (const auto& token : f) {
      const auto ep = net::Endpoint::parse(token);
      if (!ep) {
        count_decode_error();
        continue;
      }
      any = add_member(*ep) || any;
    }
    if (any) log_.info("installed membership: ", view_.size(), " nodes");
    return;
  }
  // JOIN / JOINED / LEAVE / DEAD all carry exactly one endpoint.
  if (f.size() != 1) {
    count_decode_error();
    return;
  }
  const auto ep = net::Endpoint::parse(f[0]);
  if (!ep) {
    count_decode_error();
    return;
  }
  if (verb == "JOIN") {
    add_member(*ep);
    // Hand the joiner the full membership (it answers with nothing; the
    // broadcast below brings everyone else up to date).
    std::string memb = "MEMB";
    for (const RingNode& member : view_) {
      memb += " " + member.endpoint.to_string();
    }
    send_line(*ep, memb);
    broadcast("JOINED " + ep->to_string());
    return;
  }
  if (verb == "JOINED") {
    add_member(*ep);
    return;
  }
  if (verb == "LEAVE") {
    remove_member(id_of(*ep));
    return;
  }
  // DEAD: a peer's probes to `ep` went unanswered. If that is us, the
  // report is wrong by construction -- re-announce instead of vanishing
  // (unless we really did leave).
  if (id_of(*ep) == node_id_) {
    if (!left_) broadcast("JOINED " + endpoint().to_string());
    return;
  }
  suspects_[id_of(*ep)] = host_.sim().now() + kSuspectTtl;
  remove_member(id_of(*ep));
}

}  // namespace siphoc::sip
