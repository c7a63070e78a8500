#include "slp/manet_slp.hpp"

#include <algorithm>

namespace siphoc::slp {

ManetSlp::Metrics::Metrics(MetricsRegistry& r, std::string_view node)
    : registry(&r),
      lookups(r.counter("slp.lookups_total", node, "slp")),
      cache_hits(r.counter("slp.cache_hits_total", node, "slp")),
      remote_resolves(r.counter("slp.remote_resolves_total", node, "slp")),
      lookup_timeouts(r.counter("slp.lookup_timeouts_total", node, "slp")),
      adverts_piggybacked(
          r.counter("slp.adverts_piggybacked_total", node, "slp")),
      queries_answered(r.counter("slp.queries_answered_total", node, "slp")),
      entries_absorbed(r.counter("slp.entries_absorbed_total", node, "slp")),
      decode_errors(r.counter("slp.decode_errors_total", node, "slp")),
      cache_entries(r.gauge("slp.cache_entries", node, "slp")),
      resolve_ms(
          r.histogram("slp.resolve_ms", kLatencyBucketsMs, node, "slp")) {}

ManetSlp::ManetSlp(net::Host& host, routing::Protocol& protocol,
                   ManetSlpConfig config)
    : host_(host),
      protocol_(protocol),
      config_(config),
      log_(host.sim().ctx().log(), "slp", host.name()),
      metrics_(host.sim().ctx().metrics(), host.name()) {
  protocol_.set_handler(this);
}

ManetSlp::~ManetSlp() {
  protocol_.set_handler(nullptr);
  // The chaos engine destroys and respawns whole node stacks mid-run;
  // pending lookup timeouts capture `this`, so they must die with us.
  for (auto& p : pending_) p.timeout.cancel();
}

// --------------------------------------------------------------------------
// Directory
// --------------------------------------------------------------------------

void ManetSlp::register_service(std::string type, std::string key,
                                std::string value, Duration lifetime) {
  ServiceEntry e;
  e.type = std::move(type);
  e.key = std::move(key);
  e.value = std::move(value);
  e.origin = host_.manet_address();
  e.version = version_counter_++;
  e.expires = now() + lifetime;
  log_.info("registered ", e.to_string());
  local_[{e.type, e.key}] = std::move(e);
  // Proactive plugins push the new binding out promptly instead of waiting
  // a full HELLO/TC period.
  protocol_.nudge_advertisement();
}

void ManetSlp::deregister_service(const std::string& type,
                                  const std::string& key) {
  local_.erase({type, key});
}

void ManetSlp::lookup(std::string type, std::string key, Duration timeout,
                      LookupCallback callback) {
  purge_expired();
  metrics_.lookups.add();
  if (auto hit = find_match(type, key)) {
    metrics_.cache_hits.add();
    metrics_.registry->record_span("slp_resolve", "slp", host_.name(), now(),
                                   now());
    metrics_.resolve_ms.observe(0);
    // Resolve asynchronously: callers must not observe reentrant callbacks.
    host_.sim().schedule(microseconds(1),
                         [callback = std::move(callback),
                          entry = std::move(*hit)] { callback(entry); });
    return;
  }

  PendingLookup pending;
  pending.id = next_query_id_++;
  pending.type = type;
  pending.key = key;
  pending.callback = std::move(callback);
  pending.started = now();
  const std::uint32_t id = pending.id;
  pending.timeout = host_.sim().schedule(timeout, [this, id] {
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&](const PendingLookup& p) { return p.id == id; });
    if (it == pending_.end()) return;
    auto cb = std::move(it->callback);
    pending_.erase(it);
    metrics_.lookup_timeouts.add();
    cb(std::nullopt);
  });
  pending_.push_back(std::move(pending));

  if (config_.piggyback_enabled) {
    // Reactive protocols flood the query piggybacked on a RREQ; proactive
    // ones return false and we simply wait for cache convergence.
    ExtensionBlock block;
    block.queries.push_back(
        {id, host_.manet_address(), std::move(type), std::move(key)});
    protocol_.flood_query(encode_extension(block, now()));
  }
}

void ManetSlp::purge_expired() {
  // Runs on every received piggyback and lookup; a scan before the
  // earliest expiry would erase nothing.
  if (now() < cache_next_expiry_) return;
  const std::size_t before = cache_.size();
  cache_next_expiry_ = TimePoint::max();
  std::erase_if(cache_, [this](const auto& kv) {
    if (kv.second.expires <= now()) return true;
    cache_next_expiry_ = std::min(cache_next_expiry_, kv.second.expires);
    return false;
  });
  if (cache_.size() != before) {
    metrics_.cache_entries.set(static_cast<double>(cache_.size()));
  }
}

std::vector<ServiceEntry> ManetSlp::cache_contents() const {
  std::vector<ServiceEntry> out;
  out.reserve(cache_.size());
  for (const auto& [k, e] : cache_) out.push_back(e);
  return out;
}

std::vector<ServiceEntry> ManetSlp::snapshot() const {
  std::vector<ServiceEntry> out;
  out.reserve(local_.size() + cache_.size());
  for (const auto& [k, e] : local_) out.push_back(e);
  for (const auto& [k, e] : cache_) {
    if (e.expires > now()) out.push_back(e);
  }
  return out;
}

std::optional<ServiceEntry> ManetSlp::find_match(const std::string& type,
                                                 const std::string& key) const {
  // Visits, in map order, only the entries that can match: the one stored
  // under (type, key), or for an empty key (gateway discovery) every key
  // of the type, a run that starts at (type, "").
  const auto candidates = [&](const auto& map, auto&& visit) {
    for (auto it = map.lower_bound(KeyView{type, key});
         it != map.end() && it->first.first == type &&
         (key.empty() || it->first.second == key);
         ++it) {
      if (!visit(it->second)) return;
    }
  };
  // Local registrations win; among cached matches prefer the freshest
  // version (re-registrations supersede stale bindings).
  const ServiceEntry* best = nullptr;
  candidates(local_, [&](const ServiceEntry& e) {
    if (e.expires > now()) best = &e;
    return best == nullptr;
  });
  if (best != nullptr) return *best;
  candidates(cache_, [&](const ServiceEntry& e) {
    if (e.expires > now() && (best == nullptr || e.version > best->version))
      best = &e;
    return true;
  });
  if (best == nullptr) return std::nullopt;
  return *best;
}

// --------------------------------------------------------------------------
// RoutingHandler
// --------------------------------------------------------------------------

bool ManetSlp::should_advertise(const routing::PacketInfo& info) const {
  using routing::PacketKind;
  switch (info.kind) {
    case PacketKind::kAodvHello:
      return config_.advertise_on_aodv_hello;
    case PacketKind::kOlsrHello:
    case PacketKind::kOlsrTc:
    case PacketKind::kAodvRrep:
      return true;
    case PacketKind::kAodvRreq:
    case PacketKind::kAodvRerr:
      return false;
  }
  return false;
}

Bytes ManetSlp::on_outgoing(const routing::PacketInfo& info) {
  if (!config_.piggyback_enabled || !should_advertise(info)) return {};
  ExtensionBlock block;
  for (const auto& [k, e] : local_) {
    if (e.expires <= now()) continue;
    block.advertisements.push_back(e);
    if (block.advertisements.size() >= kMaxAdvertsPerPacket) break;
  }
  metrics_.adverts_piggybacked.add(block.advertisements.size());
  return encode_extension(block, now());
}

routing::HandlerVerdict ManetSlp::on_incoming(
    const routing::PacketInfo& info, std::span<const std::uint8_t> extension,
    net::Address from) {
  routing::HandlerVerdict verdict;
  if (extension.empty()) return verdict;
  // Housekeeping on packet arrival: dead nodes' registrations leave the
  // cache as soon as their lifetime lapses (invariant monitor checks this).
  purge_expired();
  auto block = decode_extension(extension, now());
  if (!block) {
    metrics_.decode_errors.add();
    log_.warn("malformed SLP extension on ", routing::to_string(info.kind),
              " from ", from.to_string(), ": ", block.error().message);
    return verdict;
  }

  for (const auto& e : block->advertisements) absorb(e);
  for (const auto& rep : block->replies) {
    for (const auto& e : rep.entries) absorb(e);
  }

  // Queries: answer when we own (or know) a match. Answering from cache is
  // allowed -- like AODV intermediate-node RREP -- and shortens the flood.
  for (const auto& q : block->queries) {
    if (q.origin == host_.manet_address()) continue;
    auto match = find_match(q.type, q.key);
    if (!match) continue;
    if (!config_.answer_from_cache &&
        match->origin != host_.manet_address()) {
      continue;  // ablation: only the owner replies
    }
    ExtensionBlock reply;
    reply.replies.push_back({q.id, {*match}});
    // Carry our own registrations along for free cache warming.
    for (const auto& [k, e] : local_) {
      if (e.expires > now() &&
          reply.replies.front().entries.size() < kMaxAdvertsPerPacket) {
        if (e.type != match->type || e.key != match->key) {
          reply.replies.front().entries.push_back(e);
        }
      }
    }
    verdict.answer = true;
    verdict.reply_extension = encode_extension(reply, now());
    metrics_.queries_answered.add();
    break;
  }
  return verdict;
}

void ManetSlp::absorb(const ServiceEntry& entry) {
  if (entry.origin == host_.manet_address()) return;
  if (entry.expires <= now()) return;
  const Key key{entry.type, entry.key};
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Same origin: take newer version / extended lifetime. Different
    // origin: newer version wins (user re-registered elsewhere).
    if (entry.version < it->second.version) return;
    if (entry.version == it->second.version &&
        entry.expires <= it->second.expires) {
      return;
    }
  }
  cache_[key] = entry;
  cache_next_expiry_ = std::min(cache_next_expiry_, entry.expires);
  metrics_.entries_absorbed.add();
  metrics_.cache_entries.set(static_cast<double>(cache_.size()));
  log_.debug("learned ", entry.to_string());
  resolve_pending(entry);
}

void ManetSlp::resolve_pending(const ServiceEntry& entry) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (entry.matches(it->type, it->key)) {
      it->timeout.cancel();
      auto cb = std::move(it->callback);
      const TimePoint started = it->started;
      it = pending_.erase(it);
      metrics_.remote_resolves.add();
      metrics_.resolve_ms.observe(to_millis(now() - started));
      metrics_.registry->record_span("slp_resolve", "slp", host_.name(),
                                     started, now());
      cb(entry);
    } else {
      ++it;
    }
  }
}

}  // namespace siphoc::slp
