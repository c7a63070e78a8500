#include "baselines/flooding_sip.hpp"

#include <algorithm>

#include "slp/service.hpp"

namespace siphoc::baselines {

namespace {

enum class MsgType : std::uint8_t {
  kBindingFlood = 1,
  kQueryFlood = 2,
};

}  // namespace

FloodingSipDirectory::FloodingSipDirectory(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "floodsip", host.name()) {
  host_.bind(kFloodingSipPort,
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_packet(d);
             });
  refresh_timer_.start(host_.sim(), kRefreshInterval, [this] { refresh(); },
                       seconds(1));
}

FloodingSipDirectory::~FloodingSipDirectory() {
  refresh_timer_.stop();
  host_.unbind(kFloodingSipPort);
}

void FloodingSipDirectory::register_service(std::string type, std::string key,
                                            std::string value,
                                            Duration lifetime) {
  slp::ServiceEntry e;
  e.type = std::move(type);
  e.key = std::move(key);
  e.value = std::move(value);
  e.origin = host_.manet_address();
  e.version = version_counter_++;
  e.expires = now() + lifetime;
  local_[{e.type, e.key}] = e;
  table_[{e.type, e.key}] = e;
  ++floods_originated_;
  const std::uint32_t flood_id = next_flood_id_++;
  seen_.insert({e.origin, flood_id});
  flood_entry(e, kFloodTtl, flood_id);
}

void FloodingSipDirectory::deregister_service(const std::string& type,
                                              const std::string& key) {
  local_.erase({type, key});
  table_.erase({type, key});
}

void FloodingSipDirectory::lookup(std::string type, std::string key,
                                  Duration timeout,
                                  slp::LookupCallback callback) {
  const slp::ServiceEntry* best = nullptr;
  for (const auto& [k, e] : table_) {
    if (e.matches(type, key) && e.expires > now() &&
        (best == nullptr || e.version > best->version)) {
      best = &e;
    }
  }
  if (best != nullptr) {
    host_.sim().schedule(microseconds(1),
                         [callback = std::move(callback), e = *best] {
                           callback(e);
                         });
    return;
  }

  // Cold miss: flood a query; any node owning the binding re-floods it.
  PendingLookup pending;
  pending.type = type;
  pending.key = key;
  pending.callback = std::move(callback);
  pending.id = next_pending_id_++;
  const std::uint64_t id = pending.id;
  pending.timeout = host_.sim().schedule(timeout, [this, id] {
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&](const PendingLookup& p) { return p.id == id; });
    if (it == pending_.end()) return;
    auto cb = std::move(it->callback);
    pending_.erase(it);
    cb(std::nullopt);
  });
  pending_.push_back(std::move(pending));

  Bytes wire;
  BufferWriter w(wire);
  w.u8(static_cast<std::uint8_t>(MsgType::kQueryFlood));
  w.u8(kFloodTtl);
  const std::uint32_t flood_id = next_flood_id_++;
  seen_.insert({host_.manet_address(), flood_id});
  w.u32(flood_id);
  w.u32(host_.manet_address().value());
  w.str(type);
  w.str(key);
  ++packets_sent_;
  ++floods_originated_;
  host_.send_broadcast(kFloodingSipPort, kFloodingSipPort, std::move(wire));
}

std::vector<slp::ServiceEntry> FloodingSipDirectory::snapshot() const {
  std::vector<slp::ServiceEntry> out;
  for (const auto& [k, e] : table_) {
    if (e.expires > now()) out.push_back(e);
  }
  return out;
}

void FloodingSipDirectory::flood_entry(const slp::ServiceEntry& entry,
                                       std::uint8_t ttl,
                                       std::uint32_t flood_id) {
  Bytes wire;
  BufferWriter w(wire);
  w.u8(static_cast<std::uint8_t>(MsgType::kBindingFlood));
  w.u8(ttl);
  w.u32(flood_id);
  w.u32(entry.origin.value());
  slp::ExtensionBlock block;
  block.advertisements.push_back(entry);
  const Bytes encoded = slp::encode_extension(block, now());
  w.u16(static_cast<std::uint16_t>(encoded.size()));
  w.raw(encoded);
  ++packets_sent_;
  host_.send_broadcast(kFloodingSipPort, kFloodingSipPort, std::move(wire));
}

void FloodingSipDirectory::on_packet(const net::Datagram& d) {
  BufferReader r(d.payload);
  auto type = r.u8();
  auto ttl = r.u8();
  auto flood_id = r.u32();
  auto origin = r.u32();
  if (!type || !ttl || !flood_id || !origin) return;
  if (net::Address{*origin} == host_.manet_address()) return;
  if (!seen_.insert({net::Address{*origin}, *flood_id}).second) return;

  if (static_cast<MsgType>(*type) == MsgType::kBindingFlood) {
    auto len = r.u16();
    if (!len) return;
    auto encoded = r.raw(*len);
    if (!encoded) return;
    auto block = slp::decode_extension(*encoded, now());
    if (!block || block->advertisements.empty()) return;
    for (const auto& e : block->advertisements) {
      const Key key{e.type, e.key};
      const auto it = table_.find(key);
      if (it == table_.end() || e.version >= it->second.version) {
        table_[key] = e;
        resolve_pending(e);
      }
    }
    if (*ttl > 1) {
      const auto fwd = block->advertisements.front();
      const std::uint8_t next_ttl = static_cast<std::uint8_t>(*ttl - 1);
      const std::uint32_t id = *flood_id;
      // Re-encode preserving origin/flood id: re-flood manually.
      host_.sim().schedule(
          host_.rng().jitter(Duration::zero(), kForwardJitter),
          [this, fwd, next_ttl, id] {
            Bytes wire;
            BufferWriter w(wire);
            w.u8(static_cast<std::uint8_t>(MsgType::kBindingFlood));
            w.u8(next_ttl);
            w.u32(id);
            w.u32(fwd.origin.value());
            slp::ExtensionBlock block;
            block.advertisements.push_back(fwd);
            const Bytes encoded = slp::encode_extension(block, now());
            w.u16(static_cast<std::uint16_t>(encoded.size()));
            w.raw(encoded);
            ++packets_sent_;
            host_.send_broadcast(kFloodingSipPort, kFloodingSipPort,
                                 std::move(wire));
          });
    }
    return;
  }

  if (static_cast<MsgType>(*type) == MsgType::kQueryFlood) {
    auto qtype = r.str();
    auto qkey = r.str();
    if (!qtype || !qkey) return;
    // Owner answers by re-flooding the binding (the [12] way: there is no
    // unicast path, everything is broadcast).
    for (const auto& [k, e] : local_) {
      if (e.matches(*qtype, *qkey) && e.expires > now()) {
        ++floods_originated_;
        const std::uint32_t id = next_flood_id_++;
        seen_.insert({host_.manet_address(), id});
        flood_entry(e, kFloodTtl, id);
        return;
      }
    }
    if (*ttl > 1) {
      const std::uint8_t next_ttl = static_cast<std::uint8_t>(*ttl - 1);
      Bytes wire;
      BufferWriter w(wire);
      w.u8(static_cast<std::uint8_t>(MsgType::kQueryFlood));
      w.u8(next_ttl);
      w.u32(*flood_id);
      w.u32(*origin);
      w.str(*qtype);
      w.str(*qkey);
      const auto delay =
          host_.rng().jitter(Duration::zero(), kForwardJitter);
      host_.sim().schedule(delay, [this, wire = std::move(wire)]() mutable {
        ++packets_sent_;
        host_.send_broadcast(kFloodingSipPort, kFloodingSipPort,
                             std::move(wire));
      });
    }
  }
}

void FloodingSipDirectory::refresh() {
  for (const auto& [key, e] : local_) {
    if (e.expires <= now()) continue;
    ++floods_originated_;
    const std::uint32_t id = next_flood_id_++;
    seen_.insert({host_.manet_address(), id});
    flood_entry(e, kFloodTtl, id);
  }
}

void FloodingSipDirectory::resolve_pending(const slp::ServiceEntry& entry) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (entry.matches(it->type, it->key)) {
      it->timeout.cancel();
      auto cb = std::move(it->callback);
      it = pending_.erase(it);
      cb(entry);
    } else {
      ++it;
    }
  }
}

}  // namespace siphoc::baselines
