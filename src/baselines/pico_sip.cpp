#include "baselines/pico_sip.hpp"

#include <algorithm>

#include "slp/service.hpp"

namespace siphoc::baselines {

PicoSipDirectory::PicoSipDirectory(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "picosip", host.name()) {
  host_.bind(kPicoSipPort, [this](const net::Datagram& d, const net::RxInfo&) {
    on_packet(d);
  });
  hello_timer_.start(host_.sim(), kHelloInterval,
                     [this] { send_hello(); }, milliseconds(500));
}

PicoSipDirectory::~PicoSipDirectory() {
  hello_timer_.stop();
  host_.unbind(kPicoSipPort);
}

void PicoSipDirectory::register_service(std::string type, std::string key,
                                        std::string value, Duration lifetime) {
  slp::ServiceEntry e;
  e.type = std::move(type);
  e.key = std::move(key);
  e.value = std::move(value);
  e.origin = host_.manet_address();
  e.version = version_counter_++;
  e.expires = now() + lifetime;
  local_[{e.type, e.key}] = e;
  table_[{e.type, e.key}] = e;
  send_hello();  // push the new binding out promptly
}

void PicoSipDirectory::deregister_service(const std::string& type,
                                          const std::string& key) {
  local_.erase({type, key});
  table_.erase({type, key});
}

void PicoSipDirectory::lookup(std::string type, std::string key,
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
  // Purely proactive: wait for the next HELLO round to bring the mapping.
  PendingLookup pending;
  pending.type = std::move(type);
  pending.key = std::move(key);
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
}

std::vector<slp::ServiceEntry> PicoSipDirectory::snapshot() const {
  std::vector<slp::ServiceEntry> out;
  for (const auto& [k, e] : table_) {
    if (e.expires > now()) out.push_back(e);
  }
  return out;
}

void PicoSipDirectory::send_hello() {
  // HELLO floods even when there is nothing registered -- the "inefficient
  // utilization of resources" the paper calls out is the point.
  slp::ExtensionBlock block;
  for (const auto& [k, e] : local_) {
    if (e.expires <= now()) continue;
    slp::ServiceEntry refreshed = e;
    refreshed.expires = now() + kEntryLifetime;
    block.advertisements.push_back(std::move(refreshed));
  }
  Bytes wire;
  BufferWriter w(wire);
  w.u8(kFloodTtl);
  const std::uint32_t seq = ++hello_seq_;
  seen_.insert({host_.manet_address(), seq});
  w.u32(seq);
  w.u32(host_.manet_address().value());
  const Bytes encoded = slp::encode_extension(block, now());
  w.u16(static_cast<std::uint16_t>(encoded.size()));
  w.raw(encoded);
  ++packets_sent_;
  host_.send_broadcast(kPicoSipPort, kPicoSipPort, std::move(wire));
}

void PicoSipDirectory::on_packet(const net::Datagram& d) {
  BufferReader r(d.payload);
  auto ttl = r.u8();
  auto seq = r.u32();
  auto origin = r.u32();
  auto len = r.u16();
  if (!ttl || !seq || !origin || !len) return;
  if (net::Address{*origin} == host_.manet_address()) return;
  if (!seen_.insert({net::Address{*origin}, *seq}).second) return;
  auto encoded = r.raw(*len);
  if (!encoded) return;

  auto block = slp::decode_extension(*encoded, now());
  if (block) {
    for (const auto& e : block->advertisements) {
      const Key key{e.type, e.key};
      const auto it = table_.find(key);
      if (it == table_.end() || e.version >= it->second.version) {
        table_[key] = e;
        resolve_pending(e);
      }
    }
  }

  if (*ttl > 1) {
    Bytes wire;
    BufferWriter w(wire);
    w.u8(static_cast<std::uint8_t>(*ttl - 1));
    w.u32(*seq);
    w.u32(*origin);
    w.u16(static_cast<std::uint16_t>(encoded->size()));
    w.raw(*encoded);
    host_.sim().schedule(
        host_.rng().jitter(Duration::zero(), kForwardJitter),
        [this, wire = std::move(wire)]() mutable {
          ++packets_sent_;
          host_.send_broadcast(kPicoSipPort, kPicoSipPort, std::move(wire));
        });
  }
}

void PicoSipDirectory::resolve_pending(const slp::ServiceEntry& entry) {
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
