#include "slp/multicast_slp.hpp"

#include <algorithm>

namespace siphoc::slp {

namespace {

enum class SlpMsg : std::uint8_t {
  kSrvRqst = 1,
  kSrvRply = 2,
};

}  // namespace

MulticastSlp::MulticastSlp(net::Host& host)
    : host_(host),
      log_(host.sim().ctx().log(), "mslp", host.name()) {
  host_.bind(net::kSlpPort,
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_packet(d);
             });
}

MulticastSlp::~MulticastSlp() { host_.unbind(net::kSlpPort); }

void MulticastSlp::register_service(std::string type, std::string key,
                                    std::string value, Duration lifetime) {
  ServiceEntry e;
  e.type = std::move(type);
  e.key = std::move(key);
  e.value = std::move(value);
  e.origin = host_.manet_address();
  e.version = version_counter_++;
  e.expires = now() + lifetime;
  local_[{e.type, e.key}] = std::move(e);
}

void MulticastSlp::deregister_service(const std::string& type,
                                      const std::string& key) {
  local_.erase({type, key});
}

void MulticastSlp::lookup(std::string type, std::string key, Duration timeout,
                          LookupCallback callback) {
  // Local registrations answer immediately.
  for (const auto& [k, e] : local_) {
    if (e.matches(type, key) && e.expires > now()) {
      host_.sim().schedule(microseconds(1),
                           [callback = std::move(callback), e] {
                             callback(e);
                           });
      return;
    }
  }

  ServiceQuery q;
  q.id = next_xid_++;
  q.origin = host_.manet_address();
  q.type = std::move(type);
  q.key = std::move(key);

  PendingLookup pending;
  pending.id = q.id;
  pending.callback = std::move(callback);
  const std::uint32_t id = q.id;
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

  seen_.insert({q.origin, q.id});
  send_request(q, kFloodTtl);
}

std::vector<ServiceEntry> MulticastSlp::snapshot() const {
  std::vector<ServiceEntry> out;
  for (const auto& [k, e] : local_) out.push_back(e);
  return out;
}

void MulticastSlp::send_request(const ServiceQuery& q, std::uint8_t ttl) {
  Bytes wire;
  BufferWriter w(wire);
  w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvRqst));
  w.u8(ttl);
  w.u32(q.id);
  w.u32(q.origin.value());
  w.str(q.type);
  w.str(q.key);
  ++packets_sent_;
  host_.send_broadcast(net::kSlpPort, net::kSlpPort, std::move(wire));
}

void MulticastSlp::on_packet(const net::Datagram& d) {
  BufferReader r(d.payload);
  auto type = r.u8();
  if (!type) return;

  if (static_cast<SlpMsg>(*type) == SlpMsg::kSrvRqst) {
    auto ttl = r.u8();
    auto xid = r.u32();
    auto origin = r.u32();
    auto srv_type = r.str();
    auto srv_key = r.str();
    if (!ttl || !xid || !origin || !srv_type || !srv_key) return;
    ServiceQuery q{*xid, net::Address{*origin}, std::move(*srv_type),
                   std::move(*srv_key)};
    if (q.origin == host_.manet_address()) return;
    if (!seen_.insert({q.origin, q.id}).second) return;  // duplicate
    handle_request(q, *ttl);
    return;
  }

  if (static_cast<SlpMsg>(*type) == SlpMsg::kSrvRply) {
    auto xid = r.u32();
    auto count = r.u8();
    if (!xid || !count) return;
    ServiceReply reply;
    reply.id = *xid;
    for (std::uint8_t i = 0; i < *count; ++i) {
      ServiceEntry e;
      auto t = r.str();
      auto k = r.str();
      auto v = r.str();
      auto o = r.u32();
      auto ver = r.u32();
      auto life = r.u32();
      if (!t || !k || !v || !o || !ver || !life) return;
      e.type = std::move(*t);
      e.key = std::move(*k);
      e.value = std::move(*v);
      e.origin = net::Address{*o};
      e.version = *ver;
      e.expires = now() + milliseconds(*life);
      reply.entries.push_back(std::move(e));
    }
    handle_reply(reply);
  }
}

void MulticastSlp::handle_request(const ServiceQuery& q, std::uint8_t ttl) {
  // Answer when we own a match.
  for (const auto& [k, e] : local_) {
    if (!e.matches(q.type, q.key) || e.expires <= now()) continue;
    Bytes wire;
    BufferWriter w(wire);
    w.u8(static_cast<std::uint8_t>(SlpMsg::kSrvRply));
    w.u32(q.id);
    w.u8(1);
    w.str(e.type);
    w.str(e.key);
    w.str(e.value);
    w.u32(e.origin.value());
    w.u32(e.version);
    w.u32(static_cast<std::uint32_t>(to_millis(e.expires - now())));
    ++packets_sent_;
    // Unicast back to the requester -- this is the step that typically
    // costs an extra route discovery under a reactive protocol.
    host_.send_udp(net::kSlpPort, {q.origin, net::kSlpPort}, std::move(wire));
    return;
  }
  // Relay the flood.
  if (ttl <= 1) return;
  const std::uint8_t next_ttl = static_cast<std::uint8_t>(ttl - 1);
  host_.sim().schedule(
      host_.rng().jitter(Duration::zero(), kForwardJitter),
      [this, q, next_ttl] { send_request(q, next_ttl); });
}

void MulticastSlp::handle_reply(const ServiceReply& reply) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [&](const PendingLookup& p) { return p.id == reply.id; });
  if (it == pending_.end() || reply.entries.empty()) return;
  it->timeout.cancel();
  auto cb = std::move(it->callback);
  pending_.erase(it);
  cb(reply.entries.front());
}

}  // namespace siphoc::slp
