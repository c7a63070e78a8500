#include "routing/olsr_codec.hpp"

namespace siphoc::routing::olsr {

namespace {

void encode_message(BufferWriter& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u16(m.vtime_ms);
  w.u32(m.originator.value());
  w.u8(m.ttl);
  w.u8(m.hop_count);
  w.u16(m.msg_seq);
  switch (m.type) {
    case MsgType::kHello: {
      w.u8(m.hello.willingness);
      w.u8(static_cast<std::uint8_t>(m.hello.links.size()));
      for (const auto& group : m.hello.links) {
        w.u8(static_cast<std::uint8_t>(group.code));
        w.u16(static_cast<std::uint16_t>(group.neighbors.size()));
        for (const auto& n : group.neighbors) w.u32(n.value());
      }
      break;
    }
    case MsgType::kTc: {
      w.u16(m.tc.ansn);
      w.u16(static_cast<std::uint16_t>(m.tc.advertised.size()));
      for (const auto& n : m.tc.advertised) w.u32(n.value());
      break;
    }
  }
  w.u16(static_cast<std::uint16_t>(m.extension.size()));
  w.raw(m.extension);
}

// Decodes into `m` in place: vectors are cleared and refilled, never
// replaced, so their capacity carries over to the next message.
Result<void> decode_message(BufferReader& r, Message& m) {
  auto type = r.u8();
  if (!type) return type.error();
  if (*type != static_cast<std::uint8_t>(MsgType::kHello) &&
      *type != static_cast<std::uint8_t>(MsgType::kTc)) {
    return fail("olsr: unknown message type " + std::to_string(*type));
  }
  m.type = static_cast<MsgType>(*type);
  auto vtime = r.u16();
  if (!vtime) return vtime.error();
  m.vtime_ms = *vtime;
  auto orig = r.u32();
  if (!orig) return orig.error();
  m.originator = net::Address{*orig};
  auto ttl = r.u8();
  if (!ttl) return ttl.error();
  m.ttl = *ttl;
  auto hops = r.u8();
  if (!hops) return hops.error();
  m.hop_count = *hops;
  auto seq = r.u16();
  if (!seq) return seq.error();
  m.msg_seq = *seq;

  switch (m.type) {
    case MsgType::kHello: {
      auto will = r.u8();
      if (!will) return will.error();
      m.hello.willingness = *will;
      auto groups = r.u8();
      if (!groups) return groups.error();
      m.hello.links.resize(*groups);
      for (auto& group : m.hello.links) {
        auto code = r.u8();
        if (!code) return code.error();
        group.code = static_cast<LinkCode>(*code);
        auto count = r.u16();
        if (!count) return count.error();
        group.neighbors.clear();
        for (std::uint16_t i = 0; i < *count; ++i) {
          auto addr = r.u32();
          if (!addr) return addr.error();
          group.neighbors.push_back(net::Address{*addr});
        }
      }
      break;
    }
    case MsgType::kTc: {
      auto ansn = r.u16();
      if (!ansn) return ansn.error();
      m.tc.ansn = *ansn;
      auto count = r.u16();
      if (!count) return count.error();
      m.tc.advertised.clear();
      for (std::uint16_t i = 0; i < *count; ++i) {
        auto addr = r.u32();
        if (!addr) return addr.error();
        m.tc.advertised.push_back(net::Address{*addr});
      }
      break;
    }
  }

  auto ext_len = r.u16();
  if (!ext_len) return ext_len.error();
  auto ext = r.view(*ext_len);
  if (!ext) return ext.error();
  m.extension.assign(ext->begin(), ext->end());
  return {};
}

// `head` is what verify_crc32 made of all `size` bytes of the packet.
Result<void> decode_head(std::size_t size,
                         std::optional<std::span<const std::uint8_t>> head,
                         Packet& p) {
  if (size < 4) return fail("olsr: packet shorter than CRC trailer");
  if (!head) return fail("olsr: CRC mismatch");
  BufferReader r(*head);
  auto seq = r.u16();
  if (!seq) return seq.error();
  p.pkt_seq = *seq;
  auto count = r.u8();
  if (!count) return count.error();
  p.messages.resize(*count);
  for (auto& m : p.messages) {
    if (auto ok = decode_message(r, m); !ok) return ok.error();
  }
  return {};
}

std::size_t wire_size(const Message& m) {
  std::size_t n = 11;  // type .. msg_seq
  switch (m.type) {
    case MsgType::kHello:
      n += 2;
      for (const auto& group : m.hello.links) {
        n += 3 + 4 * group.neighbors.size();
      }
      break;
    case MsgType::kTc:
      n += 4 + 4 * m.tc.advertised.size();
      break;
  }
  return n + 2 + m.extension.size();
}

}  // namespace

Bytes encode(const Packet& packet) {
  std::size_t size = 3 + 4;  // header + CRC trailer
  for (const auto& m : packet.messages) size += wire_size(m);
  Bytes out;
  out.reserve(size);
  BufferWriter w(out);
  w.u16(packet.pkt_seq);
  w.u8(static_cast<std::uint8_t>(packet.messages.size()));
  for (const auto& m : packet.messages) encode_message(w, m);
  // Integrity trailer (see aodv_codec.cpp): corrupted packets must fail
  // decode as a whole rather than poison the topology set.
  append_crc32(out);
  return out;
}

Result<Packet> decode(std::span<const std::uint8_t> data) {
  Packet p;
  if (auto ok = decode_head(data.size(), verify_crc32(data), p); !ok) {
    return ok.error();
  }
  return p;
}

Result<void> decode_frame(const SharedBytes& frame, Packet& out) {
  return decode_head(frame.size(), frame.verified_head(), out);
}

std::string describe(const Message& m) {
  switch (m.type) {
    case MsgType::kHello: {
      std::string s = "HELLO from " + m.originator.to_string() + " links={";
      for (const auto& g : m.hello.links) {
        for (const auto& n : g.neighbors) {
          s += n.to_string();
          s += g.code == LinkCode::kMpr   ? "(mpr),"
               : g.code == LinkCode::kSym ? "(sym),"
                                          : "(asym),";
        }
      }
      s += "}";
      return s;
    }
    case MsgType::kTc: {
      std::string s = "TC from " + m.originator.to_string() +
                      " ansn=" + std::to_string(m.tc.ansn) + " adv={";
      for (const auto& n : m.tc.advertised) s += n.to_string() + ",";
      s += "}";
      return s;
    }
  }
  return "?";
}

}  // namespace siphoc::routing::olsr
