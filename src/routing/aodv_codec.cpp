#include "routing/aodv_codec.hpp"

namespace siphoc::routing::aodv {

namespace {

void encode_body(BufferWriter& w, const Rreq& m) {
  w.u8(static_cast<std::uint8_t>(Type::kRreq));
  w.u8(m.hop_count);
  w.u8(m.ttl);
  w.u8(m.unknown_seqno ? 1 : 0);
  w.u32(m.rreq_id);
  w.u32(m.dst.value());
  w.u32(m.dst_seqno);
  w.u32(m.orig.value());
  w.u32(m.orig_seqno);
}

void encode_body(BufferWriter& w, const Rrep& m) {
  w.u8(static_cast<std::uint8_t>(Type::kRrep));
  w.u8(m.hop_count);
  w.u8(m.is_hello ? 1 : 0);
  w.u32(m.dst.value());
  w.u32(m.dst_seqno);
  w.u32(m.orig.value());
  w.u32(m.lifetime_ms);
}

void encode_body(BufferWriter& w, const Rerr& m) {
  w.u8(static_cast<std::uint8_t>(Type::kRerr));
  w.u8(static_cast<std::uint8_t>(m.destinations.size()));
  for (const auto& u : m.destinations) {
    w.u32(u.dst.value());
    w.u32(u.seqno);
  }
}

Result<Rreq> decode_rreq(BufferReader& r) {
  Rreq m;
  auto hop = r.u8();
  if (!hop) return hop.error();
  m.hop_count = *hop;
  auto ttl = r.u8();
  if (!ttl) return ttl.error();
  m.ttl = *ttl;
  auto unknown = r.u8();
  if (!unknown) return unknown.error();
  m.unknown_seqno = *unknown != 0;
  auto id = r.u32();
  if (!id) return id.error();
  m.rreq_id = *id;
  auto dst = r.u32();
  if (!dst) return dst.error();
  m.dst = net::Address{*dst};
  auto dseq = r.u32();
  if (!dseq) return dseq.error();
  m.dst_seqno = *dseq;
  auto orig = r.u32();
  if (!orig) return orig.error();
  m.orig = net::Address{*orig};
  auto oseq = r.u32();
  if (!oseq) return oseq.error();
  m.orig_seqno = *oseq;
  return m;
}

Result<Rrep> decode_rrep(BufferReader& r) {
  Rrep m;
  auto hop = r.u8();
  if (!hop) return hop.error();
  m.hop_count = *hop;
  auto hello = r.u8();
  if (!hello) return hello.error();
  m.is_hello = *hello != 0;
  auto dst = r.u32();
  if (!dst) return dst.error();
  m.dst = net::Address{*dst};
  auto dseq = r.u32();
  if (!dseq) return dseq.error();
  m.dst_seqno = *dseq;
  auto orig = r.u32();
  if (!orig) return orig.error();
  m.orig = net::Address{*orig};
  auto lifetime = r.u32();
  if (!lifetime) return lifetime.error();
  m.lifetime_ms = *lifetime;
  return m;
}

Result<Rerr> decode_rerr(BufferReader& r) {
  Rerr m;
  auto count = r.u8();
  if (!count) return count.error();
  for (std::uint8_t i = 0; i < *count; ++i) {
    auto dst = r.u32();
    if (!dst) return dst.error();
    auto seq = r.u32();
    if (!seq) return seq.error();
    m.destinations.push_back({net::Address{*dst}, *seq});
  }
  return m;
}

}  // namespace

// Exact wire size of the message body (type byte included), so encode()
// reserves once instead of growing through vector doublings.
struct BodySize {
  std::size_t operator()(const Rreq&) const { return 24; }
  std::size_t operator()(const Rrep&) const { return 19; }
  std::size_t operator()(const Rerr& m) const {
    return 2 + 8 * m.destinations.size();
  }
};

Bytes encode(const Message& message, std::span<const std::uint8_t> extension) {
  Bytes out;
  out.reserve(std::visit(BodySize{}, message) + 2 + extension.size() + 4);
  BufferWriter w(out);
  std::visit([&](const auto& m) { encode_body(w, m); }, message);
  w.u16(static_cast<std::uint16_t>(extension.size()));
  w.raw(extension);
  // Integrity trailer over everything above: a bit-flipped packet (chaos
  // engine corruption, hostile peer) fails here before any field is
  // believed, so it can never seed a routing-table or SLP-cache entry.
  append_crc32(out);
  return out;
}

namespace {

// `head` is what verify_crc32 made of all `size` bytes of the packet.
Result<Decoded> decode_head(
    std::size_t size, std::optional<std::span<const std::uint8_t>> head) {
  if (size < 4) return fail("aodv: packet shorter than CRC trailer");
  if (!head) return fail("aodv: CRC mismatch");
  BufferReader r(*head);
  auto type = r.u8();
  if (!type) return type.error();

  Decoded out{Rreq{}, {}};
  switch (static_cast<Type>(*type)) {
    case Type::kRreq: {
      auto m = decode_rreq(r);
      if (!m) return m.error();
      out.message = *m;
      break;
    }
    case Type::kRrep: {
      auto m = decode_rrep(r);
      if (!m) return m.error();
      out.message = *m;
      break;
    }
    case Type::kRerr: {
      auto m = decode_rerr(r);
      if (!m) return m.error();
      out.message = std::move(*m);
      break;
    }
    default:
      return fail("aodv: unknown packet type " + std::to_string(*type));
  }

  auto ext_len = r.u16();
  if (!ext_len) return ext_len.error();
  auto ext = r.view(*ext_len);
  if (!ext) return ext.error();
  out.extension = *ext;
  return out;
}

}  // namespace

Result<Decoded> decode(std::span<const std::uint8_t> packet) {
  return decode_head(packet.size(), verify_crc32(packet));
}

Result<Decoded> decode_frame(const SharedBytes& frame) {
  return decode_head(frame.size(), frame.verified_head());
}

std::string describe(const Message& message) {
  struct Visitor {
    std::string operator()(const Rreq& m) const {
      return "RREQ id=" + std::to_string(m.rreq_id) + " orig=" +
             m.orig.to_string() + " dst=" +
             (m.dst.is_unspecified() ? std::string("<service-discovery>")
                                     : m.dst.to_string()) +
             " hops=" + std::to_string(m.hop_count) +
             " ttl=" + std::to_string(m.ttl);
    }
    std::string operator()(const Rrep& m) const {
      if (m.is_hello) return "HELLO from " + m.dst.to_string();
      return "RREP dst=" + m.dst.to_string() + " orig=" + m.orig.to_string() +
             " hops=" + std::to_string(m.hop_count) +
             " lifetime=" + std::to_string(m.lifetime_ms) + "ms";
    }
    std::string operator()(const Rerr& m) const {
      std::string s = "RERR unreachable={";
      for (const auto& u : m.destinations) s += u.dst.to_string() + ",";
      s += "}";
      return s;
    }
  };
  return std::visit(Visitor{}, message);
}

}  // namespace siphoc::routing::aodv
