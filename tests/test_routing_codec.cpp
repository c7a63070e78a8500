// Unit tests: AODV and OLSR wire codecs, including fuzz-style robustness.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "routing/aodv_codec.hpp"
#include "routing/olsr_codec.hpp"

namespace siphoc::routing {
namespace {

using net::Address;

// aodv::Decoded::extension views the decoded buffer; copy it to compare.
Bytes copy_of(std::span<const std::uint8_t> s) {
  return Bytes(s.begin(), s.end());
}

TEST(AodvCodecTest, RreqRoundTrip) {
  aodv::Rreq m;
  m.hop_count = 3;
  m.ttl = 12;
  m.rreq_id = 77;
  m.dst = Address(10, 0, 0, 9);
  m.dst_seqno = 42;
  m.unknown_seqno = false;
  m.orig = Address(10, 0, 0, 1);
  m.orig_seqno = 100;

  Bytes ext = {1, 2, 3};
  const Bytes wire = aodv::encode(m, ext);
  auto decoded = aodv::decode(wire);
  ASSERT_TRUE(decoded);
  const auto* rreq = std::get_if<aodv::Rreq>(&decoded->message);
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(rreq->hop_count, 3);
  EXPECT_EQ(rreq->ttl, 12);
  EXPECT_EQ(rreq->rreq_id, 77u);
  EXPECT_EQ(rreq->dst, m.dst);
  EXPECT_EQ(rreq->dst_seqno, 42u);
  EXPECT_FALSE(rreq->unknown_seqno);
  EXPECT_EQ(rreq->orig, m.orig);
  EXPECT_EQ(rreq->orig_seqno, 100u);
  EXPECT_EQ(copy_of(decoded->extension), ext);
}

TEST(AodvCodecTest, RrepRoundTrip) {
  aodv::Rrep m;
  m.hop_count = 2;
  m.dst = Address(10, 0, 0, 5);
  m.dst_seqno = 9;
  m.orig = Address(10, 0, 0, 1);
  m.lifetime_ms = 6000;
  const Bytes wire = aodv::encode(m, {});
  const auto decoded = aodv::decode(wire);
  ASSERT_TRUE(decoded);
  const auto* rrep = std::get_if<aodv::Rrep>(&decoded->message);
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(rrep->lifetime_ms, 6000u);
  EXPECT_FALSE(rrep->is_hello);
  EXPECT_TRUE(decoded->extension.empty());
}

TEST(AodvCodecTest, HelloFlagSurvives) {
  aodv::Rrep hello;
  hello.is_hello = true;
  hello.dst = Address(10, 0, 0, 2);
  const Bytes wire = aodv::encode(hello, {});
  const auto decoded = aodv::decode(wire);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(std::get<aodv::Rrep>(decoded->message).is_hello);
}

TEST(AodvCodecTest, RerrRoundTrip) {
  aodv::Rerr m;
  m.destinations.push_back({Address(10, 0, 0, 3), 11});
  m.destinations.push_back({Address(10, 0, 0, 4), 12});
  const Bytes wire = aodv::encode(m, {});
  const auto decoded = aodv::decode(wire);
  ASSERT_TRUE(decoded);
  const auto& rerr = std::get<aodv::Rerr>(decoded->message);
  ASSERT_EQ(rerr.destinations.size(), 2u);
  EXPECT_EQ(rerr.destinations[1].seqno, 12u);
}

TEST(AodvCodecTest, EmptyAndUnknownTypeRejected) {
  EXPECT_FALSE(aodv::decode(Bytes{}));
  EXPECT_FALSE(aodv::decode(Bytes{0x99}));
}

TEST(AodvCodecTest, TruncationRejectedAtEveryLength) {
  aodv::Rreq m;
  m.dst = Address(10, 0, 0, 9);
  const Bytes ext = {7, 7, 7};
  const Bytes wire = aodv::encode(m, ext);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(aodv::decode(std::span(wire.data(), len)))
        << "length " << len << " should not decode";
  }
  EXPECT_TRUE(aodv::decode(wire));
}

TEST(AodvCodecTest, RandomBytesNeverCrash) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)aodv::decode(junk);  // must return error or garbage, never UB
  }
  SUCCEED();
}

TEST(AodvCodecTest, DecodeFrameMatchesDecode) {
  aodv::Rreq m;
  m.rreq_id = 9;
  m.orig = Address(10, 0, 0, 1);
  const SharedBytes frame(aodv::encode(m, Bytes{4, 5, 6}));
  const auto fresh = aodv::decode(frame.bytes());
  for (int pass = 0; pass < 2; ++pass) {  // the second reads the cached CRC
    const auto decoded = aodv::decode_frame(frame);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(std::get<aodv::Rreq>(decoded->message).rreq_id, 9u);
    EXPECT_EQ(copy_of(decoded->extension), copy_of(fresh->extension));
  }
  Bytes flipped = frame.bytes();
  flipped[3] ^= 0x10;
  const auto bad = aodv::decode_frame(SharedBytes(std::move(flipped)));
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().message, "aodv: CRC mismatch");
  const auto shortf = aodv::decode_frame(SharedBytes(Bytes{1, 2, 3}));
  ASSERT_FALSE(shortf);
  EXPECT_EQ(shortf.error().message, "aodv: packet shorter than CRC trailer");
}

TEST(AodvCodecTest, Describe) {
  aodv::Rreq service;
  service.rreq_id = 5;
  service.orig = Address(10, 0, 0, 1);
  EXPECT_NE(aodv::describe(service).find("<service-discovery>"),
            std::string::npos);
}

TEST(OlsrCodecTest, HelloRoundTrip) {
  olsr::Message m;
  m.type = olsr::MsgType::kHello;
  m.originator = Address(10, 0, 0, 1);
  m.vtime_ms = 6000;
  m.msg_seq = 42;
  m.hello.willingness = 3;
  m.hello.links.push_back(
      {olsr::LinkCode::kSym, {Address(10, 0, 0, 2), Address(10, 0, 0, 3)}});
  m.hello.links.push_back({olsr::LinkCode::kMpr, {Address(10, 0, 0, 4)}});
  m.extension = {9, 8, 7};

  olsr::Packet p;
  p.pkt_seq = 1;
  p.messages.push_back(m);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->messages.size(), 1u);
  const auto& h = decoded->messages.front();
  EXPECT_EQ(h.originator, m.originator);
  EXPECT_EQ(h.msg_seq, 42);
  ASSERT_EQ(h.hello.links.size(), 2u);
  EXPECT_EQ(h.hello.links[0].neighbors.size(), 2u);
  EXPECT_EQ(h.hello.links[1].code, olsr::LinkCode::kMpr);
  EXPECT_EQ(h.extension, m.extension);
}

TEST(OlsrCodecTest, TcRoundTrip) {
  olsr::Message m;
  m.type = olsr::MsgType::kTc;
  m.originator = Address(10, 0, 0, 7);
  m.ttl = 255;
  m.tc.ansn = 17;
  m.tc.advertised = {Address(10, 0, 0, 1), Address(10, 0, 0, 2)};
  olsr::Packet p;
  p.messages.push_back(m);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  const auto& tc = decoded->messages.front();
  EXPECT_EQ(tc.tc.ansn, 17);
  ASSERT_EQ(tc.tc.advertised.size(), 2u);
}

TEST(OlsrCodecTest, MultiMessagePacket) {
  olsr::Packet p;
  olsr::Message hello;
  hello.type = olsr::MsgType::kHello;
  hello.originator = Address(10, 0, 0, 1);
  olsr::Message tc;
  tc.type = olsr::MsgType::kTc;
  tc.originator = Address(10, 0, 0, 1);
  p.messages.push_back(hello);
  p.messages.push_back(tc);
  const auto decoded = olsr::decode(olsr::encode(p));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->messages.size(), 2u);
  EXPECT_EQ(decoded->messages[1].type, olsr::MsgType::kTc);
}

// Every field decode() sets for the message's type (see decode_frame).
void expect_same_packet(const olsr::Packet& got, const olsr::Packet& want) {
  EXPECT_EQ(got.pkt_seq, want.pkt_seq);
  ASSERT_EQ(got.messages.size(), want.messages.size());
  for (std::size_t i = 0; i < want.messages.size(); ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    const olsr::Message& g = got.messages[i];
    const olsr::Message& w = want.messages[i];
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.vtime_ms, w.vtime_ms);
    EXPECT_EQ(g.originator, w.originator);
    EXPECT_EQ(g.ttl, w.ttl);
    EXPECT_EQ(g.hop_count, w.hop_count);
    EXPECT_EQ(g.msg_seq, w.msg_seq);
    EXPECT_EQ(g.extension, w.extension);
    if (w.type == olsr::MsgType::kHello) {
      EXPECT_EQ(g.hello.willingness, w.hello.willingness);
      ASSERT_EQ(g.hello.links.size(), w.hello.links.size());
      for (std::size_t k = 0; k < w.hello.links.size(); ++k) {
        EXPECT_EQ(g.hello.links[k].code, w.hello.links[k].code);
        EXPECT_EQ(g.hello.links[k].neighbors, w.hello.links[k].neighbors);
      }
    } else {
      EXPECT_EQ(g.tc.ansn, w.tc.ansn);
      EXPECT_EQ(g.tc.advertised, w.tc.advertised);
    }
  }
}

std::vector<Address> addresses(std::uint32_t first, std::size_t n) {
  std::vector<Address> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Address(10, 0, 1, static_cast<std::uint8_t>(first + i)));
  }
  return out;
}

olsr::Message tc_message(std::uint16_t seq, std::size_t advertised,
                         Bytes ext) {
  olsr::Message m;
  m.type = olsr::MsgType::kTc;
  m.originator = Address(10, 0, 0, 7);
  m.ttl = 255;
  m.hop_count = 2;
  m.msg_seq = seq;
  m.vtime_ms = 15000;
  m.tc.ansn = static_cast<std::uint16_t>(seq * 3);
  m.tc.advertised = addresses(seq, advertised);
  m.extension = std::move(ext);
  return m;
}

olsr::Message hello_message(std::uint16_t seq,
                            const std::vector<std::size_t>& group_sizes,
                            Bytes ext) {
  olsr::Message m;
  m.type = olsr::MsgType::kHello;
  m.originator = Address(10, 0, 0, 3);
  m.msg_seq = seq;
  m.hello.willingness = static_cast<std::uint8_t>(seq % 7);
  const olsr::LinkCode codes[] = {olsr::LinkCode::kMpr, olsr::LinkCode::kSym,
                                  olsr::LinkCode::kAsym};
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    m.hello.links.push_back(
        {codes[g % 3],
         addresses(static_cast<std::uint32_t>(10 * g + seq), group_sizes[g])});
  }
  m.extension = std::move(ext);
  return m;
}

olsr::Packet packet_of(std::uint16_t seq, std::vector<olsr::Message> ms) {
  olsr::Packet p;
  p.pkt_seq = seq;
  p.messages = std::move(ms);
  return p;
}

TEST(OlsrCodecTest, ReusedPacketMatchesFreshDecodeAsPacketsShrink) {
  // Each step shrinks something the one before left in the reused Packet:
  // advertised addresses 8 -> 2, link groups 3 -> 1, neighbors per group,
  // extension bytes, and messages per packet 2 -> 1; and a HELLO follows a
  // TC in the same message slot.
  const std::vector<olsr::Packet> sequence = {
      packet_of(1, {tc_message(1, 8, Bytes(12, 0xaa)),
                    hello_message(2, {4, 3, 2}, Bytes{1, 2})}),
      packet_of(2, {tc_message(3, 8, Bytes(12, 0xbb))}),
      packet_of(3, {hello_message(4, {3, 2, 5}, Bytes(9, 0xcc))}),
      packet_of(4, {hello_message(5, {1}, {})}),
      packet_of(5, {tc_message(6, 2, Bytes{7})}),
      packet_of(6, {hello_message(7, {2, 1}, Bytes{3})}),
      packet_of(7, {tc_message(8, 0, {})}),
  };
  olsr::Packet reused;
  for (const auto& p : sequence) {
    SCOPED_TRACE("packet " + std::to_string(p.pkt_seq));
    const Bytes wire = olsr::encode(p);
    const auto fresh = olsr::decode(wire);
    ASSERT_TRUE(fresh);
    expect_same_packet(*fresh, p);
    ASSERT_TRUE(olsr::decode_frame(SharedBytes(wire), reused));
    expect_same_packet(reused, *fresh);
  }
}

TEST(OlsrCodecTest, DecodeFrameKeepsTheErrorMessages) {
  olsr::Packet reused;
  Bytes wire = olsr::encode(packet_of(1, {tc_message(1, 3, {})}));
  wire[5] ^= 0x01;
  const auto bad = olsr::decode_frame(SharedBytes(wire), reused);
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().message, olsr::decode(wire).error().message);
  EXPECT_EQ(bad.error().message, "olsr: CRC mismatch");
  const auto shortf = olsr::decode_frame(SharedBytes(Bytes{1, 2}), reused);
  ASSERT_FALSE(shortf);
  EXPECT_EQ(shortf.error().message, "olsr: packet shorter than CRC trailer");
}

TEST(OlsrCodecTest, EncodeAllocatesExactlyTheWireSize) {
  const std::vector<olsr::Packet> shapes = {
      packet_of(1, {}),
      packet_of(2, {hello_message(1, {}, {})}),
      packet_of(3, {hello_message(1, {0}, {})}),
      packet_of(4, {hello_message(1, {1}, Bytes{1})}),
      packet_of(5, {hello_message(1, {3, 2, 5}, Bytes(40, 0x11))}),
      packet_of(6, {tc_message(1, 0, {})}),
      packet_of(7, {tc_message(1, 1, Bytes{2})}),
      packet_of(8, {tc_message(1, 8, Bytes(100, 0x22))}),
      packet_of(9, {tc_message(1, 2, {}), hello_message(2, {1, 1}, Bytes{3}),
                    tc_message(3, 5, Bytes(7, 0x33))}),
  };
  for (const auto& p : shapes) {
    const Bytes wire = olsr::encode(p);
    EXPECT_EQ(wire.capacity(), wire.size()) << "packet " << p.pkt_seq;
    EXPECT_TRUE(olsr::decode(wire)) << "packet " << p.pkt_seq;
  }
}

TEST(OlsrCodecTest, UnknownMessageTypeRejected) {
  Bytes wire;
  BufferWriter w(wire);
  w.u16(1);  // pkt seq
  w.u8(1);   // one message
  w.u8(0x7f);  // bogus type
  EXPECT_FALSE(olsr::decode(wire));
}

TEST(OlsrCodecTest, RandomBytesNeverCrash) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.uniform_int(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)olsr::decode(junk);
  }
  SUCCEED();
}

// Property: encode/decode is the identity for arbitrary valid RREQs.
class AodvRreqProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AodvRreqProperty, RoundTripIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    aodv::Rreq m;
    m.hop_count = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    m.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    m.rreq_id = rng.uniform_int(0, 0xffffffff);
    m.dst = Address{rng.uniform_int(0, 0xffffffff)};
    m.dst_seqno = rng.uniform_int(0, 0xffffffff);
    m.unknown_seqno = rng.chance(0.5);
    m.orig = Address{rng.uniform_int(0, 0xffffffff)};
    m.orig_seqno = rng.uniform_int(0, 0xffffffff);
    Bytes ext(rng.uniform_int(0, 32));
    for (auto& b : ext) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

    const Bytes wire = aodv::encode(m, ext);
    const auto decoded = aodv::decode(wire);
    ASSERT_TRUE(decoded);
    const auto& r = std::get<aodv::Rreq>(decoded->message);
    EXPECT_EQ(r.hop_count, m.hop_count);
    EXPECT_EQ(r.ttl, m.ttl);
    EXPECT_EQ(r.rreq_id, m.rreq_id);
    EXPECT_EQ(r.dst, m.dst);
    EXPECT_EQ(r.dst_seqno, m.dst_seqno);
    EXPECT_EQ(r.unknown_seqno, m.unknown_seqno);
    EXPECT_EQ(r.orig, m.orig);
    EXPECT_EQ(r.orig_seqno, m.orig_seqno);
    EXPECT_EQ(copy_of(decoded->extension), ext);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AodvRreqProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace siphoc::routing
