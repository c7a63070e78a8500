// OLSR (RFC 3626) message formats.
//
// Subset: HELLO (link sensing + neighbor/MPR signalling) and TC (topology
// dissemination). Each message carries a trailing length-prefixed extension
// block -- the MANET SLP piggyback attachment point. For the proactive
// protocol this is where service advertisements ride: on HELLO they reach
// the 1-hop neighborhood, on TC they are MPR-flooded through the whole
// network, which is how every node's SLP cache converges without any
// dedicated SLP traffic (paper Figure 4).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/address.hpp"

namespace siphoc::routing::olsr {

enum class MsgType : std::uint8_t {
  kHello = 1,
  kTc = 2,
};

/// Neighbor status codes advertised in HELLO (condensed link codes).
enum class LinkCode : std::uint8_t {
  kAsym = 0,  // heard them, symmetry not confirmed
  kSym = 1,   // bidirectional link confirmed
  kMpr = 2,   // symmetric + selected as our multipoint relay
};

struct Hello {
  std::uint8_t willingness = 3;  // WILL_DEFAULT
  struct LinkGroup {
    LinkCode code = LinkCode::kSym;
    std::vector<net::Address> neighbors;
  };
  std::vector<LinkGroup> links;
};

struct Tc {
  std::uint16_t ansn = 0;  // advertised neighbor sequence number
  std::vector<net::Address> advertised;  // MPR selectors
};

struct Message {
  MsgType type = MsgType::kHello;
  std::uint16_t vtime_ms = 6000;  // validity of the carried information
  net::Address originator;
  std::uint8_t ttl = 1;
  std::uint8_t hop_count = 0;
  std::uint16_t msg_seq = 0;
  Hello hello;  // valid when type == kHello
  Tc tc;        // valid when type == kTc
  Bytes extension;
};

struct Packet {
  std::uint16_t pkt_seq = 0;
  std::vector<Message> messages;
};

/// The wire bytes, CRC trailer included, in a vector of exactly that
/// capacity.
Bytes encode(const Packet& packet);
Result<Packet> decode(std::span<const std::uint8_t> data);

/// decode() of a received frame into `out`, which keeps the capacity of
/// its vectors from one call to the next: a receiver that reuses one
/// Packet decodes without allocating once the vectors have grown to the
/// sizes its traffic needs. The CRC trailer is checked through
/// SharedBytes::verified_head(), once per buffer however many receivers
/// share it. Same verdicts and error messages as decode(). On success
/// every field decode() would set matches it; the fields of the other
/// message type (`tc` of a HELLO, `hello` of a TC) are left as they were.
/// On error `out` is unspecified.
Result<void> decode_frame(const SharedBytes& frame, Packet& out);

std::string describe(const Message& message);

}  // namespace siphoc::routing::olsr
