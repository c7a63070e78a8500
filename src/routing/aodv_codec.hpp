// AODV (RFC 3561) message formats.
//
// Field layout follows the RFC; two pragmatic deviations, both documented:
//   * every packet ends with a length-prefixed extension block -- that is
//     the attachment point for MANET SLP piggybacking (RFC 3561 also allows
//     trailing extensions, so this stays in the spirit of the format), and
//   * RREQ carries an explicit remaining-TTL byte because the emulated
//     link-local broadcasts cannot reuse the IP TTL across rebroadcasts.
#pragma once

#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "net/address.hpp"

namespace siphoc::routing::aodv {

enum class Type : std::uint8_t {
  kRreq = 1,
  kRrep = 2,
  kRerr = 3,
};

struct Rreq {
  std::uint8_t hop_count = 0;
  std::uint8_t ttl = 0;  // remaining flood radius (expanding ring search)
  std::uint32_t rreq_id = 0;
  net::Address dst;  // unspecified for pure service-discovery floods
  std::uint32_t dst_seqno = 0;
  bool unknown_seqno = true;
  net::Address orig;
  std::uint32_t orig_seqno = 0;
};

struct Rrep {
  std::uint8_t hop_count = 0;
  net::Address dst;   // node the route leads to
  std::uint32_t dst_seqno = 0;
  net::Address orig;  // node that asked (RREQ originator)
  std::uint32_t lifetime_ms = 0;
  bool is_hello = false;
};

struct Rerr {
  struct Unreachable {
    net::Address dst;
    std::uint32_t seqno = 0;
  };
  std::vector<Unreachable> destinations;
};

using Message = std::variant<Rreq, Rrep, Rerr>;

/// Serializes message + extension block into a wire packet.
Bytes encode(const Message& message, std::span<const std::uint8_t> extension);

/// A decoded packet. `extension` views the decoded buffer: it is valid only
/// while that buffer lives, so decode the wire bytes from a named object,
/// never from a temporary.
struct Decoded {
  Message message;
  std::span<const std::uint8_t> extension;
};

Result<Decoded> decode(std::span<const std::uint8_t> packet);

/// decode() of a received frame, with the CRC trailer checked through
/// SharedBytes::verified_head(): once per buffer, however many receivers
/// share it. Same verdicts and error messages as decode().
Result<Decoded> decode_frame(const SharedBytes& frame);

/// Human-readable one-liner (packet_trace example).
std::string describe(const Message& message);

}  // namespace siphoc::routing::aodv
