// Layer-2 tunnel between a MANET node and a gateway node (paper section 2).
//
// "It also starts a layer two tunnel server ready to accept connections ...
//  Since the gateway node will directly forward all the traffic it receives
//  on the tunnel interface to the Internet, any node with a tunnel
//  connection is automatically attached to the Internet as well."
//
// Emulation: IP-in-UDP encapsulation on port 5100. The server assigns the
// client an address from its own slice of 10.8.0.0/16 (the /24 keyed by
// the gateway's MANET octet, so concurrent gateways never hand out the
// same lease), attaches that address to the Internet
// segment on the client's behalf (bridging, as an L2 tunnel does), and
// relays datagrams both ways. The client installs a tunnel interface plus
// routes for the Internet and tunnel prefixes, with keepalive-based failure
// detection so mobility-induced gateway loss tears the attachment down.
#pragma once

#include <functional>
#include <map>

#include "common/logging.hpp"
#include "net/host.hpp"

namespace siphoc {

class TunnelServer {
 public:
  explicit TunnelServer(net::Host& host);
  ~TunnelServer();

  void start();
  void stop();
  bool running() const { return running_; }

  std::size_t client_count() const { return clients_.size(); }

 private:
  struct Client {
    net::Address tunnel_address;
    net::Endpoint manet_endpoint;  // where to send encapsulated traffic
    TimePoint last_seen{};
  };

  void on_packet(const net::Datagram& d);
  void relay_to_client(const Client& client, const net::Datagram& inner);
  void expire_clients();

  net::Host& host_;
  Logger log_;
  bool running_ = false;
  std::map<net::Address, Client> clients_;  // by tunnel address
  std::uint8_t next_client_octet_ = 1;
  sim::PeriodicTimer expiry_timer_;
};

class TunnelClient {
 public:
  /// Invoked on state changes: connected(tunnel address) / disconnected.
  using StateCallback =
      std::function<void(bool connected, net::Address tunnel_address)>;

  TunnelClient(net::Host& host, StateCallback on_state);
  ~TunnelClient();

  /// Opens a tunnel to a gateway's tunnel server endpoint.
  void connect(net::Endpoint gateway);
  void disconnect();
  bool connected() const { return connected_; }
  bool connecting() const { return connecting_; }
  net::Address tunnel_address() const { return tunnel_address_; }
  net::Endpoint gateway() const { return gateway_; }

 private:
  void on_packet(const net::Datagram& d);
  void encapsulate(net::Datagram inner);
  void send_keepalive();
  void teardown(bool notify);

  net::Host& host_;
  Logger log_;
  StateCallback on_state_;
  bool connecting_ = false;
  bool connected_ = false;
  TimePoint connect_started_{};  // tunnel_connect span start
  net::Endpoint gateway_;
  net::Address tunnel_address_;
  int missed_keepalives_ = 0;
  sim::PeriodicTimer keepalive_timer_;
  sim::EventHandle connect_timeout_;
};

/// Tunnel wire protocol (shared by client/server and the tests).
namespace tunnel {
enum class MsgType : std::uint8_t {
  kConnect = 1,
  kAccept = 2,
  kData = 3,
  kKeepalive = 4,
  kKeepaliveAck = 5,
  kDisconnect = 6,
};
inline constexpr Duration kKeepaliveInterval = seconds(2);
inline constexpr int kMaxMissedKeepalives = 3;
inline constexpr Duration kClientExpiry = seconds(10);

/// Checksum-framed tunnel message: [u8 type][payload][u32 CRC trailer],
/// CRC over everything before it. decode_frame rejects truncated input,
/// CRC mismatches and unknown MsgType values, so a corrupted frame can
/// never hand believable bytes to the inner Datagram parser or flip a
/// keepalive into a disconnect.
Bytes encode_frame(MsgType type, std::span<const std::uint8_t> payload = {});

struct Decoded {
  MsgType type = MsgType::kConnect;
  Bytes payload;
};
Result<Decoded> decode_frame(std::span<const std::uint8_t> data);
}  // namespace tunnel

}  // namespace siphoc
