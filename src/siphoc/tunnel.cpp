#include "siphoc/tunnel.hpp"

#include "common/metrics.hpp"

namespace siphoc {

using tunnel::MsgType;

namespace {

Counter& tun_counter(net::Host& host, const std::string& name) {
  return host.sim().ctx().metrics().counter(name, host.name(), "tunnel");
}

}  // namespace

namespace tunnel {

Bytes encode_frame(MsgType type, std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(1 + payload.size() + 4);
  BufferWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(payload);
  append_crc32(out);
  return out;
}

Result<Decoded> decode_frame(std::span<const std::uint8_t> data) {
  if (data.size() < 5) return fail("tunnel: frame shorter than header+CRC");
  const auto head = verify_crc32(data);
  if (!head) return fail("tunnel: CRC mismatch");
  const auto raw_type = (*head)[0];
  if (raw_type < static_cast<std::uint8_t>(MsgType::kConnect) ||
      raw_type > static_cast<std::uint8_t>(MsgType::kDisconnect)) {
    return fail("tunnel: unknown message type " + std::to_string(raw_type));
  }
  Decoded out;
  out.type = static_cast<MsgType>(raw_type);
  out.payload.assign(head->begin() + 1, head->end());
  return out;
}

}  // namespace tunnel

// ===========================================================================
// TunnelServer
// ===========================================================================

TunnelServer::TunnelServer(net::Host& host)
    : host_(host), log_(host.sim().ctx().log(), "tunnel-srv", host.name()) {}

TunnelServer::~TunnelServer() { stop(); }

void TunnelServer::start() {
  if (running_) return;
  running_ = true;
  host_.bind(net::kTunnelPort,
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_packet(d);
             });
  expiry_timer_.start(host_.sim(), seconds(2), [this] { expire_clients(); });
}

void TunnelServer::stop() {
  if (!running_) return;
  running_ = false;
  expiry_timer_.stop();
  host_.unbind(net::kTunnelPort);
  if (host_.internet() != nullptr) {
    for (const auto& [addr, client] : clients_) {
      host_.internet()->detach(addr);
    }
  }
  clients_.clear();
}

void TunnelServer::on_packet(const net::Datagram& d) {
  auto frame = tunnel::decode_frame(d.payload);
  if (!frame) {
    tun_counter(host_, "tunnel.decode_errors_total").add();
    log_.debug("rejected tunnel frame from ", d.src.to_string(), ": ",
               frame.error().message);
    return;
  }
  if (d.corrupted) {
    // A bit-flipped frame survived the CRC trailer; the chaos soak asserts
    // this counter stays zero.
    host_.sim().ctx().metrics()
        .counter("chaos.corrupt_accepted_total", host_.name(), "tunnel")
        .add();
  }

  switch (frame->type) {
    case MsgType::kConnect: {
      if (host_.internet() == nullptr) return;  // lost our uplink
      // Reuse the existing lease when the same client reconnects.
      net::Address assigned;
      for (auto& [addr, client] : clients_) {
        if (client.manet_endpoint == d.source()) {
          assigned = addr;
          break;
        }
      }
      if (assigned.is_unspecified()) {
        // Lease from this gateway's own /24 slice of the tunnel realm
        // (10.8.<manet octet>.N): with several gateways up at once, every
        // lease must stay globally unique on the Internet segment or
        // responses to one client would be relayed down another's tunnel.
        const std::uint32_t slice =
            (host_.manet_address().value() & 0xffu) << 8;
        assigned = net::Address{net::kTunnelPrefix.value() | slice |
                                next_client_octet_++};
        Client client;
        client.tunnel_address = assigned;
        client.manet_endpoint = d.source();
        client.last_seen = host_.sim().now();
        clients_[assigned] = client;
        // Bridge: the gateway answers for the client's tunnel address on
        // the Internet segment and relays inbound traffic down the tunnel.
        host_.internet()->attach(assigned, [this, assigned](
                                               const net::Datagram& inbound) {
          const auto it = clients_.find(assigned);
          if (it == clients_.end()) return;
          relay_to_client(it->second, inbound);
        });
        log_.info("client ", d.src.to_string(), " attached as ",
                  assigned.to_string());
        tun_counter(host_, "tunnel.clients_attached_total").add();
        host_.sim().ctx().metrics()
            .gauge("tunnel.clients", host_.name(), "tunnel")
            .set(static_cast<double>(clients_.size()));
      }
      clients_[assigned].last_seen = host_.sim().now();
      Bytes lease;
      BufferWriter w(lease);
      w.u32(assigned.value());
      host_.send_udp(net::kTunnelPort, d.source(),
                     tunnel::encode_frame(MsgType::kAccept, lease));
      break;
    }
    case MsgType::kData: {
      auto inner = net::Datagram::decode(frame->payload);
      if (!inner) {
        tun_counter(host_, "tunnel.decode_errors_total").add();
        log_.warn("undecodable tunneled datagram from ", d.src.to_string());
        return;
      }
      const auto it = clients_.find(inner->src);
      if (it == clients_.end()) return;  // not a leased address: drop
      it->second.last_seen = host_.sim().now();
      tun_counter(host_, "tunnel.datagrams_up_total").add();
      tun_counter(host_, "tunnel.bytes_relayed_total")
          .add(inner->wire_size());
      if (host_.internet() != nullptr) host_.internet()->send(*inner);
      break;
    }
    case MsgType::kKeepalive: {
      for (auto& [addr, client] : clients_) {
        if (client.manet_endpoint == d.source()) {
          client.last_seen = host_.sim().now();
        }
      }
      host_.send_udp(net::kTunnelPort, d.source(),
                     tunnel::encode_frame(MsgType::kKeepaliveAck));
      break;
    }
    case MsgType::kDisconnect: {
      for (auto it = clients_.begin(); it != clients_.end();) {
        if (it->second.manet_endpoint == d.source()) {
          if (host_.internet() != nullptr) host_.internet()->detach(it->first);
          log_.info("client ", it->first.to_string(), " disconnected");
          it = clients_.erase(it);
          host_.sim().ctx().metrics()
              .gauge("tunnel.clients", host_.name(), "tunnel")
              .set(static_cast<double>(clients_.size()));
        } else {
          ++it;
        }
      }
      break;
    }
    default:
      break;
  }
}

void TunnelServer::relay_to_client(const Client& client,
                                   const net::Datagram& inner) {
  tun_counter(host_, "tunnel.datagrams_down_total").add();
  tun_counter(host_, "tunnel.bytes_relayed_total")
      .add(inner.wire_size());
  const Bytes inner_wire = inner.encode();
  host_.send_udp(net::kTunnelPort, client.manet_endpoint,
                 tunnel::encode_frame(MsgType::kData, inner_wire));
}

void TunnelServer::expire_clients() {
  const TimePoint cutoff = host_.sim().now() - tunnel::kClientExpiry;
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (it->second.last_seen < cutoff) {
      if (host_.internet() != nullptr) host_.internet()->detach(it->first);
      log_.info("client ", it->first.to_string(), " expired");
      it = clients_.erase(it);
      tun_counter(host_, "tunnel.clients_expired_total").add();
      host_.sim().ctx().metrics()
          .gauge("tunnel.clients", host_.name(), "tunnel")
          .set(static_cast<double>(clients_.size()));
    } else {
      ++it;
    }
  }
}

// ===========================================================================
// TunnelClient
// ===========================================================================

TunnelClient::TunnelClient(net::Host& host, StateCallback on_state)
    : host_(host), log_(host.sim().ctx().log(), "tunnel-cli", host.name()),
      on_state_(std::move(on_state)) {}

TunnelClient::~TunnelClient() {
  if (connected_ || connecting_) teardown(false);
}

void TunnelClient::connect(net::Endpoint gateway) {
  if (connected_ || connecting_) return;
  connecting_ = true;
  connect_started_ = host_.sim().now();
  gateway_ = gateway;
  host_.bind(net::kTunnelClientPort,
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_packet(d);
             });
  host_.send_udp(net::kTunnelClientPort, gateway_,
                 tunnel::encode_frame(MsgType::kConnect));
  connect_timeout_ = host_.sim().schedule(seconds(5), [this] {
    if (!connected_) teardown(true);
  });
}

void TunnelClient::disconnect() {
  if (!connected_ && !connecting_) return;
  host_.send_udp(net::kTunnelClientPort, gateway_,
                 tunnel::encode_frame(MsgType::kDisconnect));
  teardown(true);
}

void TunnelClient::on_packet(const net::Datagram& d) {
  auto frame = tunnel::decode_frame(d.payload);
  if (!frame) {
    tun_counter(host_, "tunnel.decode_errors_total").add();
    log_.debug("rejected tunnel frame from ", d.src.to_string(), ": ",
               frame.error().message);
    return;
  }
  if (d.corrupted) {
    host_.sim().ctx().metrics()
        .counter("chaos.corrupt_accepted_total", host_.name(), "tunnel")
        .add();
  }
  BufferReader r(frame->payload);

  switch (frame->type) {
    case MsgType::kAccept: {
      auto assigned = r.u32();
      if (!assigned || connected_) return;
      connect_timeout_.cancel();
      connecting_ = false;
      connected_ = true;
      tunnel_address_ = net::Address{*assigned};
      log_.info("tunnel up, address ", tunnel_address_.to_string(), " via ",
                gateway_.to_string());
      tun_counter(host_, "tunnel.connects_total").add();
      host_.sim().ctx().metrics()
          .histogram("tunnel.connect_ms", kLatencyBucketsMs, host_.name(),
                     "tunnel")
          .observe(to_millis(host_.sim().now() - connect_started_));
      host_.sim().ctx().metrics().record_span(
          "tunnel_connect", "tunnel", host_.name(), connect_started_,
          host_.sim().now());

      host_.attach_tunnel(tunnel_address_, [this](net::Datagram inner) {
        encapsulate(std::move(inner));
      });
      // Internet + sibling tunnel clients route through the tunnel.
      host_.add_route({net::kInternetPrefix, net::kInternetPrefixLen,
                       std::nullopt, net::Interface::kTunnel, 10});
      host_.add_route({net::kTunnelPrefix, net::kTunnelPrefixLen,
                       std::nullopt, net::Interface::kTunnel, 10});
      missed_keepalives_ = 0;
      keepalive_timer_.start(host_.sim(), tunnel::kKeepaliveInterval,
                             [this] { send_keepalive(); });
      if (on_state_) on_state_(true, tunnel_address_);
      break;
    }
    case MsgType::kData: {
      auto inner = net::Datagram::decode(frame->payload);
      if (!inner) {
        tun_counter(host_, "tunnel.decode_errors_total").add();
        return;
      }
      tun_counter(host_, "tunnel.bytes_rx_total")
          .add(inner->wire_size());
      host_.inject(std::move(*inner), net::Interface::kTunnel);
      break;
    }
    case MsgType::kKeepaliveAck: {
      missed_keepalives_ = 0;
      break;
    }
    default:
      break;
  }
}

void TunnelClient::encapsulate(net::Datagram inner) {
  tun_counter(host_, "tunnel.bytes_tx_total").add(inner.wire_size());
  const Bytes inner_wire = inner.encode();
  host_.send_udp(net::kTunnelClientPort, gateway_,
                 tunnel::encode_frame(MsgType::kData, inner_wire));
}

void TunnelClient::send_keepalive() {
  if (++missed_keepalives_ > tunnel::kMaxMissedKeepalives) {
    tun_counter(host_, "tunnel.keepalive_timeouts_total").add();
    log_.info("gateway ", gateway_.to_string(), " unreachable, tunnel down");
    teardown(true);
    return;
  }
  host_.send_udp(net::kTunnelClientPort, gateway_,
                 tunnel::encode_frame(MsgType::kKeepalive));
}

void TunnelClient::teardown(bool notify) {
  const bool was_connected = connected_;
  connecting_ = false;
  connected_ = false;
  keepalive_timer_.stop();
  connect_timeout_.cancel();
  host_.unbind(net::kTunnelClientPort);
  host_.detach_tunnel();  // also clears the tunnel routes
  tunnel_address_ = net::Address{};
  if (was_connected) {
    tun_counter(host_, "tunnel.disconnects_total").add();
  }
  if (notify && on_state_ && was_connected) on_state_(false, net::Address{});
}

}  // namespace siphoc
