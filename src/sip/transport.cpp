#include "sip/transport.hpp"

namespace siphoc::sip {

Transport::Transport(net::Host& host, std::uint16_t port)
    : host_(host),
      port_(port),
      log_(host.sim().ctx().log(), "sip", host.name()) {
  host_.bind(port_, [this](const net::Datagram& d, const net::RxInfo&) {
    on_datagram(d);
  });
}

Transport::~Transport() { host_.unbind(port_); }

void Transport::send(const Message& message, net::Endpoint destination) {
  const std::string wire = message.serialize();
  log_.trace("TX to ", destination.to_string(), ": ", message.summary());
  host_.send_udp(port_, destination, to_bytes(wire));
}

Result<void> Transport::send_response(const Message& response) {
  auto via = response.top_via();
  if (!via) return via.error();
  auto dst = via->response_endpoint();
  if (!dst) return dst.error();
  send(response, *dst);
  return {};
}

void Transport::on_datagram(const net::Datagram& d) {
  auto message = Message::parse(to_string(d.payload));
  if (!message) {
    log_.warn("unparseable SIP datagram from ", d.source().to_string(), ": ",
              message.error().message);
    return;
  }

  // RFC 18.2.1: stamp `received` when the Via sent-by does not match the
  // packet source, so responses can retrace the actual path.
  if (message->is_request()) {
    auto vias = message->headers("via");
    if (!vias.empty()) {
      if (auto top = Via::parse(vias.front())) {
        const auto claimed = net::Address::parse(top->host);
        if (!claimed || *claimed != d.src) {
          top->params["received"] = d.src.to_string();
          message->remove_first_header("via");
          message->prepend_header("via", top->to_string());
        }
      }
    }
  }

  log_.trace("RX from ", d.source().to_string(), ": ", message->summary());
  if (handler_) handler_(std::move(*message), d.source());
}

}  // namespace siphoc::sip
