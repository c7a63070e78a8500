// SIP-over-UDP transport binding (RFC 3261 section 18 subset).
//
// Parses incoming datagrams into Messages, stamps the `received` Via
// parameter when the sent-by address differs from the actual source
// (RFC 18.2.1 -- this is what makes responses routable back through the
// MANET), and serializes outgoing messages.
#pragma once

#include <functional>

#include "common/logging.hpp"
#include "net/host.hpp"
#include "sip/message.hpp"

namespace siphoc::sip {

class Transport {
 public:
  /// `from` is the datagram source; responses to a request go there when the
  /// Via chain is unusable.
  using MessageHandler =
      std::function<void(Message message, net::Endpoint from)>;

  Transport(net::Host& host, std::uint16_t port);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  void send(const Message& message, net::Endpoint destination);

  /// Sends a response to wherever its top Via points.
  Result<void> send_response(const Message& response);

  std::uint16_t port() const { return port_; }
  net::Host& host() { return host_; }

 private:
  void on_datagram(const net::Datagram& d);

  net::Host& host_;
  std::uint16_t port_;
  Logger log_;
  MessageHandler handler_;
};

}  // namespace siphoc::sip
