// SIP transactions (RFC 3261 section 17).
//
// Implements the four state machines -- INVITE/non-INVITE x client/server --
// with the standard timers (A/B/D client-INVITE, E/F/K client-non-INVITE,
// G/H/I server-INVITE, J server-non-INVITE) over unreliable UDP transport.
//
// One documented deviation: the server INVITE transaction also absorbs 2xx
// retransmission and ACK matching (RFC 3261 pushes 2xx handling up to the
// TU to support forking proxies; this stack's UAs are talking point to
// point, so keeping it in the transaction keeps the UA core simple). The
// ACK for a 2xx arrives on a *new* branch, so it is matched by Call-ID +
// CSeq number instead of branch.
#pragma once

#include <map>
#include <memory>

#include "common/random.hpp"
#include "sim/simulator.hpp"
#include "sip/transport.hpp"

namespace siphoc::sip {

/// RFC 3261 timer values (Appendix A).
inline constexpr Duration kT1 = milliseconds(500);
inline constexpr Duration kT2 = seconds(4);
inline constexpr Duration kT4 = seconds(5);
inline constexpr Duration kTransactionTimeout = 64 * kT1;  // Timers B, F, H, J
inline constexpr Duration kTimerD = seconds(32);

class TransactionLayer;

/// Handle to a client transaction; the response callback fires for every
/// forwarded response (1xx then final) and once with nullopt on timeout.
class ClientTransaction {
 public:
  using ResponseCallback =
      std::function<void(std::optional<Message> response)>;

  /// The chaos engine tears whole node stacks down mid-run; pending timer
  /// events capture `this` and must not outlive the transaction.
  ~ClientTransaction() { cancel_timers(); }

  const std::string& branch() const { return branch_; }
  bool terminated() const { return state_ == State::kTerminated; }
  /// When the request was first transmitted (invariant monitor bounds the
  /// lifetime of live transactions against this).
  TimePoint started() const { return started_; }
  void cancel_timers();

 private:
  friend class TransactionLayer;
  enum class State { kCalling, kTrying, kProceeding, kCompleted, kTerminated };

  ClientTransaction(TransactionLayer& layer, Message request,
                    net::Endpoint destination, ResponseCallback callback);

  void start();
  void on_response(const Message& response);
  void retransmit();
  void on_timeout();
  void terminate();
  bool is_invite() const { return method_ == kInvite; }
  void send_ack_for(const Message& response);

  TransactionLayer& layer_;
  Message request_;
  net::Endpoint destination_;
  ResponseCallback callback_;
  std::string branch_;
  std::string method_;
  State state_;
  TimePoint started_{};  // transaction RTT span start
  Duration retransmit_interval_{};
  sim::EventHandle retransmit_timer_;
  sim::EventHandle timeout_timer_;
  sim::EventHandle kill_timer_;
};

/// Handle to a server transaction; the TU responds through it.
class ServerTransaction
    : public std::enable_shared_from_this<ServerTransaction> {
 public:
  /// See ~ClientTransaction: pending timers must die with the transaction.
  ~ServerTransaction() {
    retransmit_timer_.cancel();
    timeout_timer_.cancel();
    kill_timer_.cancel();
  }

  /// Sends (and takes responsibility for retransmitting) a response.
  void respond(Message response);
  /// Convenience: build the response from the original request.
  void respond(int status, std::string reason = {});

  const Message& request() const { return request_; }
  /// Source endpoint of the request datagram (fallback response route).
  net::Endpoint peer() const { return peer_; }
  bool terminated() const { return state_ == State::kTerminated; }
  /// When the request arrived (see ClientTransaction::started).
  TimePoint started() const { return started_; }

  /// TU hook: invoked when the ACK completing a final response arrives
  /// (INVITE transactions only).
  std::function<void(const Message& ack)> on_ack;
  /// TU hook: invoked when an INVITE final response was retransmitted for
  /// the full timeout budget and no ACK ever arrived -- the peer is gone
  /// and the UAS core must tear the nascent dialog down (RFC 3261
  /// 13.3.1.4). Without this the call is a black hole: the chaos soak's
  /// calls-terminate invariant exists to catch exactly that.
  std::function<void()> on_timeout;

 private:
  friend class TransactionLayer;
  enum class State { kTrying, kProceeding, kCompleted, kConfirmed,
                     kTerminated };

  ServerTransaction(TransactionLayer& layer, Message request,
                    net::Endpoint peer);

  void on_retransmitted_request();
  void handle_ack(const Message& ack);
  void retransmit_final();
  void terminate();
  bool is_invite() const { return method_ == kInvite; }

  TransactionLayer& layer_;
  Message request_;
  net::Endpoint peer_;
  std::string branch_;
  std::string method_;
  State state_ = State::kTrying;
  TimePoint started_{};
  std::optional<Message> last_response_;
  Duration retransmit_interval_{};
  sim::EventHandle retransmit_timer_;
  sim::EventHandle timeout_timer_;
  sim::EventHandle kill_timer_;
};

/// Owns all transactions of one SIP endpoint and dispatches messages
/// between the transport and the transaction user.
class TransactionLayer {
 public:
  /// `via_host`/`via_port`: the sent-by this element writes into the Via
  /// headers of requests it originates.
  TransactionLayer(Transport& transport, std::string via_host,
                   std::uint16_t via_port);
  ~TransactionLayer();

  /// TU request handler: fires once per new server transaction. ACKs for
  /// 2xx responses are routed to the matching server transaction's on_ack;
  /// ACKs with no transaction fall through to this handler.
  using RequestHandler =
      std::function<void(std::shared_ptr<ServerTransaction>, const Message&)>;
  void set_request_handler(RequestHandler handler) {
    request_handler_ = std::move(handler);
  }

  /// Responses that match no client transaction (stray/forwarded) --
  /// proxies care, UAs usually ignore.
  using StrayHandler = std::function<void(const Message&, net::Endpoint)>;
  void set_stray_handler(StrayHandler handler) {
    stray_handler_ = std::move(handler);
  }

  /// Starts a client transaction: pushes a Via with a fresh branch onto the
  /// request and transmits it to `destination`.
  ClientTransaction* send_request(Message request, net::Endpoint destination,
                                  ClientTransaction::ResponseCallback cb);

  /// Sends a message outside any transaction (ACK for 2xx).
  void send_stateless(const Message& message, net::Endpoint destination);

  std::string new_branch();
  std::string new_tag();
  std::string new_call_id();

  Transport& transport() { return transport_; }
  sim::Simulator& sim() { return transport_.host().sim(); }
  MetricsRegistry& metrics() { return sim().ctx().metrics(); }
  const std::string& via_host() const { return via_host_; }
  std::uint16_t via_port() const { return via_port_; }
  /// Node label for registry series (the owning host's name).
  const std::string& node() const { return node_; }

  std::size_t client_count() const { return clients_.size(); }
  std::size_t server_count() const { return servers_.size(); }

  /// Age of the oldest non-terminated transaction, or zero when none are
  /// live. The invariant monitor asserts this never exceeds the RFC 3261
  /// worst case (64*T1 plus linger timers) -- a transaction that outlives
  /// it is a leak.
  Duration oldest_transaction_age(TimePoint now) const;

  /// Drops terminated transactions (called internally; public for tests).
  void reap();

 private:
  friend class ClientTransaction;
  friend class ServerTransaction;

  void on_message(Message message, net::Endpoint from);
  void dispatch_request(Message request, net::Endpoint from);
  void dispatch_response(const Message& response, net::Endpoint from);

  Transport& transport_;
  std::string via_host_;
  std::uint16_t via_port_;
  std::string node_;
  Rng rng_;
  RequestHandler request_handler_;
  StrayHandler stray_handler_;

  // client key: branch + method (RFC 17.1.3)
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<ClientTransaction>>
      clients_;
  // server key: branch + method (ACK matches INVITE; see header comment)
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<ServerTransaction>>
      servers_;
  sim::EventHandle reap_event_;  // at most one deferred reap in flight
  std::uint64_t id_counter_ = 0;
};

}  // namespace siphoc::sip
