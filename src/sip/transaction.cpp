#include "sip/transaction.hpp"

#include <algorithm>

#include "common/metrics.hpp"

namespace siphoc::sip {
namespace {

Counter& sip_counter(MetricsRegistry& registry, const std::string& name,
                     const std::string& node) {
  return registry.counter(name, node, "sip");
}

// Response-class series name: "sip.responses_rx.2xx" etc.
std::string class_name(const char* direction, int status) {
  return std::string("sip.responses_") + direction + "." +
         std::to_string(status / 100) + "xx";
}

}  // namespace

// ===========================================================================
// ClientTransaction
// ===========================================================================

ClientTransaction::ClientTransaction(TransactionLayer& layer, Message request,
                                     net::Endpoint destination,
                                     ResponseCallback callback)
    : layer_(layer),
      request_(std::move(request)),
      destination_(destination),
      callback_(std::move(callback)),
      branch_(layer.new_branch()),
      method_(request_.method()),
      state_(method_ == kInvite ? State::kCalling : State::kTrying) {
  Via via;
  via.host = layer_.via_host();
  via.port = layer_.via_port();
  via.params["branch"] = branch_;
  request_.push_via(via);
}

void ClientTransaction::start() {
  started_ = layer_.sim().now();
  sip_counter(layer_.metrics(), "sip.client_tx." + method_, layer_.node()).add();
  layer_.transport().send(request_, destination_);
  retransmit_interval_ = kT1;
  retransmit_timer_ = layer_.sim().schedule(retransmit_interval_,
                                            [this] { retransmit(); });
  timeout_timer_ = layer_.sim().schedule(kTransactionTimeout,
                                         [this] { on_timeout(); });
}

void ClientTransaction::retransmit() {
  if (state_ != State::kCalling && state_ != State::kTrying &&
      !(state_ == State::kProceeding && !is_invite())) {
    return;
  }
  sip_counter(layer_.metrics(), "sip.retransmits_total", layer_.node()).add();
  layer_.transport().send(request_, destination_);
  // Timer A doubles unbounded; Timer E doubles capped at T2 (RFC 17.1.2.1).
  retransmit_interval_ = retransmit_interval_ * 2;
  if (!is_invite() && retransmit_interval_ > kT2) {
    retransmit_interval_ = kT2;
  }
  retransmit_timer_ = layer_.sim().schedule(retransmit_interval_,
                                            [this] { retransmit(); });
}

void ClientTransaction::on_timeout() {
  if (state_ == State::kCompleted || state_ == State::kTerminated) return;
  sip_counter(layer_.metrics(), "sip.tx_timeouts_total", layer_.node()).add();
  cancel_timers();
  state_ = State::kTerminated;
  if (callback_) callback_(std::nullopt);
  layer_.reap();
}

void ClientTransaction::on_response(const Message& response) {
  const int status = response.status();
  switch (state_) {
    case State::kCalling:
    case State::kTrying:
    case State::kProceeding: {
      sip_counter(layer_.metrics(), class_name("rx", status), layer_.node()).add();
      if (status >= 200 && is_invite()) {
        // Final answer to our INVITE: the request->final-response interval
        // is the paper's call-setup building block.
        layer_.metrics()
            .histogram("sip.invite_rtt_ms", kLatencyBucketsMs, layer_.node(),
                       "sip")
            .observe(to_millis(layer_.sim().now() - started_));
        layer_.metrics().record_span("invite_transaction", "sip",
                                     layer_.node(), started_,
                                     layer_.sim().now());
      }
      if (status < 200) {
        state_ = State::kProceeding;
        if (is_invite()) retransmit_timer_.cancel();
        if (callback_) callback_(response);
        return;
      }
      // Final response.
      retransmit_timer_.cancel();
      timeout_timer_.cancel();
      if (is_invite() && status >= 300) {
        send_ack_for(response);
        state_ = State::kCompleted;
        kill_timer_ = layer_.sim().schedule(kTimerD, [this] { terminate(); });
      } else if (!is_invite()) {
        state_ = State::kCompleted;
        kill_timer_ = layer_.sim().schedule(kT4, [this] { terminate(); });
      } else {
        // INVITE 2xx: transaction ends immediately; the TU sends the ACK.
        state_ = State::kTerminated;
      }
      if (callback_) callback_(response);
      if (state_ == State::kTerminated) layer_.reap();
      return;
    }
    case State::kCompleted: {
      // Retransmitted final response: re-ACK (INVITE), never re-notify.
      if (is_invite() && status >= 300) send_ack_for(response);
      return;
    }
    case State::kTerminated:
      return;
  }
}

void ClientTransaction::send_ack_for(const Message& response) {
  // RFC 17.1.1.3: ACK for non-2xx reuses the INVITE's branch and To from
  // the response.
  Message ack = Message::request(std::string(kAck), request_.request_uri());
  ack.remove_header("max-forwards");
  for (const auto& [name, value] : request_.raw_headers()) {
    if (name == "via" || name == "from" || name == "call-id" ||
        name == "max-forwards" || name == "route") {
      ack.add_header(name, value);
    }
  }
  if (const auto to = response.header("to")) ack.add_header("to", *to);
  const auto cseq = request_.cseq();
  if (cseq) {
    ack.set_header("cseq", std::to_string(cseq->number) + " ACK");
  }
  layer_.transport().send(ack, destination_);
}

void ClientTransaction::cancel_timers() {
  retransmit_timer_.cancel();
  timeout_timer_.cancel();
  kill_timer_.cancel();
}

void ClientTransaction::terminate() {
  cancel_timers();
  state_ = State::kTerminated;
  layer_.reap();
}

// ===========================================================================
// ServerTransaction
// ===========================================================================

ServerTransaction::ServerTransaction(TransactionLayer& layer, Message request,
                                     net::Endpoint peer)
    : layer_(layer),
      request_(std::move(request)),
      peer_(peer),
      method_(request_.method()),
      started_(layer.sim().now()) {
  if (auto via = request_.top_via()) branch_ = via->branch();
  state_ = is_invite() ? State::kProceeding : State::kTrying;
}

void ServerTransaction::respond(int status, std::string reason) {
  respond(Message::response_to(request_, status, std::move(reason)));
}

void ServerTransaction::respond(Message response) {
  sip_counter(layer_.metrics(), class_name("tx", response.status()), layer_.node()).add();
  last_response_ = std::move(response);
  if (!layer_.transport().send_response(*last_response_)) {
    // Unroutable Via (e.g. symbolic host with no received param): fall back
    // to the datagram source.
    layer_.transport().send(*last_response_, peer_);
  }
  const int status = last_response_->status();
  if (status < 200) {
    state_ = State::kProceeding;
    return;
  }
  if (is_invite()) {
    // Completed: retransmit the final response until the ACK (Timer G/H).
    state_ = State::kCompleted;
    retransmit_interval_ = kT1;
    retransmit_timer_ = layer_.sim().schedule(
        retransmit_interval_, [this] { retransmit_final(); });
    timeout_timer_ = layer_.sim().schedule(kTransactionTimeout, [this] {
      // Copy the hook first: terminate() requests a reap, but reaping is
      // deferred, so `this` outlives the call.
      const auto timed_out = on_timeout;
      terminate();
      if (timed_out) timed_out();
    });
  } else {
    state_ = State::kCompleted;
    kill_timer_ = layer_.sim().schedule(kTransactionTimeout,
                                        [this] { terminate(); });
  }
}

void ServerTransaction::retransmit_final() {
  if (state_ != State::kCompleted || !last_response_) return;
  sip_counter(layer_.metrics(), "sip.retransmits_total", layer_.node()).add();
  if (!layer_.transport().send_response(*last_response_)) {
    layer_.transport().send(*last_response_, peer_);
  }
  retransmit_interval_ = std::min(retransmit_interval_ * 2, kT2);
  retransmit_timer_ = layer_.sim().schedule(retransmit_interval_,
                                            [this] { retransmit_final(); });
}

void ServerTransaction::on_retransmitted_request() {
  if ((state_ == State::kProceeding || state_ == State::kCompleted) &&
      last_response_) {
    if (!layer_.transport().send_response(*last_response_)) {
      layer_.transport().send(*last_response_, peer_);
    }
  }
}

void ServerTransaction::handle_ack(const Message& ack) {
  if (state_ != State::kCompleted) return;
  state_ = State::kConfirmed;
  retransmit_timer_.cancel();
  timeout_timer_.cancel();
  kill_timer_ = layer_.sim().schedule(kT4, [this] { terminate(); });
  if (on_ack) on_ack(ack);
}

void ServerTransaction::terminate() {
  retransmit_timer_.cancel();
  timeout_timer_.cancel();
  kill_timer_.cancel();
  state_ = State::kTerminated;
  layer_.reap();
}

// ===========================================================================
// TransactionLayer
// ===========================================================================

TransactionLayer::TransactionLayer(Transport& transport, std::string via_host,
                                   std::uint16_t via_port)
    : transport_(transport),
      via_host_(std::move(via_host)),
      via_port_(via_port),
      node_(transport.host().name()),
      rng_(transport.host().rng().fork()) {
  transport_.set_handler([this](Message m, net::Endpoint from) {
    on_message(std::move(m), from);
  });
}

TransactionLayer::~TransactionLayer() {
  transport_.set_handler(nullptr);
  // The deferred reap closure captures `this`; the transaction maps cancel
  // their own timers as they are destroyed.
  reap_event_.cancel();
}

std::string TransactionLayer::new_branch() {
  return std::string(kBranchCookie) + via_host_ + "-" +
         std::to_string(++id_counter_) + "-" +
         std::to_string(rng_.uniform_int(0, 0xffffff));
}

std::string TransactionLayer::new_tag() {
  return std::to_string(rng_.uniform_int(0x1000, 0xffffffff));
}

std::string TransactionLayer::new_call_id() {
  return std::to_string(rng_.uniform_u64()) + "@" + via_host_;
}

ClientTransaction* TransactionLayer::send_request(
    Message request, net::Endpoint destination,
    ClientTransaction::ResponseCallback cb) {
  auto txn = std::unique_ptr<ClientTransaction>(new ClientTransaction(
      *this, std::move(request), destination, std::move(cb)));
  ClientTransaction* raw = txn.get();
  clients_[{raw->branch_, raw->method_}] = std::move(txn);
  raw->start();
  return raw;
}

void TransactionLayer::send_stateless(const Message& message,
                                      net::Endpoint destination) {
  transport_.send(message, destination);
}

void TransactionLayer::on_message(Message message, net::Endpoint from) {
  if (message.is_request()) {
    dispatch_request(std::move(message), from);
  } else {
    dispatch_response(message, from);
  }
}

void TransactionLayer::dispatch_request(Message request, net::Endpoint from) {
  std::string branch;
  if (auto via = request.top_via()) branch = via->branch();
  const std::string& method = request.method();

  if (method == kAck) {
    // Non-2xx ACK: same branch as the INVITE. 2xx ACK: new branch -- match
    // by Call-ID + CSeq number against a Completed INVITE transaction.
    if (auto it = servers_.find({branch, std::string(kInvite)});
        it != servers_.end()) {
      it->second->handle_ack(request);
      return;
    }
    const auto cseq = request.cseq();
    for (auto& [key, txn] : servers_) {
      if (txn->method_ != kInvite) continue;
      const auto txn_cseq = txn->request_.cseq();
      if (txn->request_.call_id() == request.call_id() && cseq && txn_cseq &&
          cseq->number == txn_cseq->number) {
        txn->handle_ack(request);
        return;
      }
    }
    // ACK to an unknown transaction: hand to the TU (proxies forward it).
    if (request_handler_) request_handler_(nullptr, request);
    return;
  }

  const auto key = std::make_pair(branch, method);
  if (auto it = servers_.find(key); it != servers_.end()) {
    it->second->on_retransmitted_request();
    return;
  }

  auto txn = std::shared_ptr<ServerTransaction>(
      new ServerTransaction(*this, std::move(request), from));
  sip_counter(metrics(), "sip.server_tx." + txn->method_, node_).add();
  servers_[key] = txn;
  if (request_handler_) {
    request_handler_(txn, txn->request_);
  } else {
    txn->respond(503);
  }
}

void TransactionLayer::dispatch_response(const Message& response,
                                         net::Endpoint from) {
  std::string branch;
  if (auto via = response.top_via()) branch = via->branch();
  std::string method;
  if (auto cseq = response.cseq()) method = cseq->method;

  if (auto it = clients_.find({branch, method}); it != clients_.end()) {
    it->second->on_response(response);
    return;
  }
  if (stray_handler_) stray_handler_(response, from);
}

Duration TransactionLayer::oldest_transaction_age(TimePoint now) const {
  Duration oldest{};
  for (const auto& [key, txn] : clients_) {
    if (txn->terminated()) continue;
    oldest = std::max(oldest, now - txn->started());
  }
  for (const auto& [key, txn] : servers_) {
    if (txn->terminated()) continue;
    oldest = std::max(oldest, now - txn->started());
  }
  return oldest;
}

void TransactionLayer::reap() {
  // Deferred so a transaction never deletes itself mid-callback. Reaping is
  // idempotent, so collapsing concurrent requests into one pending sweep is
  // behavior-neutral (and consumes no extra RNG draws).
  if (reap_event_.pending()) return;
  reap_event_ = sim().schedule(microseconds(1), [this] {
    std::erase_if(clients_,
                  [](const auto& kv) { return kv.second->terminated(); });
    std::erase_if(servers_,
                  [](const auto& kv) { return kv.second->terminated(); });
  });
}

}  // namespace siphoc::sip
