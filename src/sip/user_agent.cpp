#include "sip/user_agent.hpp"

#include "sip/auth.hpp"

namespace siphoc::sip {

UserAgent::UserAgent(net::Host& host, UserAgentConfig config)
    : host_(host),
      config_(std::move(config)),
      log_(host.sim().ctx().log(), "ua", host.name()),
      transport_(host, kSipPort),
      // The UA talks to its outbound proxy on the same host, so loopback is
      // a valid sent-by: responses retrace through that proxy.
      txn_(transport_, net::kLoopbackAddress.to_string(), kSipPort) {
  txn_.set_request_handler(
      [this](std::shared_ptr<ServerTransaction> txn, const Message& request) {
        handle_request(std::move(txn), request);
      });
}

UserAgent::~UserAgent() {
  register_refresh_.cancel();
  for (auto& [id, call] : calls_) call.answer_timer.cancel();
}

net::Address UserAgent::media_address() const {
  if (!config_.media_address.is_unspecified()) return config_.media_address;
  if (!host_.manet_address().is_unspecified()) return host_.manet_address();
  return host_.wired_address();
}

net::Address UserAgent::contact_address() const {
  if (config_.outbound_proxy.address.is_loopback()) {
    return net::kLoopbackAddress;
  }
  return media_address();
}

// --------------------------------------------------------------------------
// Registration
// --------------------------------------------------------------------------

Message UserAgent::make_dialogless(std::string method, Uri request_uri) {
  Message m = Message::request(std::move(method), std::move(request_uri));
  NameAddr from;
  from.uri = config_.aor;
  from.set_tag(txn_.new_tag());
  m.add_header("from", from.to_string());
  NameAddr to;
  to.uri = config_.aor;
  m.add_header("to", to.to_string());
  m.add_header("call-id", txn_.new_call_id());
  return m;
}

void UserAgent::start_registration() {
  registering_ = true;
  if (register_call_id_.empty()) register_call_id_ = txn_.new_call_id();
  send_register(
      static_cast<std::uint32_t>(to_seconds(kRegisterExpires)));
}

void UserAgent::stop_registration() {
  registering_ = false;
  register_refresh_.cancel();
  if (registered_) send_register(0);
  registered_ = false;
}

void UserAgent::send_register(std::uint32_t expires) {
  // RFC 10.2: request URI is the domain, To/From the AOR.
  Uri domain_uri;
  domain_uri.host = config_.aor.host;
  Message reg = make_dialogless(std::string(kRegister), domain_uri);
  reg.set_header("call-id", register_call_id_);
  reg.set_header("cseq", std::to_string(++register_cseq_) + " REGISTER");

  NameAddr contact;
  contact.uri = Uri::from_endpoint(
      {contact_address(), kSipPort}, config_.aor.user);
  reg.add_header("contact", contact.to_string());
  reg.add_header("expires", std::to_string(expires));

  // Answer an outstanding digest challenge (RFC 3261 §22.2).
  if (register_challenge_ && !config_.password.empty()) {
    if (const auto challenge =
            DigestChallenge::parse(*register_challenge_)) {
      reg.add_header("authorization",
                     answer_challenge(*challenge, config_.aor.user,
                                      config_.password, reg)
                         .to_string());
    }
  }

  log_.info("REGISTER ", config_.aor.aor(), " expires=", expires);
  txn_.send_request(
      std::move(reg), config_.outbound_proxy,
      [this, expires](const std::optional<Message>& response) {
        if (!response) {
          registered_ = false;
          log_.warn("REGISTER timed out");
          if (callbacks_.on_register_result)
            callbacks_.on_register_result(false, 408);
          return;
        }
        if (response->status() < 200) return;
        if (response->status() == 401 && !config_.password.empty() &&
            auth_attempts_ < 2) {
          // Challenged: retry with credentials.
          ++auth_attempts_;
          register_challenge_ = response->header("www-authenticate");
          if (register_challenge_) {
            log_.info("REGISTER challenged, answering with credentials");
            send_register(expires);
            return;
          }
        }
        const bool ok = response->status() < 300;
        if (ok) auth_attempts_ = 0;
        registered_ = ok && expires > 0;
        log_.info("REGISTER -> ", response->status(), " ",
                  response->reason());
        if (callbacks_.on_register_result)
          callbacks_.on_register_result(ok, response->status());
        if (registered_ && registering_) {
          // Refresh at half the granted lifetime.
          register_refresh_.cancel();
          register_refresh_ = host_.sim().schedule(
              kRegisterExpires / 2, [this] {
                if (registering_) start_registration();
              });
        }
      });
}

// --------------------------------------------------------------------------
// UAC: outgoing calls
// --------------------------------------------------------------------------

CallId UserAgent::invite(Uri target) {
  const CallId id = next_call_id_++;
  Call& call = calls_[id];
  call.id = id;
  call.outgoing = true;
  call.state = CallState::kInviting;
  call.started = host_.sim().now();
  call.local_rtp_port = next_rtp_port_;
  next_rtp_port_ += 2;  // leave room for RTCP, as real phones do

  Message inv = Message::request(std::string(kInvite), target);
  NameAddr from;
  from.uri = config_.aor;
  from.set_tag(txn_.new_tag());
  inv.add_header("from", from.to_string());
  NameAddr to;
  to.uri = target;
  inv.add_header("to", to.to_string());
  inv.add_header("call-id", txn_.new_call_id());
  inv.add_header("cseq", "1 INVITE");
  NameAddr contact;
  contact.uri = Uri::from_endpoint({contact_address(), kSipPort},
                                   config_.aor.user);
  inv.add_header("contact", contact.to_string());

  const Sdp offer = Sdp::audio(media_address(), call.local_rtp_port,
                               host_.rng().uniform_u64() >> 16);
  inv.set_body(offer.serialize(), std::string(kSdpContentType));

  call.invite = inv;
  log_.info("calling ", target.aor());
  txn_.send_request(std::move(inv), config_.outbound_proxy,
                    [this, id](const std::optional<Message>& response) {
                      on_invite_response(id, response);
                    });
  return id;
}

void UserAgent::on_invite_response(CallId id,
                                   const std::optional<Message>& response) {
  Call* call = find_call(id);
  if (call == nullptr || call->state == CallState::kEnded) return;

  if (!response) {
    call->state = CallState::kEnded;
    if (callbacks_.on_failed) callbacks_.on_failed(id, 408);
    return;
  }
  const int status = response->status();
  if (status < 200) {
    if (status == 180 || status == 183) {
      call->state = CallState::kRinging;
      if (callbacks_.on_ringing) callbacks_.on_ringing(id);
    }
    return;
  }
  if (status >= 300) {
    call->state = CallState::kEnded;
    if (callbacks_.on_failed) callbacks_.on_failed(id, status);
    return;
  }

  // 2xx: build the dialog and ACK through the proxy chain.
  auto dialog = Dialog::from_uac(*call->invite, *response);
  if (!dialog) {
    log_.warn("cannot build dialog: ", dialog.error().message);
    call->state = CallState::kEnded;
    if (callbacks_.on_failed) callbacks_.on_failed(id, 500);
    return;
  }
  call->dialog = std::move(*dialog);

  Message ack = call->dialog.make_request(std::string(kAck));
  Via via;
  via.host = txn_.via_host();
  via.port = txn_.via_port();
  via.params["branch"] = txn_.new_branch();
  ack.push_via(via);
  txn_.send_stateless(ack, config_.outbound_proxy);

  auto sdp = Sdp::parse(response->body());
  if (sdp) {
    if (auto ep = sdp->audio_endpoint()) call->remote_rtp = *ep;
  }
  call->state = CallState::kEstablished;
  if (callbacks_.on_established)
    callbacks_.on_established(id, call->remote_rtp);
}

void UserAgent::hangup(CallId id) {
  Call* call = find_call(id);
  if (call == nullptr) return;
  if (call->state == CallState::kEstablished) {
    Message bye = call->dialog.make_request(std::string(kBye));
    txn_.send_request(std::move(bye), config_.outbound_proxy,
                      [this, id](const std::optional<Message>&) {
                        if (callbacks_.on_ended) callbacks_.on_ended(id);
                      });
    call->state = CallState::kEnded;
    return;
  }
  // Caller abandons an unanswered outgoing call: CANCEL (RFC 3261 9.1).
  if (call->outgoing && call->invite &&
      (call->state == CallState::kInviting ||
       call->state == CallState::kRinging)) {
    Message cancel =
        Message::request(std::string(kCancel), call->invite->request_uri());
    for (const auto& [name, value] : call->invite->raw_headers()) {
      if (name == "from" || name == "to" || name == "call-id") {
        cancel.add_header(name, value);
      }
    }
    if (const auto cseq = call->invite->cseq()) {
      cancel.add_header("cseq",
                        std::to_string(cseq->number) + " CANCEL");
    }
    log_.info("cancelling call ", id);
    txn_.send_request(std::move(cancel), config_.outbound_proxy,
                      [](const std::optional<Message>&) {});
    // The 487 to the INVITE (or its timeout) delivers on_failed.
    return;
  }
  if (!call->outgoing && call->server_txn &&
      call->state != CallState::kEnded) {
    reject(id, 486);
  }
}

void UserAgent::reinvite(CallId id, net::Address new_media_address) {
  Call* call = find_call(id);
  if (call == nullptr || call->state != CallState::kEstablished) return;
  call->media_override = new_media_address;

  Message inv = call->dialog.make_request(std::string(kInvite));
  NameAddr contact;
  contact.uri = Uri::from_endpoint({contact_address(), kSipPort},
                                   config_.aor.user);
  inv.add_header("contact", contact.to_string());
  const Sdp offer = Sdp::audio(new_media_address, call->local_rtp_port,
                               host_.rng().uniform_u64() >> 16);
  inv.set_body(offer.serialize(), std::string(kSdpContentType));
  log_.info("re-INVITE call ", id, ", media now at ",
            new_media_address.to_string());
  txn_.send_request(
      std::move(inv), config_.outbound_proxy,
      [this, id](const std::optional<Message>& response) {
        Call* call = find_call(id);
        if (call == nullptr || call->state != CallState::kEstablished) return;
        if (!response || response->status() >= 300) {
          // Update failed: keep the session as it was (RFC 3261 14.1).
          log_.warn("re-INVITE failed");
          return;
        }
        if (response->status() < 200) return;
        Message ack = call->dialog.make_request(std::string(kAck));
        Via via;
        via.host = txn_.via_host();
        via.port = txn_.via_port();
        via.params["branch"] = txn_.new_branch();
        ack.push_via(via);
        txn_.send_stateless(ack, config_.outbound_proxy);
        if (auto sdp = Sdp::parse(response->body())) {
          if (auto ep = sdp->audio_endpoint()) call->remote_rtp = *ep;
        }
        if (callbacks_.on_established)
          callbacks_.on_established(id, call->remote_rtp);
      });
}

void UserAgent::reject(CallId id, int status) {
  Call* call = find_call(id);
  if (call == nullptr || call->outgoing || !call->server_txn) return;
  call->answer_timer.cancel();
  call->server_txn->respond(status);
  call->state = CallState::kEnded;
}

// --------------------------------------------------------------------------
// Instant messaging
// --------------------------------------------------------------------------

void UserAgent::send_text(Uri target, std::string text,
                          std::function<void(bool, int)> callback) {
  Message m = Message::request(std::string(kMessage), target);
  NameAddr from;
  from.uri = config_.aor;
  from.set_tag(txn_.new_tag());
  m.add_header("from", from.to_string());
  NameAddr to;
  to.uri = std::move(target);
  m.add_header("to", to.to_string());
  m.add_header("call-id", txn_.new_call_id());
  m.add_header("cseq", "1 MESSAGE");
  m.set_body(std::move(text), "text/plain");
  txn_.send_request(std::move(m), config_.outbound_proxy,
                    [callback = std::move(callback)](
                        const std::optional<Message>& response) {
                      if (!callback) return;
                      if (!response) {
                        callback(false, 408);
                      } else if (response->status() >= 200) {
                        callback(response->status() < 300,
                                 response->status());
                      }
                    });
}

// --------------------------------------------------------------------------
// UAS: incoming requests
// --------------------------------------------------------------------------

void UserAgent::handle_request(std::shared_ptr<ServerTransaction> txn,
                               const Message& request) {
  if (txn == nullptr) return;  // stray ACK: the transaction layer matched none
  const std::string& method = request.method();
  if (method == kInvite) {
    handle_invite(std::move(txn));
  } else if (method == kBye) {
    handle_bye(std::move(txn), request);
  } else if (method == kOptions) {
    txn->respond(200);
  } else if (method == kMessage) {
    txn->respond(200);
    if (callbacks_.on_text) {
      const auto from = request.from();
      callbacks_.on_text(from ? from->uri : Uri{}, request.body());
    }
  } else if (method == kCancel) {
    txn->respond(200);
    // Find the ringing call with this Call-ID and terminate it.
    for (auto& [id, call] : calls_) {
      if (!call.outgoing && call.invite &&
          call.invite->call_id() == request.call_id() &&
          (call.state == CallState::kRinging ||
           call.state == CallState::kIdle)) {
        call.answer_timer.cancel();
        if (call.server_txn) call.server_txn->respond(487);
        call.state = CallState::kEnded;
        if (callbacks_.on_ended) callbacks_.on_ended(id);
        break;
      }
    }
  } else {
    txn->respond(501, "Not Implemented");
  }
}

void UserAgent::handle_invite(std::shared_ptr<ServerTransaction> txn) {
  const Message& request = txn->request();
  // In-dialog re-INVITE: renegotiate media on the existing call.
  for (auto& [cid, call] : calls_) {
    if (call.state == CallState::kEstablished &&
        call.dialog.matches_request(request)) {
      handle_reinvite(std::move(txn), call);
      return;
    }
  }
  const CallId id = next_call_id_++;
  Call& call = calls_[id];
  call.id = id;
  call.outgoing = false;
  call.started = host_.sim().now();
  call.invite = request;
  call.server_txn = txn;
  call.local_rtp_port = next_rtp_port_;
  next_rtp_port_ += 2;

  auto sdp = Sdp::parse(request.body());
  if (!sdp) {
    txn->respond(400, "Bad SDP");
    call.state = CallState::kEnded;
    return;
  }
  if (auto ep = sdp->audio_endpoint()) call.remote_rtp = *ep;

  // Ring.
  Message ringing = Message::response_to(request, 180);
  auto to = ringing.to();
  if (to && to->tag().empty()) {
    to->set_tag(txn_.new_tag());
    ringing.set_header("to", to->to_string());
  }
  txn->respond(std::move(ringing));
  call.state = CallState::kRinging;

  const auto from = request.from();
  if (callbacks_.on_incoming) {
    callbacks_.on_incoming(id, from ? from->uri : Uri{});
  }
  if (config_.auto_answer) {
    call.answer_timer = host_.sim().schedule(config_.answer_delay,
                                             [this, id] { accept_call(id); });
  }
}

void UserAgent::handle_reinvite(std::shared_ptr<ServerTransaction> txn,
                                Call& call) {
  const Message& request = txn->request();
  auto sdp = Sdp::parse(request.body());
  if (!sdp) {
    txn->respond(488, "Not Acceptable Here");
    return;
  }
  // Track the peer's new offer; update the remote CSeq for the dialog.
  if (const auto cseq = request.cseq()) {
    call.dialog.remote_cseq = cseq->number;
  }
  net::Endpoint new_remote = call.remote_rtp;
  if (auto ep = sdp->audio_endpoint()) new_remote = *ep;

  Message ok = Message::response_to(request, 200);
  NameAddr contact;
  contact.uri = Uri::from_endpoint({contact_address(), kSipPort},
                                   config_.aor.user);
  ok.add_header("contact", contact.to_string());
  const net::Address media = call.media_override.is_unspecified()
                                 ? media_address()
                                 : call.media_override;
  const Sdp answer = Sdp::audio(media, call.local_rtp_port,
                                host_.rng().uniform_u64() >> 16);
  ok.set_body(answer.serialize(), std::string(kSdpContentType));
  const CallId id = call.id;
  txn->on_ack = [this, id, new_remote](const Message&) {
    Call* call = find_call(id);
    if (call == nullptr || call->state != CallState::kEstablished) return;
    call->remote_rtp = new_remote;
    log_.info("re-INVITE on call ", id, " completed; peer media at ",
              new_remote.to_string());
    if (callbacks_.on_established)
      callbacks_.on_established(id, call->remote_rtp);
  };
  txn->respond(std::move(ok));
}

void UserAgent::answer(CallId id) { accept_call(id); }

void UserAgent::accept_call(CallId id) {
  Call* call = find_call(id);
  if (call == nullptr || call->outgoing || !call->server_txn ||
      call->state != CallState::kRinging) {
    return;
  }
  const Message& request = *call->invite;

  Message ok = Message::response_to(request, 200);
  auto to = ok.to();
  if (to && to->tag().empty()) {
    to->set_tag(txn_.new_tag());
    ok.set_header("to", to->to_string());
  }
  NameAddr contact;
  contact.uri = Uri::from_endpoint({contact_address(), kSipPort},
                                   config_.aor.user);
  ok.add_header("contact", contact.to_string());
  const Sdp answer = Sdp::audio(media_address(), call->local_rtp_port,
                                host_.rng().uniform_u64() >> 16);
  ok.set_body(answer.serialize(), std::string(kSdpContentType));

  auto dialog = Dialog::from_uas(request, ok);
  call->server_txn->on_ack = [this, id](const Message&) {
    Call* call = find_call(id);
    if (call == nullptr || call->state != CallState::kRinging) return;
    call->state = CallState::kEstablished;
    if (callbacks_.on_established)
      callbacks_.on_established(id, call->remote_rtp);
  };
  call->server_txn->on_timeout = [this, id] {
    Call* call = find_call(id);
    if (call == nullptr || call->state != CallState::kRinging) return;
    // Our 200 was never ACKed: the caller vanished mid-handshake
    // (partition, crash). Tear the nascent dialog down instead of ringing
    // forever.
    log_.info("call ", id, " never ACKed; abandoning");
    call->state = CallState::kEnded;
    if (callbacks_.on_failed) callbacks_.on_failed(id, 408);
  };
  call->server_txn->respond(std::move(ok));
  if (dialog) call->dialog = std::move(*dialog);
}

void UserAgent::handle_bye(std::shared_ptr<ServerTransaction> txn,
                           const Message& request) {
  Call* call = find_call_by_dialog(request);
  txn->respond(call != nullptr ? 200 : 481);
  if (call != nullptr && call->state != CallState::kEnded) {
    call->state = CallState::kEnded;
    if (callbacks_.on_ended) callbacks_.on_ended(call->id);
  }
}

// --------------------------------------------------------------------------
// Lookup
// --------------------------------------------------------------------------

UserAgent::Call* UserAgent::find_call(CallId id) {
  const auto it = calls_.find(id);
  return it == calls_.end() ? nullptr : &it->second;
}

UserAgent::Call* UserAgent::find_call_by_dialog(const Message& request) {
  for (auto& [id, call] : calls_) {
    if (call.state == CallState::kEstablished &&
        call.dialog.matches_request(request)) {
      return &call;
    }
    // BYE can also race the ACK: match ringing incoming calls by Call-ID.
    if (call.invite && call.invite->call_id() == request.call_id() &&
        call.state != CallState::kEnded) {
      return &call;
    }
  }
  return nullptr;
}

UserAgent::CallState UserAgent::call_state(CallId id) const {
  const auto it = calls_.find(id);
  return it == calls_.end() ? CallState::kIdle : it->second.state;
}

std::size_t UserAgent::active_calls() const {
  std::size_t n = 0;
  for (const auto& [id, call] : calls_) {
    if (call.state == CallState::kEstablished) ++n;
  }
  return n;
}

std::vector<UserAgent::CallSnapshot> UserAgent::call_snapshots() const {
  std::vector<CallSnapshot> out;
  out.reserve(calls_.size());
  for (const auto& [id, call] : calls_) {
    out.push_back({call.id, call.state, call.started});
  }
  return out;
}

net::Endpoint UserAgent::local_rtp(CallId id) const {
  const auto it = calls_.find(id);
  if (it == calls_.end()) return {};
  return {media_address(), it->second.local_rtp_port};
}

}  // namespace siphoc::sip
