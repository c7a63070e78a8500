#include "voip/softphone.hpp"

namespace siphoc::voip {

namespace {

sip::UserAgentConfig to_ua_config(const SoftPhoneConfig& config) {
  sip::UserAgentConfig ua;
  ua.aor = config.aor();
  ua.password = config.password;
  ua.outbound_proxy = config.outbound_proxy;
  ua.auto_answer = config.auto_answer;
  ua.answer_delay = config.answer_delay;
  ua.media_address = config.media_address;
  return ua;
}

}  // namespace

SoftPhone::SoftPhone(net::Host& host, SoftPhoneConfig config)
    : host_(host),
      config_(std::move(config)),
      log_(host.sim().ctx().log(), "phone", host.name()),
      ua_(host, to_ua_config(config_)) {
  sip::UserAgentCallbacks callbacks;
  callbacks.on_incoming = [this](sip::CallId id, const sip::Uri& peer) {
    log_.info("incoming call from ", peer.aor(), " -- ringing");
    if (events_.on_incoming) events_.on_incoming(id, peer);
  };
  callbacks.on_ringing = [this](sip::CallId id) {
    if (events_.on_ringing) events_.on_ringing(id);
  };
  callbacks.on_established = [this](sip::CallId id, net::Endpoint remote) {
    on_established(id, remote);
  };
  callbacks.on_failed = [this](sip::CallId id, int status) {
    log_.info("call ", id, " failed: ", status);
    on_call_over(id);
    if (events_.on_failed) events_.on_failed(id, status);
  };
  callbacks.on_ended = [this](sip::CallId id) {
    log_.info("call ", id, " ended");
    on_call_over(id);
    if (events_.on_ended) events_.on_ended(id);
  };
  callbacks.on_register_result = [this](bool ok, int status) {
    if (events_.on_registered) events_.on_registered(ok, status);
  };
  callbacks.on_text = [this](const sip::Uri& from, const std::string& text) {
    log_.info("text from ", from.aor(), ": ", text);
    if (events_.on_text) events_.on_text(from, text);
  };
  ua_.set_callbacks(std::move(callbacks));
}

SoftPhone::~SoftPhone() {
  for (auto& [id, session] : media_) session->stop();
}

void SoftPhone::power_on() { ua_.start_registration(); }

void SoftPhone::power_off() {
  for (auto& [id, session] : media_) session->stop();
  ua_.stop_registration();
}

sip::CallId SoftPhone::dial(const std::string& target) {
  const std::string text =
      target.rfind("sip:", 0) == 0 ? target : "sip:" + target;
  auto uri = sip::Uri::parse(text);
  if (!uri) {
    log_.warn("cannot dial '", target, "': ", uri.error().message);
    return 0;
  }
  return ua_.invite(std::move(*uri));
}

void SoftPhone::hang_up(sip::CallId call) { ua_.hangup(call); }

void SoftPhone::send_text(const std::string& target, std::string text,
                          std::function<void(bool, int)> callback) {
  const std::string uri_text =
      target.rfind("sip:", 0) == 0 ? target : "sip:" + target;
  auto uri = sip::Uri::parse(uri_text);
  if (!uri) {
    if (callback) callback(false, 400);
    return;
  }
  ua_.send_text(std::move(*uri), std::move(text), std::move(callback));
}

void SoftPhone::on_established(sip::CallId id, net::Endpoint remote_rtp) {
  log_.info("call ", id, " established, media to ", remote_rtp.to_string());
  // A re-INVITE re-fires this with a new remote endpoint: tear the old
  // session down first (it owns the port bindings).
  if (const auto it = media_.find(id); it != media_.end()) {
    if (it->second->report().packets_sent > 0 ||
        it->second->report().packets_received > 0) {
      final_reports_[id] = it->second->report();
    }
    it->second->stop();
    media_.erase(it);
  }
  rtp::SessionConfig media;
  media.local_port = ua_.local_rtp(id).port;
  media.remote = remote_rtp;
  media.voice = config_.voice;
  auto session = std::make_unique<rtp::Session>(host_, media);
  session->start();
  media_[id] = std::move(session);
  if (events_.on_established) events_.on_established(id);
}

void SoftPhone::on_call_over(sip::CallId id) {
  const auto it = media_.find(id);
  if (it == media_.end()) return;
  final_reports_[id] = it->second->report();
  it->second->stop();
  media_.erase(it);
}

std::optional<rtp::Session::Report> SoftPhone::call_report(
    sip::CallId call) const {
  if (const auto it = media_.find(call); it != media_.end()) {
    return it->second->report();
  }
  if (const auto it = final_reports_.find(call); it != final_reports_.end()) {
    return it->second;
  }
  return std::nullopt;
}

}  // namespace siphoc::voip
