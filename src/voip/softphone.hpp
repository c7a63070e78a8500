// SoftPhone: the out-of-the-box VoIP application (the paper's Kphone /
// Twinkle / Minisip role).
//
// Configuration mirrors the paper's Figure 2: a SIP user account (username
// + provider domain) and an outbound proxy. "By specifying the outbound-
// proxy to be localhost, we make sure that all the SIP traffic is routed
// through the SIPHoc proxy running locally" -- that single setting is the
// only coupling between this application and the MANET middleware.
//
// On an established call the phone streams G.711 voice over RTP to the
// negotiated media endpoint and keeps listener-side quality statistics.
#pragma once

#include <map>

#include "rtp/session.hpp"
#include "sip/user_agent.hpp"

namespace siphoc::voip {

struct SoftPhoneConfig {
  std::string username;          // "Alice"
  std::string domain;            // "voicehoc.ch"  (the SIP provider)
  std::string password;          // digest-auth secret (empty = no auth)
  net::Endpoint outbound_proxy{net::kLoopbackAddress, 5060};
  bool auto_answer = true;
  Duration answer_delay = milliseconds(200);
  rtp::TalkSpurtConfig voice;
  /// Address advertised for media; unset = the host's MANET address.
  net::Address media_address;

  sip::Uri aor() const {
    sip::Uri uri;
    uri.user = username;
    uri.host = domain;
    return uri;
  }
};

/// Call lifecycle events surfaced to the "user".
struct SoftPhoneEvents {
  std::function<void(sip::CallId, const sip::Uri& peer)> on_incoming;
  std::function<void(sip::CallId)> on_ringing;
  std::function<void(sip::CallId)> on_established;
  std::function<void(sip::CallId, int status)> on_failed;
  std::function<void(sip::CallId)> on_ended;
  std::function<void(bool ok, int status)> on_registered;
  /// Incoming text message (the paper's intro: "a wireless phone and text
  /// communicator").
  std::function<void(const sip::Uri& from, const std::string& text)> on_text;
};

class SoftPhone {
 public:
  SoftPhone(net::Host& host, SoftPhoneConfig config);
  ~SoftPhone();

  void set_events(SoftPhoneEvents events) { events_ = std::move(events); }
  /// Current handlers (copyable); lets harness helpers wrap-and-restore
  /// instead of clobbering application callbacks.
  SoftPhoneEvents events() const { return events_; }

  /// Registers the account (the paper's step 1); refreshes automatically.
  void power_on();
  void power_off();
  bool registered() const { return ua_.registered(); }

  /// Dials an AOR ("bob@voicehoc.ch") or full URI ("sip:bob@voicehoc.ch").
  sip::CallId dial(const std::string& target);
  void hang_up(sip::CallId call);
  void answer(sip::CallId call) { ua_.answer(call); }
  void reject(sip::CallId call) { ua_.reject(call); }

  /// Sends a text to an AOR ("bob@voicehoc.ch"); delivery result via cb.
  void send_text(const std::string& target, std::string text,
                 std::function<void(bool ok, int status)> callback = {});

  sip::UserAgent::CallState call_state(sip::CallId call) const {
    return ua_.call_state(call);
  }
  bool in_call(sip::CallId call) const {
    return call_state(call) == sip::UserAgent::CallState::kEstablished;
  }

  /// Voice quality for a call; valid while established and after it ends.
  std::optional<rtp::Session::Report> call_report(sip::CallId call) const;

  sip::UserAgent& user_agent() { return ua_; }
  const SoftPhoneConfig& config() const { return config_; }

 private:
  void on_established(sip::CallId id, net::Endpoint remote_rtp);
  void on_call_over(sip::CallId id);

  net::Host& host_;
  SoftPhoneConfig config_;
  Logger log_;
  sip::UserAgent ua_;
  SoftPhoneEvents events_;
  std::map<sip::CallId, std::unique_ptr<rtp::Session>> media_;
  std::map<sip::CallId, rtp::Session::Report> final_reports_;
};

}  // namespace siphoc::voip
