// SIP user agent core: registration + call control (RFC 3261 UAC/UAS).
//
// This is the SIP engine of the "out-of-the-box VoIP application" (the
// paper's Kphone/Twinkle/Minisip role). It contains *no MANET-specific
// code*: like the paper's Figure 2 configuration, the only thing that
// points it at SIPHoc is `outbound_proxy = 127.0.0.1:5060` -- every request
// it originates is sent to that endpoint and everything else is standard
// SIP. Swap the outbound proxy for a provider address and the same agent
// works against a plain Internet registrar.
#pragma once

#include <map>
#include <vector>

#include "sim/simulator.hpp"
#include "sip/dialog.hpp"
#include "sip/sdp.hpp"
#include "sip/transaction.hpp"

namespace siphoc::sip {

struct UserAgentConfig {
  Uri aor;  // sip:alice@voicehoc.ch
  /// Digest-auth password for the account; empty = never answer 401s.
  std::string password;
  net::Endpoint outbound_proxy{net::kLoopbackAddress, 5060};
  bool auto_answer = true;
  Duration answer_delay = milliseconds(200);  // ring time before answering
  /// Address advertised in SDP (media must be reachable end to end). Unset:
  /// the host's MANET address at call time.
  net::Address media_address;
};

using CallId = std::uint64_t;

/// Call lifecycle notifications (the softphone UI surface).
struct UserAgentCallbacks {
  std::function<void(CallId, const Uri& peer)> on_incoming;
  std::function<void(CallId)> on_ringing;
  std::function<void(CallId, net::Endpoint remote_rtp)> on_established;
  std::function<void(CallId, int status)> on_failed;
  std::function<void(CallId)> on_ended;
  std::function<void(bool ok, int status)> on_register_result;
  /// Pager-mode instant message received (RFC 3428 MESSAGE).
  std::function<void(const Uri& from, const std::string& text)> on_text;
};

class UserAgent {
 public:
  /// UDP port of the agent's SIP transport (its Contact and Via port).
  static constexpr std::uint16_t kSipPort = 5070;
  /// Registration lifetime asked for; refreshed at half of it.
  static constexpr Duration kRegisterExpires = seconds(3600);

  UserAgent(net::Host& host, UserAgentConfig config);
  ~UserAgent();

  void set_callbacks(UserAgentCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  // --- registration -------------------------------------------------------
  /// Sends REGISTER via the outbound proxy; refreshes automatically.
  void start_registration();
  void stop_registration();
  bool registered() const { return registered_; }

  // --- calls --------------------------------------------------------------
  /// Initiates a call to an AOR ("sip:bob@voicehoc.ch"). Progress arrives
  /// through the callbacks.
  CallId invite(Uri target);
  void hangup(CallId call);
  /// Mid-call media update (re-INVITE): renegotiates the session with a new
  /// media address (e.g. the node gained a tunnel and must be reached at
  /// its Internet-visible address). on_established fires again with the
  /// peer's (possibly unchanged) RTP endpoint when the update completes.
  void reinvite(CallId call, net::Address new_media_address);
  /// Declines or terminates an unanswered incoming call.
  void reject(CallId call, int status = 486);
  /// Answers an incoming call now (when auto_answer is off).
  void answer(CallId call);

  // --- instant messaging (RFC 3428) ---------------------------------------
  /// Sends a pager-mode text to an AOR through the outbound proxy; the
  /// callback reports delivery (2xx) or failure status (408 on timeout).
  void send_text(Uri target, std::string text,
                 std::function<void(bool ok, int status)> callback = {});

  enum class CallState {
    kIdle,
    kInviting,    // UAC: INVITE sent
    kRinging,     // UAS: 180 sent / UAC: 180 received
    kEstablished,
    kEnded,
  };
  CallState call_state(CallId call) const;
  std::size_t active_calls() const;

  /// Per-call view for the invariant monitor: every started call must reach
  /// a terminal state (established, failed or ended) within the SIP timeout
  /// budget -- a call parked in kInviting/kRinging past 64*T1 is a black
  /// hole.
  struct CallSnapshot {
    CallId id = 0;
    CallState state = CallState::kIdle;
    TimePoint started{};
  };
  std::vector<CallSnapshot> call_snapshots() const;

  /// RTP endpoint this agent listens on for a given call.
  net::Endpoint local_rtp(CallId call) const;

  const UserAgentConfig& config() const { return config_; }
  net::Host& host() { return host_; }
  const TransactionLayer& transactions() const { return txn_; }

 private:
  struct Call {
    CallId id = 0;
    bool outgoing = false;
    CallState state = CallState::kIdle;
    TimePoint started{};  // when the INVITE was sent/received
    Dialog dialog;
    std::optional<Message> invite;             // UAS: pending request
    std::shared_ptr<ServerTransaction> server_txn;
    net::Endpoint remote_rtp;
    std::uint16_t local_rtp_port = 0;
    net::Address media_override;  // set by reinvite()
    sim::EventHandle answer_timer;
  };

  net::Address media_address() const;
  /// Contact host: loopback when sitting behind a localhost outbound proxy
  /// (the SIPHoc deployment), otherwise a routable host address (a phone
  /// registering directly with an Internet provider).
  net::Address contact_address() const;
  Message make_dialogless(std::string method, Uri request_uri);
  void send_register(std::uint32_t expires);
  void handle_request(std::shared_ptr<ServerTransaction> txn,
                      const Message& request);
  void handle_invite(std::shared_ptr<ServerTransaction> txn);
  void handle_reinvite(std::shared_ptr<ServerTransaction> txn, Call& call);
  void handle_bye(std::shared_ptr<ServerTransaction> txn,
                  const Message& request);
  void accept_call(CallId id);
  void on_invite_response(CallId id, const std::optional<Message>& response);
  Call* find_call(CallId id);
  Call* find_call_by_dialog(const Message& request);

  net::Host& host_;
  UserAgentConfig config_;
  Logger log_;
  Transport transport_;
  TransactionLayer txn_;
  UserAgentCallbacks callbacks_;

  bool registered_ = false;
  bool registering_ = false;
  sim::EventHandle register_refresh_;
  std::uint32_t register_cseq_ = 0;
  std::string register_call_id_;
  std::optional<std::string> register_challenge_;  // WWW-Authenticate value
  int auth_attempts_ = 0;

  std::map<CallId, Call> calls_;
  CallId next_call_id_ = 1;
  std::uint16_t next_rtp_port_ = net::kRtpPortBase;
};

}  // namespace siphoc::sip
