// RTP session: binds a UDP port on the host, streams voice frames to the
// remote endpoint negotiated via SDP, and collects receive-side quality
// statistics through the jitter buffer and E-model.
#pragma once

#include "common/logging.hpp"
#include "net/host.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/quality.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/voice_source.hpp"

namespace siphoc::rtp {

struct SessionConfig {
  std::uint16_t local_port = net::kRtpPortBase;
  net::Endpoint remote;
  TalkSpurtConfig voice;
};

class Session {
 public:
  Session(net::Host& host, SessionConfig config);
  ~Session();

  void start();
  void stop();
  bool running() const { return running_; }

  struct Report {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;     // never arrived
    std::uint64_t late_drops = 0;       // arrived past playout deadline
    double network_loss_percent = 0;
    double effective_loss_percent = 0;  // network + late, what the ear hears
    double jitter_ms = 0;
    double mean_delay_ms = 0;
    double max_delay_ms = 0;
    QualityScore quality;
    /// Far-end view of OUR stream, from the peer's RTCP report blocks
    /// (what the listener on the other side is experiencing).
    std::optional<double> remote_loss_percent;
    std::optional<double> remote_jitter_ms;
  };
  Report report() const;

  std::uint64_t rtcp_sent() const { return rtcp_sent_; }
  std::uint64_t rtcp_received() const { return rtcp_received_; }

 private:
  void on_frame_timer();
  void on_datagram(const net::Datagram& d);
  void on_playout_timer();
  void on_rtcp_timer();
  void on_rtcp_datagram(const net::Datagram& d);

  net::Host& host_;
  SessionConfig config_;
  Logger log_;
  VoiceSource source_;
  JitterBuffer jitter_;
  ReceiverStats stats_;
  bool running_ = false;

  std::uint32_t ssrc_;
  std::uint16_t seq_;
  std::uint32_t timestamp_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t sent_octets_ = 0;
  // rtp.packets_tx_total, looked up on the first send: a session that
  // never sends must not create the series.
  Counter* packets_tx_ = nullptr;
  std::uint64_t sent_at_last_rtcp_ = 0;
  std::uint64_t rtcp_sent_ = 0;
  std::uint64_t rtcp_received_ = 0;
  std::uint32_t remote_ssrc_ = 0;
  std::optional<ReportBlock> last_remote_report_;
  sim::PeriodicTimer frame_timer_;
  sim::PeriodicTimer playout_timer_;
  sim::PeriodicTimer rtcp_timer_;
};

}  // namespace siphoc::rtp
