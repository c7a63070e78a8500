#include "rtp/session.hpp"

namespace siphoc::rtp {

Session::Session(net::Host& host, SessionConfig config)
    : host_(host),
      config_(config),
      log_(host.sim().ctx().log(), "rtp", host.name()),
      source_(config.voice, host.rng().fork()),
      ssrc_(host.rng().uniform_int(1, 0xffffffff)),
      seq_(static_cast<std::uint16_t>(host.rng().uniform_int(0, 0xffff))) {
  stats_.bind_metrics(host.sim().ctx().metrics(), host.name());
  jitter_.bind_metrics(host.sim().ctx().metrics(), host.name());
}

Session::~Session() { stop(); }

void Session::start() {
  if (running_) return;
  running_ = true;
  host_.bind(config_.local_port,
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_datagram(d);
             });
  frame_timer_.start(host_.sim(), kFrameInterval,
                     [this] { on_frame_timer(); });
  playout_timer_.start(host_.sim(), kFrameInterval / 2,
                       [this] { on_playout_timer(); });
  // RTCP on the next odd port, per RTP convention.
  host_.bind(static_cast<std::uint16_t>(config_.local_port + 1),
             [this](const net::Datagram& d, const net::RxInfo&) {
               on_rtcp_datagram(d);
             });
  rtcp_timer_.start(host_.sim(), kRtcpInterval, [this] { on_rtcp_timer(); },
                    milliseconds(500));
}

void Session::stop() {
  if (!running_) return;
  running_ = false;
  frame_timer_.stop();
  playout_timer_.stop();
  rtcp_timer_.stop();
  host_.unbind(config_.local_port);
  host_.unbind(static_cast<std::uint16_t>(config_.local_port + 1));
}

void Session::on_frame_timer() {
  timestamp_ += kTimestampPerFrame;
  const auto tick = source_.tick(host_.sim().now());
  if (!tick.emit) return;
  const RtpPacket packet = make_voice_packet(
      ++seq_, timestamp_, ssrc_, tick.spurt_start, host_.sim().now());
  ++sent_;
  sent_octets_ += packet.payload.size();
  if (packets_tx_ == nullptr) {
    packets_tx_ = &host_.sim().ctx().metrics().counter("rtp.packets_tx_total",
                                                       host_.name(), "rtp");
  }
  packets_tx_->add();
  host_.send_udp(config_.local_port, config_.remote, packet.encode());
}

void Session::on_rtcp_timer() {
  RtcpPacket rtcp;
  rtcp.sender_ssrc = ssrc_;
  rtcp.is_sender_report = sent_ > sent_at_last_rtcp_;
  sent_at_last_rtcp_ = sent_;
  if (rtcp.is_sender_report) {
    rtcp.sender_info.ntp_time = static_cast<std::uint64_t>(
        host_.sim().now().time_since_epoch().count());
    rtcp.sender_info.rtp_timestamp = timestamp_;
    rtcp.sender_info.packet_count = static_cast<std::uint32_t>(sent_);
    rtcp.sender_info.octet_count = static_cast<std::uint32_t>(sent_octets_);
  }
  if (stats_.received() > 0) {
    ReportBlock block;
    block.ssrc = remote_ssrc_;
    block.fraction_lost = stats_.take_interval_fraction_lost();
    block.cumulative_lost = static_cast<std::uint32_t>(stats_.lost());
    block.highest_seq = stats_.extended_highest_seq();
    block.jitter = stats_.jitter_rtp_units();
    rtcp.reports.push_back(block);
  }
  ++rtcp_sent_;
  host_.send_udp(static_cast<std::uint16_t>(config_.local_port + 1),
                 {config_.remote.address,
                  static_cast<std::uint16_t>(config_.remote.port + 1)},
                 rtcp.encode());
}

void Session::on_rtcp_datagram(const net::Datagram& d) {
  auto packet = RtcpPacket::decode(d.payload);
  if (!packet) {
    log_.warn("bad RTCP packet: ", packet.error().message);
    return;
  }
  ++rtcp_received_;
  // Our stream as heard at the far end.
  for (const auto& block : packet->reports) {
    if (block.ssrc == ssrc_ || block.ssrc == 0) {
      last_remote_report_ = block;
    }
  }
}

void Session::on_datagram(const net::Datagram& d) {
  auto packet = RtpPacket::decode(d.payload);
  if (!packet) {
    log_.warn("bad RTP packet: ", packet.error().message);
    return;
  }
  auto sent = voice_packet_sent_time(*packet);
  if (!sent) return;
  remote_ssrc_ = packet->ssrc;
  const TimePoint arrival = host_.sim().now();
  stats_.on_packet(*packet, arrival, *sent);
  jitter_.insert(*packet, arrival, *sent);
}

void Session::on_playout_timer() {
  // Drain everything due; the "audio device" is a counter.
  while (jitter_.pop_due(host_.sim().now())) {
  }
}

Session::Report Session::report() const {
  Report rep;
  rep.packets_sent = sent_;
  rep.packets_received = stats_.received();
  rep.packets_lost = stats_.lost();
  rep.late_drops = jitter_.late_drops();
  rep.network_loss_percent = stats_.loss_fraction() * 100.0;
  const auto expected = stats_.expected();
  rep.effective_loss_percent =
      expected == 0 ? 0.0
                    : 100.0 *
                          static_cast<double>(stats_.lost() +
                                              jitter_.late_drops()) /
                          static_cast<double>(expected);
  rep.jitter_ms = stats_.jitter_ms();
  rep.mean_delay_ms = stats_.mean_delay_ms();
  rep.max_delay_ms = stats_.max_delay_ms();
  rep.quality = score_call(
      {rep.mean_delay_ms + to_millis(jitter_.playout_delay()),
       rep.effective_loss_percent});
  if (last_remote_report_) {
    rep.remote_loss_percent =
        fraction_lost_percent(last_remote_report_->fraction_lost);
    rep.remote_jitter_ms =
        static_cast<double>(last_remote_report_->jitter) / 8.0;
  }
  return rep;
}

}  // namespace siphoc::rtp
