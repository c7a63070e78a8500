// Receiver-side playout (jitter) buffer.
//
// Packets are held for a fixed playout delay measured from their send time;
// a frame that has not arrived by its deadline is a playout loss (what the
// listener actually hears as a gap), which together with network loss feeds
// the E-model in quality.hpp.
#pragma once

#include <map>
#include <optional>

#include "common/metrics.hpp"
#include "common/time.hpp"
#include "rtp/rtp.hpp"

namespace siphoc::rtp {

/// Playout delay of every RTP session's jitter buffer.
inline constexpr Duration kPlayoutDelay = milliseconds(60);

class JitterBuffer {
 public:
  explicit JitterBuffer(Duration playout_delay = kPlayoutDelay)
      : playout_delay_(playout_delay) {}

  /// Publishes drop/playout counters as series on `registry` labeled with
  /// `node` (component "rtp"); optional, like ReceiverStats::bind_metrics.
  void bind_metrics(MetricsRegistry& registry, std::string_view node);

  /// Inserts a received packet; returns false when the packet arrived after
  /// its playout deadline (late loss) or is a duplicate.
  bool insert(const RtpPacket& packet, TimePoint arrival, TimePoint sent);

  /// Pops the frame scheduled for playout at `now`, if due.
  std::optional<RtpPacket> pop_due(TimePoint now);

  std::size_t depth() const { return queue_.size(); }
  std::uint64_t late_drops() const { return late_drops_; }
  std::uint64_t duplicate_drops() const { return duplicate_drops_; }
  std::uint64_t played() const { return played_; }
  Duration playout_delay() const { return playout_delay_; }

 private:
  struct Slot {
    RtpPacket packet;
    TimePoint playout{};
  };

  Duration playout_delay_;
  std::map<std::uint16_t, Slot> queue_;  // keyed by sequence number
  std::optional<std::uint16_t> last_played_seq_;
  std::uint64_t late_drops_ = 0;
  std::uint64_t duplicate_drops_ = 0;
  std::uint64_t played_ = 0;

  Counter* late_counter_ = nullptr;
  Counter* duplicate_counter_ = nullptr;
  Counter* played_counter_ = nullptr;
};

}  // namespace siphoc::rtp
