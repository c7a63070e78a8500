// Synthetic voice source: G.711 frames shaped by an on/off talk-spurt
// model (exponential talk ~1.0 s / silence ~1.35 s, the classic Brady
// conversational-speech parameters). During silence no packets are sent
// (VAD), so the traffic pattern matches what a real softphone with silence
// suppression puts on the air -- this is the substitute for the paper's
// microphone input.
#pragma once

#include "common/random.hpp"

namespace siphoc::rtp {

struct TalkSpurtConfig {
  bool always_on = false;  // disable VAD: constant 50 pps stream
};

class VoiceSource {
 public:
  static constexpr Duration kMeanTalk = milliseconds(1000);
  static constexpr Duration kMeanSilence = milliseconds(1350);

  VoiceSource(TalkSpurtConfig config, Rng rng)
      : config_(config), rng_(rng) {}

  /// Called once per frame interval; returns whether a frame is emitted and
  /// whether it starts a new talk spurt (RTP marker bit).
  struct Tick {
    bool emit = false;
    bool spurt_start = false;
  };
  Tick tick(TimePoint now);

 private:
  TalkSpurtConfig config_;
  Rng rng_;
  bool talking_ = false;
  bool started_ = false;
  TimePoint state_until_{};
};

}  // namespace siphoc::rtp
