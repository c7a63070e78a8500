#include "rtp/voice_source.hpp"

namespace siphoc::rtp {

VoiceSource::Tick VoiceSource::tick(TimePoint now) {
  if (config_.always_on) {
    const bool first = !started_;
    started_ = true;
    return Tick{true, first};
  }
  bool spurt_start = false;
  if (!started_ || now >= state_until_) {
    if (!started_ || !talking_) {
      talking_ = true;
      spurt_start = true;
      state_until_ = now + rng_.exponential(kMeanTalk);
    } else {
      talking_ = false;
      state_until_ = now + rng_.exponential(kMeanSilence);
    }
    started_ = true;
  }
  return Tick{talking_, spurt_start};
}

}  // namespace siphoc::rtp
