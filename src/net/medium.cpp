#include "net/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/metrics.hpp"

namespace siphoc::net {

namespace {
void merge_stats(MediumStats& into, const MediumStats& from) {
  into.frames_sent += from.frames_sent;
  into.frames_delivered += from.frames_delivered;
  into.unicast_unreachable += from.unicast_unreachable;
  into.frames_corrupted += from.frames_corrupted;
  into.frames_duplicated += from.frames_duplicated;
  into.frames_reordered += from.frames_reordered;
  for (const auto& [cls, s] : from.by_class) {
    ClassStats& dst = into.by_class[cls];
    dst.frames += s.frames;
    dst.bytes += s.bytes;
  }
}

// Squared-distance thresholds of in_range(): beyond reject, out of range;
// below accept, in range; in between, hypot decides. See in_range() for
// why the band makes the squared test exact.
constexpr double kRangeReject = kRadioRange * (1 + 1e-9);
constexpr double kRangeAccept = kRadioRange * (1 - 1e-9);
constexpr double kRangeReject2 = kRangeReject * kRangeReject;
constexpr double kRangeAccept2 = kRangeAccept * kRangeAccept;
}  // namespace

RadioMedium::RadioMedium(sim::Simulator& sim, RadioConfig config)
    : sim_(sim),
      config_(config),
      scratch_(sim.lane_count()),
      lane_stats_(sim.lane_count()) {}

void RadioMedium::configure_lanes(std::function<std::uint32_t(NodeId)> lane_of) {
  assert(lane_stats_.size() == sim_.lane_count());
  lane_of_ = std::move(lane_of);
  index_dirty_ = true;
  sim_.set_epoch_hook([this] { epoch_refresh(); });
}

void RadioMedium::epoch_refresh() {
  if (index_dirty_) rebuild_index();
  mobile_position_cache_.resize(radios_.size());
  for (const std::uint32_t i : mobile_) {
    mobile_position_cache_[i] = radios_[i].position();
  }
}

MediumStats RadioMedium::stats() const {
  MediumStats total;
  for (const MediumStats& shard : lane_stats_) merge_stats(total, shard);
  return total;
}

void RadioMedium::reset_stats() {
  for (MediumStats& shard : lane_stats_) shard = {};
}

void RadioMedium::attach(RadioAttachment attachment) {
  arp_[attachment.address] = attachment.mac;
  mac_index_.emplace(attachment.mac,
                     static_cast<std::uint32_t>(radios_.size()));
  radios_.push_back(std::move(attachment));
  index_dirty_ = true;
}

void RadioMedium::detach(NodeId mac) {
  std::erase_if(radios_,
                [&](const RadioAttachment& r) { return r.mac == mac; });
  std::erase_if(arp_, [&](const auto& kv) { return kv.second == mac; });
  // Indices shifted; rebuild the mac map eagerly (detach is rare) and let
  // the spatial grid follow lazily.
  mac_index_.clear();
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    mac_index_.emplace(radios_[i].mac, i);
  }
  index_dirty_ = true;
}

void RadioMedium::set_enabled(NodeId mac, bool enabled) {
  const auto it = mac_index_.find(mac);
  if (it != mac_index_.end()) radios_[it->second].enabled = enabled;
}

void RadioMedium::set_jammed(NodeId mac, bool jammed) {
  if (jammed) {
    jammed_.insert(mac);
  } else {
    jammed_.erase(mac);
  }
}

double RadioMedium::fault_loss_probability(TimePoint now) const {
  double p = 0.0;
  if (ramp_) {
    if (now >= ramp_->t1 || ramp_->t1 <= ramp_->t0) {
      p += ramp_->p1;
    } else if (now <= ramp_->t0) {
      p += ramp_->p0;
    } else {
      const double f =
          std::chrono::duration<double>(now - ramp_->t0).count() /
          std::chrono::duration<double>(ramp_->t1 - ramp_->t0).count();
      p += ramp_->p0 + f * (ramp_->p1 - ramp_->p0);
    }
  }
  return std::clamp(p, 0.0, 1.0);
}

Frame RadioMedium::corrupt_copy(const Frame& frame) {
  Frame out = frame;
  out.datagram.corrupted = true;
  const Bytes& clean = frame.datagram.payload.bytes();
  if (!clean.empty()) {
    Bytes mangled = clean;
    const std::uint32_t flips = sim_.rng().uniform_int(1, 4);
    const auto max_bit = static_cast<std::uint32_t>(mangled.size() * 8 - 1);
    for (std::uint32_t k = 0; k < flips; ++k) {
      const std::uint32_t bit = sim_.rng().uniform_int(0u, max_bit);
      mangled[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    out.datagram.payload = std::move(mangled);
  }
  return out;
}

void RadioMedium::bump_fault_counter(const char* name) {
  sim_.ctx().metrics().counter(name, "radio", "medium").add();
}

const RadioAttachment* RadioMedium::find(NodeId mac) const {
  const auto it = mac_index_.find(mac);
  return it == mac_index_.end() ? nullptr : &radios_[it->second];
}

std::uint64_t RadioMedium::pack_cell(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

std::pair<std::int32_t, std::int32_t> RadioMedium::cell_coords(
    Position p) const {
  return {static_cast<std::int32_t>(std::floor(p.x / kRadioRange)),
          static_cast<std::int32_t>(std::floor(p.y / kRadioRange))};
}

void RadioMedium::rebuild_index() {
  grid_.clear();
  mobile_.clear();
  fixed_positions_.assign(radios_.size(), Position{});
  lane_by_radio_.assign(radios_.size(), 0);
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    const RadioAttachment& r = radios_[i];
    if (lane_of_) lane_by_radio_[i] = lane_of_(r.mac);
    if (r.fixed_position) {
      const Position p = r.position();
      fixed_positions_[i] = p;
      const auto [cx, cy] = cell_coords(p);
      grid_[pack_cell(cx, cy)].push_back(i);
    } else {
      mobile_.push_back(i);
    }
  }
  // Static senders broadcast from the same cell every time: gather and
  // sort their fixed neighbourhoods once here, not per frame.
  near_offsets_.assign(radios_.size() + 1, 0);
  near_fixed_.clear();
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    if (radios_[i].fixed_position) {
      const auto begin = static_cast<std::ptrdiff_t>(near_fixed_.size());
      collect_fixed(fixed_positions_[i], near_fixed_);
      std::sort(near_fixed_.begin() + begin, near_fixed_.end());
    }
    near_offsets_[i + 1] = static_cast<std::uint32_t>(near_fixed_.size());
  }
  index_dirty_ = false;
}

void RadioMedium::collect_fixed(Position from,
                                std::vector<std::uint32_t>& out) const {
  const auto [cx, cy] = cell_coords(from);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(pack_cell(cx + dx, cy + dy));
      if (it != grid_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
  }
}

std::span<const std::uint32_t> RadioMedium::broadcast_candidates(
    std::uint32_t sender, Position from,
    std::vector<std::uint32_t>& scratch) const {
  // Attachment order == the order the old brute-force scan visited radios
  // == the order per-receiver loss draws consume the RNG. Keep it.
  if (radios_[sender].fixed_position) {
    const std::span<const std::uint32_t> near(
        near_fixed_.data() + near_offsets_[sender],
        near_fixed_.data() + near_offsets_[sender + 1]);
    if (mobile_.empty()) return near;
    // Both lists are sorted and disjoint.
    scratch.resize(near.size() + mobile_.size());
    std::merge(near.begin(), near.end(), mobile_.begin(), mobile_.end(),
               scratch.begin());
    return scratch;
  }
  collect_fixed(from, scratch);
  scratch.insert(scratch.end(), mobile_.begin(), mobile_.end());
  std::sort(scratch.begin(), scratch.end());
  return scratch;
}

bool RadioMedium::in_range(Position from, Position at) const {
  // The same dx, dy as distance(from, at). The rounding error of d2 is a
  // few ulp, far inside the 1e-9 band, so outside the band the sign of
  // d - range is certain and hypot agrees with it. A bare
  // d2 > range * range is not exact.
  const double dx = from.x - at.x;
  const double dy = from.y - at.y;
  const double d2 = dx * dx + dy * dy;
  if (d2 > kRangeReject2) return false;
  if (d2 < kRangeAccept2) return true;
  return distance(from, at) <= kRadioRange;
}

TrafficClass RadioMedium::classify(const Datagram& d) {
  switch (d.dst_port) {
    case kAodvPort:
    case kOlsrPort:
      return TrafficClass::kRouting;
    case kSlpPort:
      return TrafficClass::kSlp;
    case kSipPort:
      return TrafficClass::kSip;
    case kTunnelPort:
    case kTunnelClientPort:
      return TrafficClass::kTunnel;
    default:
      return d.dst_port >= kRtpPortBase && d.dst_port < kRtpPortBase + 1000
                 ? TrafficClass::kRtp
                 : TrafficClass::kOther;
  }
}

void RadioMedium::transmit(const Frame& frame) {
  const RadioAttachment* sender = find(frame.src_mac);
  if (sender == nullptr || !sender->enabled) return;
  // A jammed radio transmits nothing intelligible; drop at the source like
  // a disabled one, but without touching the attachment state.
  if (!jammed_.empty() && jammed_.contains(frame.src_mac)) return;

  // One stats shard and one scratch block per lane; aggregation happens
  // in stats() at barrier time.
  const std::uint32_t lane = sim_.current_lane();
  MediumStats& st = lane_stats_[lane];
  ++st.frames_sent;
  auto& cls = st.by_class[classify(frame.datagram)];
  ++cls.frames;
  cls.bytes += frame.wire_size();
  if (tap_) tap_(frame, sim_.now());

  // Attachments mutate only outside concurrent windows (setup, serial
  // scenario windows), so a dirty index can always be rebuilt right here
  // on the calling thread.
  if (index_dirty_) {
    assert(!sim_.in_parallel_window());
    rebuild_index();
  }
  const bool in_window = sim_.in_parallel_window();

  const Position from = sender->position();
  const Duration tx_delay = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(static_cast<double>(frame.wire_size()) *
                                    8.0 / kRadioBitrateBps));
  const Duration arrival = tx_delay + kMacLatency;

  // Receiver set: unicast resolves the addressed MAC directly; broadcast
  // asks the spatial index for everything possibly in range.
  TxScratch& scratch = scratch_[lane];
  scratch.candidates.clear();
  std::span<const std::uint32_t> candidates;
  if (frame.dst_mac == kBroadcastMac) {
    const auto index = static_cast<std::uint32_t>(sender - radios_.data());
    candidates = broadcast_candidates(index, from, scratch.candidates);
  } else if (const auto it = mac_index_.find(frame.dst_mac);
             it != mac_index_.end()) {
    scratch.candidates.push_back(it->second);
    candidates = scratch.candidates;
  }

  // Injected loss is time-dependent (ramps); evaluate once per frame.
  const double fault_loss = fault_loss_probability(sim_.now());

  // Hands one reception to the kernel on the receiver's home lane (lane 0
  // when unsharded); the MAC latency floor under every arrival is what
  // makes the lookahead window sound. A reception at the frame's base
  // arrival joins its lane's group; a later one (reordered, duplicated)
  // is an event of its own. `deliver` is copied either way: a radio
  // detached in flight still receives what was already sent to it.
  auto& groups = scratch.groups;
  const auto emit = [&](std::uint32_t rx_lane, Duration at,
                        const RadioAttachment& rx,
                        std::shared_ptr<const Frame> mangled) {
    if (at == arrival) {
      const auto group = std::find_if(
          groups.begin(), groups.end(),
          [&](const auto& g) { return g.first == rx_lane; });
      if (group == groups.end()) {
        groups.emplace_back(rx_lane, 1);
      } else {
        ++group->second;
      }
      scratch.on_time.push_back(OnTime{rx_lane, &rx, std::move(mangled)});
      return;
    }
    auto deliver = rx.deliver;
    if (mangled) {
      sim_.schedule_on(rx_lane, at, [deliver, mangled] { deliver(*mangled); });
    } else {
      sim_.schedule_on(rx_lane, at, [deliver, frame] { deliver(frame); });
    }
  };

  bool unicast_reached = frame.dst_mac == kBroadcastMac;
  for (const std::uint32_t i : candidates) {
    const RadioAttachment& rx = radios_[i];
    if (rx.mac == frame.src_mac || !rx.enabled) continue;
    if (!jammed_.empty() && jammed_.contains(rx.mac)) continue;
    if (link_filter_ && !link_filter_(frame.src_mac, rx.mac)) continue;
    // Concurrent windows read the barrier snapshot of mobile positions
    // (never the live model, which belongs to the radio's home lane);
    // the snapshot is at most one lookahead window old.
    const Position at = rx.fixed_position
                            ? fixed_positions_[i]
                            : (in_window ? mobile_position_cache_[i]
                                         : rx.position());
    if (!in_range(from, at)) continue;
    unicast_reached = true;
    // Fault draws happen in a fixed documented order (base loss, injected
    // loss, corrupt, duplicate, reorder), each gated on its probability
    // being non-zero, so default-configured runs consume an unchanged RNG
    // stream and chaos runs are seed-reproducible.
    if (config_.loss_probability > 0 &&
        sim_.rng().chance(config_.loss_probability)) {
      continue;
    }
    if (fault_loss > 0 && sim_.rng().chance(fault_loss)) continue;
    const bool corrupt = faults_.corrupt_probability > 0 &&
                         sim_.rng().chance(faults_.corrupt_probability);
    const bool duplicate = faults_.duplicate_probability > 0 &&
                           sim_.rng().chance(faults_.duplicate_probability);
    Duration rx_arrival = arrival;
    if (faults_.reorder_probability > 0 &&
        sim_.rng().chance(faults_.reorder_probability)) {
      ++st.frames_reordered;
      bump_fault_counter("medium.frames_reordered_total");
      rx_arrival += std::chrono::duration_cast<Duration>(
          faults_.reorder_delay * sim_.rng().uniform());
    }
    ++st.frames_delivered;
    const std::uint32_t rx_lane = lane_by_radio_[i];
    std::shared_ptr<const Frame> mangled;
    if (corrupt) {
      ++st.frames_corrupted;
      bump_fault_counter("medium.frames_corrupted_total");
      mangled = std::make_shared<const Frame>(corrupt_copy(frame));
    }
    emit(rx_lane, rx_arrival, rx, std::move(mangled));
    if (duplicate) {
      ++st.frames_duplicated;
      bump_fault_counter("medium.frames_duplicated_total");
      // The duplicate is a clean copy arriving a few MAC slots later, the
      // way a lost 802.11 ACK makes the sender retransmit a received frame.
      const Duration dup_arrival =
          rx_arrival +
          kMacLatency * (1 + sim_.rng().uniform_int(0, 3));
      emit(rx_lane, dup_arrival, rx, nullptr);
    }
  }

  // One kernel event per receiving lane runs the frame's on-time
  // receptions in candidate order, and counts as that many events. This
  // keeps each lane's (when, seq) execution order equal to one event per
  // reception. Those events would have held consecutive sequence numbers
  // among the lane's events due at `arrival` (also via the outbox, which
  // is drained in order): nothing else due then was scheduled in between,
  // because everything else this call schedules is later (late copies),
  // or is the unicast-failure notice, which exists only when no reception
  // does. So they would run back to back, unless a reception's handler
  // put an event due at the same instant ahead of the later ones. A
  // same-lane event takes a higher sequence number and runs after the
  // group either way. A cross-lane one could cut in only in a serial
  // window, where lanes interleave in (when, lane) order, but
  // Simulator::schedule_on requires cross-lane delays of at least the
  // lookahead, so none is due at `arrival`. The frame is copied once per
  // group, not once per receiver, and each group's receptions are
  // allocated once, at their exact size.
  for (const auto& [group_lane, count] : groups) {
    std::vector<Reception> receptions;
    receptions.reserve(count);
    for (OnTime& r : scratch.on_time) {
      if (r.lane != group_lane) continue;
      receptions.push_back(Reception{r.rx->deliver, std::move(r.mangled)});
    }
    sim_.schedule_on(
        group_lane, arrival,
        [frame, receptions = std::move(receptions)] {
          for (const Reception& r : receptions) {
            r.deliver(r.mangled ? *r.mangled : frame);
          }
        },
        count);
  }
  groups.clear();
  scratch.on_time.clear();

  if (!unicast_reached) {
    ++st.unicast_unreachable;
    if (sender->unicast_failed) {
      auto notify = sender->unicast_failed;
      sim_.schedule(arrival, [notify, frame] { notify(frame); });
    }
  }
}

std::optional<Address> RadioMedium::address_of(NodeId mac) const {
  const RadioAttachment* r = find(mac);
  if (r == nullptr) return std::nullopt;
  return r->address;
}

std::optional<NodeId> RadioMedium::resolve(Address address) const {
  const auto it = arp_.find(address);
  if (it == arp_.end()) return std::nullopt;
  return it->second;
}

bool RadioMedium::connected(NodeId a, NodeId b) const {
  const RadioAttachment* ra = find(a);
  const RadioAttachment* rb = find(b);
  if (ra == nullptr || rb == nullptr || !ra->enabled || !rb->enabled)
    return false;
  if (link_filter_ && (!link_filter_(a, b) || !link_filter_(b, a)))
    return false;
  return distance(ra->position(), rb->position()) <= kRadioRange;
}

}  // namespace siphoc::net
