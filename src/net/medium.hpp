// Shared wireless medium (unit-disk radio model).
//
// A frame transmitted by a radio is delivered to every other radio within
// kRadioRange metres, after transmission delay (frame size / bitrate) plus
// a small propagation/MAC latency, and subject to an independent
// per-receiver loss probability. Unicast frames are filtered to the
// addressed MAC.
//
// A link filter lets scenarios forbid individual links regardless of
// distance -- the software equivalent of the firewalls the paper installs
// between testbed laptops "to enforce multihop communication".
//
// The chaos engine (src/scenario/faults.*) additionally drives the medium's
// fault knobs: per-node jamming, scheduled loss ramps, payload
// bit-corruption, frame duplication and bounded reordering. Every fault
// decision is drawn from the simulation RNG, and each draw is gated on its
// probability being non-zero, so runs with all knobs off consume the exact
// RNG stream they did before the knobs existed (seed reproducibility).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/mobility.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace siphoc::net {

/// Radio range in metres (indoor 802.11b ballpark).
inline constexpr double kRadioRange = 120.0;
inline constexpr double kRadioBitrateBps = 11e6;  // 802.11b
/// Contention + propagation, added to every frame's transmission delay.
inline constexpr Duration kMacLatency = microseconds(500);

struct RadioConfig {
  double loss_probability = 0.0;  // independent per receiver
};

/// Traffic class, derived from UDP ports, for overhead accounting.
enum class TrafficClass { kRouting, kSlp, kSip, kRtp, kTunnel, kOther };

struct ClassStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

struct MediumStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t unicast_unreachable = 0;  // addressed MAC out of range
  std::uint64_t frames_corrupted = 0;   // delivered with flipped payload bits
  std::uint64_t frames_duplicated = 0;  // extra copy scheduled
  std::uint64_t frames_reordered = 0;   // delivery delayed past later frames
  std::unordered_map<TrafficClass, ClassStats> by_class;
};

/// Chaos-engine fault injection knobs, all per-receiver and drawn from the
/// simulation RNG in a fixed order (ramped loss, corrupt, duplicate,
/// reorder) after the base loss draw. Corruption flips 1-4 random bits in
/// the UDP payload -- headers stay intact, modeling mangled bytes that slip
/// past the L2 checksum, which is exactly what the codecs must reject.
struct FaultKnobs {
  double corrupt_probability = 0.0;  // deliver a bit-flipped copy
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  Duration reorder_delay = milliseconds(20);  // max extra delivery delay
};

/// What a node plugs into the medium.
struct RadioAttachment {
  NodeId mac = 0;
  Address address;  // the radio's IP address (for ARP-style resolution)
  std::function<Position()> position;
  std::function<void(const Frame&)> deliver;
  /// Invoked on the *sender* when a unicast frame had no reachable target
  /// (802.11 missing-ACK feedback; AODV uses it to trigger RERR).
  std::function<void(const Frame&)> unicast_failed;
  bool enabled = true;
  /// True when `position` never changes (StaticMobility). The medium keeps
  /// fixed radios in a spatial grid; mobile radios are re-queried per frame.
  bool fixed_position = false;
};

class RadioMedium {
 public:
  RadioMedium(sim::Simulator& sim, RadioConfig config);

  /// Registers a radio; the attachment's callbacks must outlive the medium
  /// or be detached first.
  void attach(RadioAttachment attachment);
  void detach(NodeId mac);
  void set_enabled(NodeId mac, bool enabled);

  /// Scenario hook: return false to forbid the (a, b) link entirely.
  void set_link_filter(std::function<bool(NodeId, NodeId)> filter) {
    link_filter_ = std::move(filter);
  }

  /// Observer invoked for every transmitted frame (packet_trace example and
  /// tests use this as their "Wireshark").
  void set_tap(std::function<void(const Frame&, TimePoint)> tap) {
    tap_ = std::move(tap);
  }

  // --- chaos-engine fault knobs ----------------------------------------
  void set_fault_knobs(FaultKnobs knobs) { faults_ = knobs; }
  const FaultKnobs& fault_knobs() const { return faults_; }

  /// Scheduled loss epoch: the injected loss probability ramps linearly
  /// from `p0` at `t0` to `p1` at `t1` and stays at `p1` afterwards (on top
  /// of the base loss_probability).
  void set_loss_ramp(TimePoint t0, double p0, TimePoint t1, double p1) {
    ramp_ = LossRamp{t0, t1, p0, p1};
  }
  void clear_loss_ramp() { ramp_.reset(); }

  /// Radio blackout: a jammed node neither transmits nor receives, but
  /// unlike set_enabled(false) the attachment state is untouched, so the
  /// node's own stack keeps running (it just shouts into the void).
  void set_jammed(NodeId mac, bool jammed);
  bool jammed(NodeId mac) const { return jammed_.contains(mac); }

  /// Current injected loss probability (the active ramp), clamped to
  /// [0, 1]. Exposed so tests and the fault engine can audit the ramp.
  double fault_loss_probability(TimePoint now) const;

  void transmit(const Frame& frame);

  // --- region sharding (docs/ARCHITECTURE.md) ---------------------------
  /// Installs the MAC -> lane mapping for a sharded simulation: frame
  /// deliveries are scheduled onto the receiving radio's lane, and the
  /// medium registers itself as the simulator's epoch hook (spatial index
  /// rebuild + mobile-position snapshot at every window barrier). The
  /// medium must have been built after Simulator::enable_parallelism; call
  /// this before attaching radios.
  void configure_lanes(std::function<std::uint32_t(NodeId)> lane_of);

  /// Barrier-time refresh: rebuilds the spatial index if dirty and
  /// snapshots every mobile radio's position. In-window delivery decisions
  /// read the snapshot, so concurrent lanes never touch a mobility model
  /// they don't own.
  void epoch_refresh();

  /// ARP substitute: IP address -> MAC of the owning radio.
  std::optional<NodeId> resolve(Address address) const;

  /// Reverse lookup: MAC -> the radio's IP address.
  std::optional<Address> address_of(NodeId mac) const;

  /// True when the two radios are currently within range (and not filtered).
  bool connected(NodeId a, NodeId b) const;

  /// Aggregated over the lane shards; read at a barrier (i.e. not from
  /// concurrently-running region events).
  MediumStats stats() const;
  void reset_stats();
  sim::Simulator& simulator() { return sim_; }

  static TrafficClass classify(const Datagram& d);

 private:
  const RadioAttachment* find(NodeId mac) const;

  /// Bit-flipped copy of `frame` with Datagram::corrupted set (ground truth
  /// for the corrupt-accepted soak assertion).
  Frame corrupt_copy(const Frame& frame);
  void bump_fault_counter(const char* name);

  /// Uniform spatial grid over the cached positions of fixed radios, cell
  /// size = radio range: all in-range fixed receivers of a transmission
  /// live in the sender's 3x3 cell neighborhood. Mobile radios are kept in
  /// a side list and scanned per frame, so delivery sets stay *exactly*
  /// equal to the brute-force scan (tested against it). Rebuilt lazily
  /// after attach/detach.
  void rebuild_index();
  static std::uint64_t pack_cell(std::int32_t cx, std::int32_t cy);
  std::pair<std::int32_t, std::int32_t> cell_coords(Position p) const;
  /// Appends the fixed radios in the 3x3 grid cells around `from`,
  /// unsorted.
  void collect_fixed(Position from, std::vector<std::uint32_t>& out) const;
  /// Every radio index that could be within kRadioRange of radio
  /// `sender` at `from` (fixed: 3x3 grid cells; mobile: all) in attachment
  /// order -- iteration order determines RNG draw order, so it must match
  /// the brute-force scan for run-for-run reproducibility. A fixed sender's
  /// fixed neighbours come from the lists cached by rebuild_index(). The
  /// result views either those lists or `scratch`.
  std::span<const std::uint32_t> broadcast_candidates(
      std::uint32_t sender, Position from,
      std::vector<std::uint32_t>& scratch) const;
  /// Exactly `distance(from, at) <= kRadioRange`, but calls hypot only
  /// when the squared distance is within a 1e-9 relative band of the range.
  bool in_range(Position from, Position at) const;

  sim::Simulator& sim_;
  RadioConfig config_;
  std::vector<RadioAttachment> radios_;
  std::vector<Position> fixed_positions_;  // parallel to radios_ (fixed only)
  std::unordered_map<NodeId, std::uint32_t> mac_index_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> grid_;
  std::vector<std::uint32_t> mobile_;  // indices of non-fixed radios
  // Per fixed radio i, the fixed radios in its 3x3 cell neighbourhood in
  // index order: near_fixed_[near_offsets_[i] .. near_offsets_[i + 1]).
  // Rebuilt with the grid; empty for mobile radios.
  std::vector<std::uint32_t> near_offsets_;
  std::vector<std::uint32_t> near_fixed_;
  bool index_dirty_ = true;

  /// One reception inside a grouped delivery event (see transmit()).
  struct Reception {
    std::function<void(const Frame&)> deliver;
    std::shared_ptr<const Frame> mangled;  // set for a corrupted copy
  };
  /// A reception due at the frame's base arrival, parked until transmit()
  /// knows how many its lane's group holds.
  struct OnTime {
    std::uint32_t lane = 0;
    const RadioAttachment* rx = nullptr;
    std::shared_ptr<const Frame> mangled;
  };
  /// Reused per transmit: one block per lane.
  struct TxScratch {
    std::vector<std::uint32_t> candidates;
    std::vector<OnTime> on_time;  // in candidate order
    // (lane, receptions) per delivery group, in order of first reception.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> groups;
  };
  // Per lane of the simulator (one when unsharded), indexed by the lane
  // running the transmit, so region lanes never share mutable state.
  std::vector<TxScratch> scratch_;
  std::vector<MediumStats> lane_stats_;

  // `lane_by_radio_` mirrors radios_ (rebuilt with the index; all lane 0
  // without configure_lanes); `mobile_position_cache_` is the barrier
  // snapshot concurrent windows read.
  std::function<std::uint32_t(NodeId)> lane_of_;
  std::vector<std::uint32_t> lane_by_radio_;
  std::vector<Position> mobile_position_cache_;
  std::unordered_map<Address, NodeId> arp_;
  std::function<bool(NodeId, NodeId)> link_filter_;
  std::function<void(const Frame&, TimePoint)> tap_;

  struct LossRamp {
    TimePoint t0;
    TimePoint t1;
    double p0 = 0.0;
    double p1 = 0.0;
  };
  FaultKnobs faults_;
  std::optional<LossRamp> ramp_;
  std::unordered_set<NodeId> jammed_;
};

/// Well-known UDP ports of the emulated deployment.
inline constexpr std::uint16_t kAodvPort = 654;
inline constexpr std::uint16_t kOlsrPort = 698;
inline constexpr std::uint16_t kSlpPort = 427;
inline constexpr std::uint16_t kSipPort = 5060;
inline constexpr std::uint16_t kTunnelPort = 5100;        // server side
inline constexpr std::uint16_t kTunnelClientPort = 5101;  // client side
inline constexpr std::uint16_t kRtpPortBase = 8000;

}  // namespace siphoc::net
