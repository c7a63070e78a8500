// Discrete-event simulation kernel.
//
// This is the substitute for the paper's physical testbed (10 laptops +
// iPAQ handhelds on 802.11 ad hoc): an event loop over virtual time.
// Everything above it -- radio medium, routing daemons, SIP transactions,
// RTP streams -- is driven purely by scheduled callbacks, so a whole
// multihop call setup runs deterministically in microseconds of wall time
// and can be replayed from a seed.
//
// Hot-path design (see docs/PERFORMANCE.md): event closures live in a
// slab-allocated pool of records that are recycled through a free list, so
// steady-state scheduling performs no per-event heap allocation beyond
// what the closure itself captures. The priority queue orders small POD
// entries (when, seq, slot); cancellation is a generation-checked slot
// handle instead of a shared_ptr<bool> per event.
//
// Sharded mode (docs/ARCHITECTURE.md, "Region sharding"): the kernel can
// be partitioned into *lanes* -- one scenario lane (lane 0) plus one lane
// per spatial region -- each with its own event queue, RNG stream,
// sequence counter and metrics context. Lanes execute concurrently inside
// a conservative lookahead window (the per-hop MAC latency: no cross-node
// interaction can take effect sooner), exchange cross-lane events at the
// barrier between windows, and serialize any window that contains a
// scenario-lane event. Results are byte-identical for any `threads` value
// because every source of ordering (per-lane queues, per-lane RNG, barrier
// drain order) is independent of which OS thread ran which lane.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/context.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/time.hpp"

namespace siphoc::sim {

class WorkerPool;

namespace detail {

inline constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

/// One pooled event. `generation` increments every time the slot is
/// recycled, so stale handles (cancel-after-fire) become harmless no-ops.
struct EventRecord {
  std::function<void()> fn;
  std::uint32_t generation = 0;
  std::uint32_t count = 1;  // deliveries this event stands for
  std::uint32_t next_free = kInvalidSlot;
  bool cancelled = false;
  bool live = false;
};

/// The slab. Shared with handles via weak_ptr so a handle outliving its
/// Simulator degrades to an inert no-op exactly like the old weak_ptr<bool>
/// scheme did. Sharded simulators keep one pool per lane.
struct EventPool {
  std::vector<EventRecord> records;
  std::uint32_t free_head = kInvalidSlot;

  std::uint32_t acquire() {
    if (free_head != kInvalidSlot) {
      const std::uint32_t slot = free_head;
      free_head = records[slot].next_free;
      return slot;
    }
    records.emplace_back();
    return static_cast<std::uint32_t>(records.size() - 1);
  }

  void release(std::uint32_t slot) {
    EventRecord& rec = records[slot];
    rec.fn = nullptr;
    ++rec.generation;
    rec.live = false;
    rec.cancelled = false;
    rec.next_free = free_head;
    free_head = slot;
  }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation (e.g. a SIP timer that
/// is stopped because the response arrived).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the callback from firing. Safe to call multiple times and
  /// after the event fired.
  void cancel() {
    if (auto pool = pool_.lock()) {
      auto& rec = pool->records[slot_];
      if (rec.live && rec.generation == generation_) rec.cancelled = true;
    }
  }

  bool pending() const {
    auto pool = pool_.lock();
    if (!pool) return false;
    const auto& rec = pool->records[slot_];
    return rec.live && rec.generation == generation_ && !rec.cancelled;
  }

 private:
  friend class Simulator;
  EventHandle(std::weak_ptr<detail::EventPool> pool, std::uint32_t slot,
              std::uint32_t generation)
      : pool_(std::move(pool)), slot_(slot), generation_(generation) {}

  std::weak_ptr<detail::EventPool> pool_;
  std::uint32_t slot_ = detail::kInvalidSlot;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  /// `context` is the SimContext this simulation reports into (metrics,
  /// logging, time source), borrowed for callers that read it after the
  /// simulator is gone; null means the simulator owns a fresh one.
  explicit Simulator(std::uint64_t seed = 1, SimContext* context = nullptr);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time of the calling lane (lane 0 outside execution;
  /// between run calls all lanes agree).
  TimePoint now() const;
  /// RNG stream of the calling lane. Sharded simulations give every region
  /// lane its own derived stream, so draw sequences are independent of
  /// thread count.
  Rng& rng();
  /// Context of the calling lane: the main context on lane 0, a per-lane
  /// child context on region lanes (merged via merge_lane_metrics()).
  SimContext& ctx();

  // --- sharding ----------------------------------------------------------
  /// Conservative-parallel configuration. `regions` (>= 2) is part of the
  /// *simulation content* (it fixes RNG stream assignment and event
  /// interleavings); `threads` is pure execution policy and never affects
  /// results. `lookahead` must be a lower bound on every cross-lane
  /// interaction latency (the radio MAC latency in this codebase).
  struct ShardConfig {
    std::uint32_t regions = 2;
    Duration lookahead = microseconds(500);
    unsigned threads = 1;
  };

  /// Shards the kernel into `regions` region lanes executed on a worker
  /// pool of `threads`. Must be called before any event is scheduled and
  /// requires regions >= 2: a single region is the classic sequential
  /// kernel, which is what a simulator never switched into this mode runs.
  void enable_parallelism(const ShardConfig& config);

  bool sharded() const { return lanes_.size() > 1; }
  std::uint32_t lane_count() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  /// Lane the calling thread is executing/scoped on (0 when none).
  std::uint32_t current_lane() const;
  /// True while the calling thread is inside a concurrent lane window: code
  /// running there may touch only its own lane's state (the medium reads
  /// the barrier snapshot of mobile positions instead of the live model).
  bool in_parallel_window() const;

  /// RAII: routes schedule()/rng()/ctx() on this thread to `lane` -- used
  /// by the testbed to construct and drive each node on its home lane so
  /// the node's timers, RNG draws and metrics live with its region.
  class LaneScope {
   public:
    LaneScope(Simulator& sim, std::uint32_t lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    Simulator* prev_sim_;
    std::uint32_t prev_lane_;
    bool prev_in_window_;
  };

  /// Called after every lookahead window (and once before the first), with
  /// all lanes quiescent: the radio medium uses it to rebuild its spatial
  /// index and refresh the mobile-position cache that in-window delivery
  /// decisions read.
  void set_epoch_hook(std::function<void()> hook) { epoch_hook_ = std::move(hook); }

  /// One-shot: folds every region lane's child metrics registry into the
  /// main context, in lane order (deterministic). Call after the last run_*
  /// and before exporting metrics; the testbed destructor calls it too.
  void merge_lane_metrics();

  // --- scheduling --------------------------------------------------------
  /// Schedules `fn` to run `delay` from now on the calling lane. Returns a
  /// cancellation handle.
  EventHandle schedule(Duration delay, std::function<void()> fn);

  /// Schedules at an absolute virtual time (must not be in the past) on the
  /// calling lane.
  EventHandle schedule_at(TimePoint when, std::function<void()> fn);

  /// Schedules onto an explicit lane (the radio medium targets a frame's
  /// receiving region; the Internet segment targets lane 0). From inside a
  /// concurrent window a cross-lane event travels through the source
  /// lane's outbox and is enqueued at the next barrier, in which case the
  /// returned handle is inert (cross-lane deliveries are never cancelled).
  /// On a sharded simulator a cross-lane `delay` must be at least the
  /// lookahead. `count` is how many deliveries the event stands for: the
  /// radio medium runs all of a frame's same-lane, same-instant receptions
  /// in one event, and events_executed() counts each of them.
  EventHandle schedule_on(std::uint32_t lane, Duration delay,
                          std::function<void()> fn, std::uint32_t count = 1);

  /// Runs until the event queue drains or `until` is reached, whichever is
  /// first. Time advances to `until` even if the queue drains earlier, so
  /// back-to-back run_until calls observe monotonic time.
  void run_until(TimePoint until);

  /// Convenience: advance by a relative amount.
  void run_for(Duration d) { run_until(lanes_[0].now + d); }

  /// Runs until the queue is completely empty (use with care: periodic
  /// timers never drain).
  void run_to_completion();

  /// Number of events executed so far, summed over lanes (sanity metric
  /// for benches). An event scheduled with a `count` adds that count.
  std::uint64_t events_executed() const;

  /// Window accounting (sharded runs only): how many lookahead windows
  /// executed, and how many of those the serial-window rule forced
  /// sequential (docs/ARCHITECTURE.md). Surfaced by bench_cityscale rows.
  std::uint64_t windows_run() const { return windows_run_; }
  std::uint64_t windows_serialized() const { return windows_serialized_; }

 private:
  /// What the priority queue orders: 24 trivially-copyable bytes. The
  /// record (and its closure) stays put in the pool until popped.
  struct QueueEntry {
    TimePoint when;
    std::uint64_t seq;  // FIFO tie-break for same-timestamp events
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  /// A cross-lane event parked in its source lane's outbox until the
  /// barrier (drained in source-lane order, preserving per-source FIFO,
  /// so enqueue order is thread-count independent).
  struct OutboxEntry {
    std::uint32_t target;
    std::uint32_t count;
    TimePoint when;
    std::function<void()> fn;
  };

  struct Lane {
    explicit Lane(std::uint64_t rng_seed)
        : pool(std::make_shared<detail::EventPool>()), rng(rng_seed) {}
    std::shared_ptr<detail::EventPool> pool;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue;
    TimePoint now{};
    std::uint64_t next_seq = 0;
    std::uint64_t events_executed = 0;
    Rng rng;
    std::unique_ptr<SimContext> ctx;  // region lanes only; lane 0 uses ctx_
    std::vector<OutboxEntry> outbox;
  };

  EventHandle push_event(Lane& lane, TimePoint when, std::function<void()> fn,
                         std::uint32_t count = 1);
  bool step(TimePoint limit);  // classic sequential loop over lane 0
  void run_until_sharded(TimePoint until);
  void run_lane_window(std::uint32_t lane_index, TimePoint wend,
                       TimePoint until);
  void exec_top(std::uint32_t lane_index);
  void prune_cancelled(Lane& lane);
  void drain_outboxes();
  SimContext& lane_context(std::uint32_t lane_index) {
    Lane& lane = lanes_[lane_index];
    return lane.ctx ? *lane.ctx : *ctx_;
  }

  std::unique_ptr<SimContext> owned_ctx_;  // set when none was passed in
  SimContext* ctx_;
  std::uint64_t seed_;
  std::vector<Lane> lanes_;  // lane 0 always exists
  Duration lookahead_{microseconds(500)};
  std::unique_ptr<WorkerPool> pool_;
  std::function<void()> epoch_hook_;
  std::uint64_t windows_run_ = 0;
  std::uint64_t windows_serialized_ = 0;
  bool lanes_merged_ = false;
};

/// Repeating timer built on the kernel: reschedules itself until stopped.
/// Optionally jitters each period to avoid synchronized beacons, mirroring
/// the jitter AODV/OLSR mandate for HELLO emission.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;

  void start(Simulator& sim, Duration period, std::function<void()> fn,
             Duration jitter = Duration::zero());
  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator* sim_ = nullptr;
  Duration period_{};
  Duration jitter_{};
  std::function<void()> fn_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace siphoc::sim
