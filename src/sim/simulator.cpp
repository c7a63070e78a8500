#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "common/metrics.hpp"
#include "sim/worker_pool.hpp"

namespace siphoc::sim {

namespace {

/// Which lane the calling thread is currently executing or scoped on.
/// Written by the window executor and LaneScope only; each thread sees its
/// own copy, so lane-aware accessors are race-free by construction.
struct ExecState {
  Simulator* sim = nullptr;
  std::uint32_t lane = 0;
  bool in_window = false;
};
thread_local ExecState t_exec;

/// RAII exec-state swap used by the window/serial executors.
class ExecGuard {
 public:
  ExecGuard(Simulator* sim, std::uint32_t lane, bool in_window)
      : prev_(t_exec) {
    t_exec = ExecState{sim, lane, in_window};
  }
  ~ExecGuard() { t_exec = prev_; }
  ExecGuard(const ExecGuard&) = delete;
  ExecGuard& operator=(const ExecGuard&) = delete;

 private:
  ExecState prev_;
};

constexpr std::uint32_t kNoLane = 0xffffffffu;

}  // namespace

Simulator::Simulator(std::uint64_t seed, SimContext* context)
    : owned_ctx_(context != nullptr ? nullptr : std::make_unique<SimContext>()),
      ctx_(context != nullptr ? context : owned_ctx_.get()),
      seed_(seed) {
  lanes_.emplace_back(seed);
  ctx_->set_root_seed(seed);
  ctx_->adopt_time_source(this, [this] { return lanes_[0].now; });
}

Simulator::~Simulator() {
  // Owner-tagged release: if a later simulator adopted the same context's
  // time source, a dying earlier one must not clobber it.
  ctx_->release_time_source(this);
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    if (lanes_[l].ctx) lanes_[l].ctx->release_time_source(this);
  }
}

void Simulator::enable_parallelism(const ShardConfig& config) {
  assert(lanes_.size() == 1 && lanes_[0].queue.empty() &&
         "enable_parallelism must run before any event is scheduled");
  assert(config.regions >= 2 && "one region is the sequential kernel");
  assert(config.lookahead > Duration::zero());
  lookahead_ = config.lookahead;
  lanes_.reserve(1 + config.regions);
  for (std::uint32_t r = 1; r <= config.regions; ++r) {
    // Region lanes draw from streams derived the same way sweep cells do:
    // a function of (root seed, lane index) only -- never of thread count
    // or execution order.
    Lane& lane = lanes_.emplace_back(SimContext::derive_seed(seed_, r));
    lane.ctx = std::make_unique<SimContext>();
    lane.ctx->set_root_seed(SimContext::derive_seed(seed_, r));
    const std::uint32_t index = r;
    lane.ctx->adopt_time_source(this,
                                [this, index] { return lanes_[index].now; });
  }
  pool_ = std::make_unique<WorkerPool>(config.threads == 0 ? 1 : config.threads);
}

std::uint32_t Simulator::current_lane() const {
  return t_exec.sim == this ? t_exec.lane : 0;
}

bool Simulator::in_parallel_window() const {
  return t_exec.sim == this && t_exec.in_window;
}

Simulator::LaneScope::LaneScope(Simulator& sim, std::uint32_t lane)
    : prev_sim_(t_exec.sim),
      prev_lane_(t_exec.lane),
      prev_in_window_(t_exec.in_window) {
  assert(lane < sim.lane_count());
  t_exec = ExecState{&sim, lane, false};
}

Simulator::LaneScope::~LaneScope() {
  t_exec = ExecState{prev_sim_, prev_lane_, prev_in_window_};
}

TimePoint Simulator::now() const { return lanes_[current_lane()].now; }

Rng& Simulator::rng() { return lanes_[current_lane()].rng; }

SimContext& Simulator::ctx() { return lane_context(current_lane()); }

void Simulator::merge_lane_metrics() {
  if (lanes_merged_) return;
  lanes_merged_ = true;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    if (lanes_[l].ctx) ctx_->metrics().merge_from(lanes_[l].ctx->metrics());
  }
}

EventHandle Simulator::push_event(Lane& lane, TimePoint when,
                                  std::function<void()> fn,
                                  std::uint32_t count) {
  assert(when >= lane.now);
  const std::uint32_t slot = lane.pool->acquire();
  detail::EventRecord& rec = lane.pool->records[slot];
  rec.fn = std::move(fn);
  rec.count = count;
  rec.cancelled = false;
  rec.live = true;
  lane.queue.push(QueueEntry{when, lane.next_seq++, slot});
  return EventHandle{lane.pool, slot, rec.generation};
}

EventHandle Simulator::schedule(Duration delay, std::function<void()> fn) {
  assert(delay >= Duration::zero());
  Lane& lane = lanes_[current_lane()];
  return push_event(lane, lane.now + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(TimePoint when, std::function<void()> fn) {
  return push_event(lanes_[current_lane()], when, std::move(fn));
}

EventHandle Simulator::schedule_on(std::uint32_t lane_index, Duration delay,
                                   std::function<void()> fn,
                                   std::uint32_t count) {
  assert(lane_index < lanes_.size());
  const std::uint32_t src = current_lane();
  // A cross-lane event due sooner than the lookahead could, in a serial
  // window, cut into a group of receptions (see RadioMedium::transmit).
  assert(!sharded() || lane_index == src || delay >= lookahead_);
  const TimePoint when = lanes_[src].now + delay;
  if (t_exec.sim == this && t_exec.in_window && lane_index != src) {
    // Concurrent window: park in the source outbox; enqueued (with a
    // deterministic sequence number) at the barrier. The lookahead
    // guarantee makes `when` land at or beyond the window end, so the
    // event cannot have been needed inside this window.
    lanes_[src].outbox.push_back(
        OutboxEntry{lane_index, count, when, std::move(fn)});
    return EventHandle{};
  }
  return push_event(lanes_[lane_index], when, std::move(fn), count);
}

bool Simulator::step(TimePoint limit) {
  Lane& lane = lanes_[0];
  while (!lane.queue.empty()) {
    const QueueEntry top = lane.queue.top();  // POD copy; closure stays pooled
    if (top.when > limit) return false;
    lane.queue.pop();
    lane.now = top.when;
    detail::EventRecord& rec = lane.pool->records[top.slot];
    const bool cancelled = rec.cancelled;
    // Move the closure out before releasing the slot: the callback may
    // schedule more events, which can recycle the slot and grow the slab.
    const std::uint32_t count = rec.count;
    std::function<void()> fn = std::move(rec.fn);
    lane.pool->release(top.slot);
    if (cancelled) continue;
    lane.events_executed += count;
    fn();
    return true;
  }
  return false;
}

void Simulator::run_until(TimePoint until) {
  if (sharded()) {
    run_until_sharded(until);
    return;
  }
  while (step(until)) {
  }
  if (lanes_[0].now < until) lanes_[0].now = until;
}

void Simulator::run_to_completion() {
  if (sharded()) {
    run_until_sharded(TimePoint::max());
    return;
  }
  while (step(TimePoint::max())) {
  }
}

void Simulator::prune_cancelled(Lane& lane) {
  while (!lane.queue.empty()) {
    const QueueEntry top = lane.queue.top();
    if (!lane.pool->records[top.slot].cancelled) return;
    lane.queue.pop();
    lane.pool->release(top.slot);
  }
}

void Simulator::exec_top(std::uint32_t lane_index) {
  Lane& lane = lanes_[lane_index];
  const QueueEntry top = lane.queue.top();
  lane.queue.pop();
  lane.now = top.when;
  detail::EventRecord& rec = lane.pool->records[top.slot];
  lane.events_executed += rec.count;
  std::function<void()> fn = std::move(rec.fn);
  lane.pool->release(top.slot);
  ExecGuard guard(this, lane_index, /*in_window=*/false);
  fn();
}

void Simulator::run_lane_window(std::uint32_t lane_index, TimePoint wend,
                                TimePoint until) {
  Lane& lane = lanes_[lane_index];
  ExecGuard guard(this, lane_index, /*in_window=*/true);
  for (;;) {
    prune_cancelled(lane);
    if (lane.queue.empty()) return;
    const QueueEntry top = lane.queue.top();
    if (top.when >= wend || top.when > until) return;
    lane.queue.pop();
    lane.now = top.when;
    detail::EventRecord& rec = lane.pool->records[top.slot];
    lane.events_executed += rec.count;
    std::function<void()> fn = std::move(rec.fn);
    lane.pool->release(top.slot);
    fn();
  }
}

void Simulator::drain_outboxes() {
  for (Lane& src : lanes_) {
    for (OutboxEntry& msg : src.outbox) {
      push_event(lanes_[msg.target], msg.when, std::move(msg.fn), msg.count);
    }
    src.outbox.clear();
  }
}

void Simulator::run_until_sharded(TimePoint until) {
  // Barrier-equivalent state before the first window: caches the medium
  // reads in-window must be fresh before any lane runs concurrently.
  if (epoch_hook_) epoch_hook_();
  for (;;) {
    TimePoint window_start = TimePoint::max();
    for (Lane& lane : lanes_) {
      prune_cancelled(lane);
      if (!lane.queue.empty()) {
        window_start = std::min(window_start, lane.queue.top().when);
      }
    }
    if (window_start == TimePoint::max() || window_start > until) break;
    const TimePoint wend =
        window_start > TimePoint::max() - lookahead_
            ? TimePoint::max()
            : window_start + lookahead_;
    ++windows_run_;

    // A window containing a scenario-lane (lane 0) event runs fully
    // sequentially in global (when, lane, seq) order: lane-0 events --
    // Internet deliveries, provider/monitor timers, chaos actions -- may
    // touch any node's state, and serializing their windows makes that
    // correct without per-object locking. The decision depends only on
    // event content, never on thread count, so it cannot break identity.
    Lane& scenario = lanes_[0];
    const bool serial = !scenario.queue.empty() &&
                        scenario.queue.top().when < wend &&
                        scenario.queue.top().when <= until;
    if (serial) {
      ++windows_serialized_;
      for (;;) {
        std::uint32_t best = kNoLane;
        TimePoint best_when{};
        for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
          prune_cancelled(lanes_[l]);
          if (lanes_[l].queue.empty()) continue;
          const TimePoint w = lanes_[l].queue.top().when;
          if (w >= wend || w > until) continue;
          if (best == kNoLane || w < best_when) {
            best = l;
            best_when = w;
          }
        }
        if (best == kNoLane) break;
        exec_top(best);
      }
    } else {
      pool_->run(lanes_.size() - 1, [this, wend, until](std::size_t k) {
        run_lane_window(static_cast<std::uint32_t>(k + 1), wend, until);
      });
    }

    // Advance every lane to the window end (all remaining events are at or
    // beyond it -- see the window-exit conditions above), so barrier-time
    // reads (the epoch hook's mobile-position snapshot) observe a single
    // up-to-date clock instead of whichever lane last ran an event.
    const TimePoint barrier_now = std::min(wend, until);
    for (Lane& lane : lanes_) lane.now = std::max(lane.now, barrier_now);
    drain_outboxes();
    if (epoch_hook_) epoch_hook_();
  }
  for (Lane& lane : lanes_) lane.now = std::max(lane.now, until);
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.events_executed;
  return total;
}

void PeriodicTimer::start(Simulator& sim, Duration period,
                          std::function<void()> fn, Duration jitter) {
  stop();
  sim_ = &sim;
  period_ = period;
  jitter_ = jitter;
  fn_ = std::move(fn);
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  handle_.cancel();
  running_ = false;
}

void PeriodicTimer::arm() {
  Duration delay = period_;
  if (jitter_ > Duration::zero()) {
    delay += sim_->rng().jitter(-jitter_, jitter_);
    if (delay < Duration::zero()) delay = Duration::zero();
  }
  handle_ = sim_->schedule(delay, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm();
  });
}

}  // namespace siphoc::sim
