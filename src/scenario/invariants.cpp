#include "scenario/invariants.hpp"

#include "common/metrics.hpp"

namespace siphoc::scenario {

std::string InvariantViolation::to_string() const {
  return "[" + format_time(when) + "] " + invariant + ": " + detail;
}

std::string InvariantReport::to_string() const {
  std::string out = "invariant checks: " + std::to_string(checks) +
                    ", violations: " + std::to_string(violations.size()) +
                    "\n";
  for (const auto& v : violations) {
    out += "  " + v.to_string() + "\n";
  }
  return out;
}

InvariantMonitor::InvariantMonitor(Testbed& bed, const FaultEngine* engine)
    : bed_(bed), engine_(engine) {}

InvariantMonitor::~InvariantMonitor() { stop(); }

void InvariantMonitor::start(Duration period) {
  stop();
  arm(period);
}

void InvariantMonitor::stop() { tick_.cancel(); }

void InvariantMonitor::arm(Duration period) {
  // Fixed-period self-rescheduling (PeriodicTimer draws RNG jitter; the
  // monitor must observe without perturbing the packet schedule).
  tick_ = bed_.sim().schedule(period, [this, period] {
    check();
    arm(period);
  });
}

void InvariantMonitor::check() {
  ++report_.checks;
  bed_.ctx()
      .metrics()
      .counter("invariants.checks_total", "testbed", "invariants")
      .add();
  check_calls_terminate();
  check_transactions_bounded();
  check_slp_purges();
  check_reattaches();
  check_p2p_resolves();
}

void InvariantMonitor::violate(const char* invariant, const std::string& key,
                               std::string detail) {
  if (!reported_.insert(std::string(invariant) + "/" + key).second) return;
  report_.violations.push_back(
      {invariant, std::move(detail), bed_.sim().now()});
  bed_.ctx()
      .metrics()
      .counter("invariants.violations_total", "testbed", "invariants")
      .add();
}

void InvariantMonitor::check_calls_terminate() {
  const TimePoint now = bed_.sim().now();
  const Duration budget = sip::kTransactionTimeout + kGrace;
  for (std::size_t p = 0; p < bed_.phone_count(); ++p) {
    auto& ua = bed_.phone(p).user_agent();
    for (const auto& call : ua.call_snapshots()) {
      const bool pending =
          call.state == sip::UserAgent::CallState::kInviting ||
          call.state == sip::UserAgent::CallState::kRinging;
      if (pending && now - call.started > budget) {
        violate("calls-terminate",
                ua.config().aor.aor() + "/" + std::to_string(call.id),
                ua.config().aor.aor() + " call " + std::to_string(call.id) +
                    " stuck for " + format_time(TimePoint{} +
                                                (now - call.started)));
      }
    }
  }
}

void InvariantMonitor::check_transactions_bounded() {
  const TimePoint now = bed_.sim().now();
  // Worst case before a transaction must terminate: the 64*T1 timeout, plus
  // the longest linger timer (Timer D for client INVITE; server side
  // lingers at most T4 more).
  const Duration budget =
      sip::kTransactionTimeout + sip::kTimerD + sip::kT4 + kGrace;
  for (std::size_t p = 0; p < bed_.phone_count(); ++p) {
    const auto& txn = bed_.phone(p).user_agent().transactions();
    const Duration oldest = txn.oldest_transaction_age(now);
    if (oldest > budget) {
      violate("transactions-bounded",
              bed_.phone(p).user_agent().config().aor.aor(),
              bed_.phone(p).user_agent().config().aor.aor() +
                  " has a transaction alive for " +
                  format_time(TimePoint{} + oldest));
    }
  }
}

void InvariantMonitor::check_slp_purges() {
  const TimePoint now = bed_.sim().now();
  for (std::size_t i = 0; i < bed_.size(); ++i) {
    if (!bed_.node_alive(i)) continue;
    auto& slp = bed_.stack(i).slp();
    // Purging is traffic-driven (every lookup and every received SLP frame
    // purges first); the monitor acts as the next lookup, then asserts the
    // purge actually removed everything stale.
    slp.purge_expired();
    for (const auto& entry : slp.cache_contents()) {
      if (entry.expires <= now) {
        violate("slp-purges", bed_.host(i).name() + "/" + entry.key,
                bed_.host(i).name() + " still caches expired " +
                    entry.to_string());
      }
    }
  }
}

void InvariantMonitor::check_reattaches() {
  if (!engine_) return;
  const Duration interval =
      ConnectionProvider::kCheckInterval * static_cast<int>(kReattachChecks);
  if (!engine_->quiet_for(interval)) return;

  // A live gateway: a running stack on a host that still has its uplink.
  bool gateway_alive = false;
  for (std::size_t i = 0; i < bed_.size(); ++i) {
    if (bed_.node_alive(i) && bed_.host(i).has_wired()) gateway_alive = true;
  }
  if (!gateway_alive) return;

  for (std::size_t i = 0; i < bed_.size(); ++i) {
    if (!bed_.node_alive(i) || bed_.host(i).has_wired()) continue;
    if (!bed_.stack(i).connection_provider().internet_available()) {
      violate("reattaches", bed_.host(i).name(),
              bed_.host(i).name() +
                  " is offline despite a live gateway and " +
                  format_time(TimePoint{} + interval) + " of quiet air");
    }
  }
}

void InvariantMonitor::check_p2p_resolves() {
  if (!engine_ || !engine_->quiet_for(kP2pQuiet)) return;

  for (const auto& domain : bed_.p2p_domains()) {
    // Live ring members; stabilization has had its quiet window, so every
    // survivor's view must agree and every binding must sit (at least) on
    // the member now responsible for its key.
    std::vector<sip::P2pResolver*> live;
    for (auto* member : bed_.p2p_ring(domain)) {
      if (member != nullptr) live.push_back(member);
    }
    if (live.empty()) continue;

    for (std::size_t p = 0; p < bed_.phone_count(); ++p) {
      auto& phone = bed_.phone(p);
      if (!phone.registered()) continue;
      const auto& aor_uri = phone.user_agent().config().aor;
      if (aor_uri.host != domain) continue;
      const std::string aor = aor_uri.aor();

      // The responsible member: the live node whose id is the key's
      // clockwise successor (same arithmetic the resolvers route by).
      const std::uint64_t key = sip::P2pResolver::key_of(aor);
      sip::P2pResolver* owner = live.front();
      std::uint64_t best = owner->node_id() - key;
      for (auto* member : live) {
        const std::uint64_t d = member->node_id() - key;
        if (d < best) {
          best = d;
          owner = member;
        }
      }

      const auto binding = owner->stored(aor);
      if (!binding) {
        violate("p2p-resolves", aor,
                aor + " is registered but its responsible ring node holds "
                      "no binding after stabilization quiesced");
        continue;
      }
      // "No call routes to a dead contact": the stored contact must be an
      // address the Internet can actually deliver to right now.
      const auto contact_ep = binding->contact.numeric_endpoint();
      if (!contact_ep || !bed_.internet().attached(contact_ep->address)) {
        violate("p2p-resolves", aor + "/contact",
                aor + " resolves to unroutable contact " +
                    binding->contact.to_string());
      }
    }
  }
}

}  // namespace siphoc::scenario
