// Recovery invariants: what must stay true of a SIPHoc deployment no matter
// which faults the chaos engine injects (docs/RESILIENCE.md, invariant
// catalog).
//
//   I1 calls-terminate      every started call leaves kInviting/kRinging
//                           within the SIP timeout budget (64*T1 + grace) --
//                           a call parked there is a black hole.
//   I2 transactions-bounded no SIP transaction outlives the RFC 3261 worst
//                           case (64*T1 plus the Timer D / Timer I linger).
//   I3 slp-purges           after a purge pass, no SLP cache anywhere holds
//                           an entry whose lifetime expired -- dead nodes'
//                           advertisements must age out, never be served.
//   I4 reattaches           while the air has been quiet for K connection-
//                           provider check intervals, every live non-gateway
//                           node is Internet-attached whenever a live
//                           gateway remains.
//   I5 p2p-resolves         once ring stabilization has quiesced (faults
//                           over, view steady, nobody suspect), every
//                           registered phone's AOR is stored at the live
//                           ring member responsible for it, and the stored
//                           contact routes to an address that is actually
//                           attached to the Internet -- no lost bindings,
//                           no calls into dead contacts.
//
// The monitor is read-only except for I3's purge pass (it acts as "the next
// lookup" on every node, since purging is traffic-driven) and draws nothing
// from the simulation RNG.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "scenario/faults.hpp"

namespace siphoc::scenario {

struct InvariantViolation {
  std::string invariant;  // "calls-terminate", "transactions-bounded", ...
  std::string detail;
  TimePoint when{};

  std::string to_string() const;
};

struct InvariantReport {
  std::uint64_t checks = 0;
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

class InvariantMonitor {
 public:
  /// Slack added on top of the SIP timeout budget for I1/I2.
  static constexpr Duration kGrace = seconds(10);
  /// I4 fires only after the engine reports this many connection-provider
  /// check intervals of quiet air.
  static constexpr std::size_t kReattachChecks = 4;
  /// I5 fires only after this much engine quiet (must exceed the rings'
  /// kStabilizeInterval * (kProbeTolerance + 1) so repair has quiesced).
  static constexpr Duration kP2pQuiet = seconds(8);

  /// `engine` gates I4 (no engine: I4 is only checked when you call
  /// check() yourself at a moment you know the air is clean -- pass the
  /// engine for soak runs).
  explicit InvariantMonitor(Testbed& bed,
                            const FaultEngine* engine = nullptr);
  ~InvariantMonitor();

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Runs every invariant once against the current state.
  void check();

  /// Checks periodically (fixed period, no RNG jitter) until stop().
  void start(Duration period);
  void stop();

  const InvariantReport& report() const { return report_; }

 private:
  void check_calls_terminate();
  void check_transactions_bounded();
  void check_slp_purges();
  void check_reattaches();
  void check_p2p_resolves();
  /// Records a violation once per (invariant, key) -- a call stuck for a
  /// minute is one black hole, not sixty.
  void violate(const char* invariant, const std::string& key,
               std::string detail);
  void arm(Duration period);

  Testbed& bed_;
  const FaultEngine* engine_;
  InvariantReport report_;
  std::set<std::string> reported_;
  sim::EventHandle tick_;
};

}  // namespace siphoc::scenario
