// Quickstart: the paper's Figure 3 walkthrough, end to end.
//
// Two laptops in an ad hoc network, no server anywhere. Alice and Bob run
// out-of-the-box softphones configured exactly like the paper's Figure 2
// (account user@voicehoc.ch, outbound proxy = localhost). The example
// prints the eight steps of Figure 3 as they happen, then streams a few
// seconds of G.711 voice and reports call quality.
//
//   ./quickstart [hops]    (default 3: a 4-node chain, multihop like the
//                           firewall-separated testbed laptops)
#include <cstdio>
#include <string>

#include "scenario/scenario.hpp"

using namespace siphoc;

int main(int argc, char** argv) {
  const int hops = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  scenario::Options options;
  options.nodes = static_cast<std::size_t>(hops) + 1;
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;  // radio range 120 m -> only neighbors hear you
  options.routing = RoutingKind::kAodv;

  scenario::Testbed bed(options);
  // Uncomment for a full middleware log:
  // bed.ctx().log().use_stderr();
  // bed.ctx().log().set_level(LogLevel::kInfo);
  bed.start();
  std::printf("== SIPHoc quickstart: %zu nodes, %d hop(s), AODV ==\n\n",
              bed.size(), hops);

  // The five components of Figure 1 are now running on every node.
  std::printf("Each node runs: SIPHoc proxy, MANET SLP (piggyback plugin),\n"
              "Gateway Provider, Connection Provider. Phones attach via\n"
              "outbound proxy = 127.0.0.1:5060 (Figure 2 config).\n\n");

  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(bed.size() - 1, "bob");
  bed.settle(seconds(2));  // let routing daemons boot

  // Steps 1-2: Alice's phone registers; her proxy advertises via MANET SLP.
  const bool alice_ok = bed.register_and_wait(alice);
  std::printf("[step 1] alice@voicehoc.ch REGISTER -> local proxy: %s\n",
              alice_ok ? "200 OK" : "FAILED");
  std::printf("[step 2] proxy advertised contact in MANET SLP: %s\n",
              bed.stack(0).slp().snapshot().empty() ? "no" : "yes");

  // Steps 3-4: Bob does the same on the far node.
  const bool bob_ok = bed.register_and_wait(bob);
  std::printf("[step 3] bob@voicehoc.ch REGISTER -> local proxy: %s\n",
              bob_ok ? "200 OK" : "FAILED");
  std::printf("[step 4] proxy advertised contact in MANET SLP: %s\n\n",
              bed.stack(bed.size() - 1).slp().snapshot().empty() ? "no"
                                                                 : "yes");

  // Figure 4: the MANET SLP state on Bob's node.
  std::printf("MANET SLP state on node %zu (Figure 4):\n", bed.size() - 1);
  for (const auto& entry : bed.stack(bed.size() - 1).slp().snapshot()) {
    std::printf("  %s\n", entry.to_string().c_str());
  }
  std::printf("\n");

  // Steps 5-8: Alice calls Bob. INVITE -> local proxy -> SLP lookup
  // (piggybacked on an AODV RREQ flood) -> forwarded to Bob's proxy ->
  // delivered to Bob's phone, which rings and answers.
  std::printf("[step 5] alice dials bob@voicehoc.ch (INVITE -> local proxy)\n");
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  const auto slp_count = [&](const char* name) -> unsigned long long {
    const Counter* c = bed.ctx().metrics().find_counter(
        name, bed.host(0).name(), "slp");
    return c != nullptr ? c->value() : 0;
  };
  std::printf("[step 6] proxy consulted MANET SLP (lookups: %llu, hits: %llu)\n",
              slp_count("slp.lookups_total"),
              slp_count("slp.cache_hits_total") +
                  slp_count("slp.remote_resolves_total"));
  std::printf("[step 7] INVITE forwarded across the MANET\n");
  std::printf("[step 8] call %s after %.1f ms\n\n",
              result.established ? "ESTABLISHED" : "FAILED",
              to_millis(result.setup_time));
  if (!result.established) return 1;

  // Talk for a while, then hang up and report voice quality.
  std::printf("streaming G.711 voice for 10 s over %d hop(s)...\n", hops);
  bed.run_for(seconds(10));
  alice.hang_up(result.call);
  bed.run_for(seconds(1));

  if (const auto report = alice.call_report(result.call)) {
    std::printf("\nvoice quality at alice (listener side):\n");
    std::printf("  packets: %llu sent, %llu received, %llu lost, %llu late\n",
                static_cast<unsigned long long>(report->packets_sent),
                static_cast<unsigned long long>(report->packets_received),
                static_cast<unsigned long long>(report->packets_lost),
                static_cast<unsigned long long>(report->late_drops));
    std::printf("  delay: %.1f ms mean / %.1f ms max, jitter %.2f ms\n",
                report->mean_delay_ms, report->max_delay_ms,
                report->jitter_ms);
    std::printf("  E-model: R=%.1f  MOS=%.2f\n", report->quality.r_factor,
                report->quality.mos);
    if (report->remote_loss_percent) {
      std::printf("  far end heard our stream with %.2f%% loss (via RTCP)\n",
                  *report->remote_loss_percent);
    }
  }
  std::printf("\ncall ended. quickstart complete.\n");
  return 0;
}
