// emergency_response: the paper's emergency scenario (section 1) -- "MANETs
// are further envisioned as playing a significant role in emergency
// response situations in which the network infrastructure might temporarily
// be broken".
//
// A team of responders with mobile nodes spreads over an area. The fixed
// infrastructure is gone; calls run purely ad hoc. Midway, one vehicle
// regains an uplink (satellite/LTE), its Gateway Provider starts serving,
// every node's Connection Provider attaches through the tunnel, and a call
// to headquarters on the public Internet succeeds.
#include <cstdio>

#include "scenario/scenario.hpp"

using namespace siphoc;

int main() {
  scenario::Options options;
  options.nodes = 8;
  options.topology = scenario::Topology::kChain;  // a search line
  options.spacing = 95;
  options.routing = RoutingKind::kAodv;

  scenario::Testbed bed(options);
  // Headquarters: a SIP provider + an operator phone on the Internet.
  auto& provider = bed.add_provider("rescue.org");
  auto& hq_host = bed.add_internet_host("hq");
  voip::SoftPhoneConfig hq_config;
  hq_config.username = "hq";
  hq_config.domain = "rescue.org";
  // The Internet phone registers directly with its provider -- no MANET.
  hq_config.outbound_proxy = {
      *bed.internet().resolve("rescue.org"), 5060};
  hq_config.media_address = hq_host.wired_address();
  voip::SoftPhone hq(hq_host, hq_config);

  bed.start();
  std::printf("== emergency response: 8 mobile nodes, infrastructure down ==\n\n");

  auto& leader = bed.add_phone(0, "leader", "rescue.org");
  auto& medic = bed.add_phone(5, "medic", "rescue.org");
  bed.settle(seconds(2));

  // Phase 1: isolated MANET -- team-internal calls work without any server.
  bed.register_and_wait(leader);
  bed.register_and_wait(medic);
  const auto local = bed.call_and_wait(leader, "medic@rescue.org");
  std::printf("[phase 1] isolated MANET, leader -> medic (5 hops): %s "
              "(%.0f ms)\n",
              local.established ? "connected" : "FAILED",
              to_millis(local.setup_time));
  if (local.established) {
    bed.run_for(seconds(5));
    leader.hang_up(local.call);
    bed.run_for(seconds(1));
  }

  // Phase 2: node 3's vehicle regains an uplink.
  std::printf("\n[phase 2] node 3 regains an Internet uplink...\n");
  bed.make_gateway(3);
  hq.power_on();
  // Gateway Provider advertises, Connection Providers discover + tunnel.
  bed.run_for(seconds(15));
  std::printf("  gateway serving: %s, tunnel clients: %zu\n",
              bed.stack(3).gateway_provider().serving() ? "yes" : "no",
              bed.stack(3).gateway_provider().tunnel_server().client_count());
  std::printf("  leader online: %s   medic online: %s\n",
              bed.stack(0).internet_available() ? "yes" : "no",
              bed.stack(5).internet_available() ? "yes" : "no");

  // Re-register so the official rescue.org addresses reach the provider.
  bed.register_and_wait(leader);
  std::printf("  provider bindings at rescue.org: %zu\n",
              provider.binding_count());

  // Phase 3: call from the field to headquarters on the Internet.
  const auto uplink = bed.call_and_wait(leader, "hq@rescue.org");
  std::printf("\n[phase 3] leader -> hq@rescue.org (via gateway tunnel): %s "
              "(%.0f ms)\n",
              uplink.established ? "connected" : "FAILED",
              to_millis(uplink.setup_time));
  if (uplink.established) {
    bed.run_for(seconds(8));
    leader.hang_up(uplink.call);
    bed.run_for(seconds(1));
    if (const auto rep = leader.call_report(uplink.call)) {
      std::printf("  field<->HQ voice: %.1f ms mean delay, %.2f%% loss, "
                  "MOS %.2f\n",
                  rep->mean_delay_ms, rep->effective_loss_percent,
                  rep->quality.mos);
    }
  }

  // Phase 4: a call from the Internet into the MANET (paper section 3.2:
  // "also VoIP calls from the Internet to users in the MANET become
  // possible").
  struct Outcome {
    bool done = false, ok = false;
  } outcome;
  voip::SoftPhoneEvents events;
  events.on_established = [&](sip::CallId) { outcome = {true, true}; };
  events.on_failed = [&](sip::CallId, int) { outcome = {true, false}; };
  hq.set_events(std::move(events));
  const auto t0 = bed.sim().now();
  const auto call = hq.dial("leader@rescue.org");
  while (!outcome.done && bed.sim().now() < t0 + seconds(15)) {
    bed.run_for(milliseconds(10));
  }
  std::printf("\n[phase 4] hq -> leader@rescue.org (Internet into MANET): %s\n",
              outcome.ok ? "connected" : "FAILED");
  if (outcome.ok) {
    bed.run_for(seconds(5));
    hq.hang_up(call);
    bed.run_for(seconds(1));
  }

  const bool success = local.established && uplink.established && outcome.ok;
  std::printf("\nemergency scenario %s.\n",
              success ? "complete" : "had failures");
  return success ? 0 : 1;
}
