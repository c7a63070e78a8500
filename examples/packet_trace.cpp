// packet_trace: reproduces the paper's Figures 4 and 5.
//
// Figure 4 -- the MANET SLP process state after the proxy advertised the
//             user's contact address.
// Figure 5 -- "Snapshot of a packet analyzer showing an AODV route reply
//             with encapsulated SIP contact information."
//
// A medium tap plays the role of Wireshark: it decodes every AODV control
// packet on the air and, when one carries a MANET SLP extension block,
// prints the decoded service records and a hex dump of the frame payload.
#include <cstdio>

#include "common/metrics.hpp"
#include "routing/aodv_codec.hpp"
#include "scenario/scenario.hpp"
#include "slp/service.hpp"

using namespace siphoc;

int main() {
  scenario::Options options;
  options.nodes = 4;
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;
  options.routing = RoutingKind::kAodv;

  scenario::Testbed bed(options);

  int shown = 0;
  bed.medium().set_tap([&](const net::Frame& frame, TimePoint t) {
    if (frame.datagram.dst_port != net::kAodvPort) return;
    auto decoded = routing::aodv::decode(frame.datagram.payload);
    if (!decoded || decoded->extension.empty() || shown >= 6) return;
    auto block = slp::decode_extension(decoded->extension, t);
    if (!block || block->empty()) return;
    // Figure 5 is about SIP contact information; skip the gateway-discovery
    // floods the Connection Providers emit at boot.
    const auto mentions_sip = [&] {
      for (const auto& q : block->queries)
        if (q.type == slp::kSipContactService) return true;
      for (const auto& rep : block->replies)
        for (const auto& e : rep.entries)
          if (e.type == slp::kSipContactService) return true;
      for (const auto& a : block->advertisements)
        if (a.type == slp::kSipContactService) return true;
      return false;
    };
    if (!mentions_sip()) return;
    ++shown;

    std::printf("----- packet %d, t=%s -----------------------------------\n",
                shown, format_time(t).c_str());
    std::printf("%s  (from node %u)\n",
                routing::aodv::describe(decoded->message).c_str(),
                frame.src_mac);
    for (const auto& q : block->queries) {
      std::printf("  piggybacked SrvRqst: service:%s:%s (query id %u)\n",
                  q.type.c_str(), q.key.c_str(), q.id);
    }
    for (const auto& rep : block->replies) {
      for (const auto& e : rep.entries) {
        std::printf("  piggybacked SrvRply: %s\n", e.to_string().c_str());
      }
    }
    for (const auto& a : block->advertisements) {
      std::printf("  piggybacked advert : %s\n", a.to_string().c_str());
    }
    std::printf("  raw AODV payload (%zu bytes):\n%s\n",
                frame.datagram.payload.size(),
                hex_dump(frame.datagram.payload).c_str());
  });

  bed.start();
  auto& alice = bed.add_phone(0, "alice");
  auto& bob = bed.add_phone(3, "bob");
  bed.settle(seconds(2));

  bed.register_and_wait(alice);
  bed.register_and_wait(bob);

  std::printf("=== Figure 4: MANET SLP state on node 0 after REGISTER ===\n");
  std::printf("plugin: aodv (reactive piggyback: queries on RREQ, replies "
              "on RREP)\n");
  for (const auto& entry : bed.stack(0).slp().snapshot()) {
    std::printf("  %s\n", entry.to_string().c_str());
  }
  std::printf("\n=== Figure 5: routing packets with SLP payload during call "
              "setup ===\n\n");

  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  std::printf("call %s in %.1f ms; %d piggybacked routing packets captured\n",
              result.established ? "established" : "failed",
              to_millis(result.setup_time), shown);

  std::printf("\n=== Figure 4 (after call): node 0 learned Bob's contact ===\n");
  for (const auto& entry : bed.stack(0).slp().snapshot()) {
    std::printf("  %s\n", entry.to_string().c_str());
  }
  if (MetricsRegistry::write_file("packet_trace.metrics.json",
                                  bed.ctx().metrics().to_json())) {
    std::printf("\nmetrics sidecar: packet_trace.metrics.json\n");
  }
  return result.established ? 0 : 1;
}
