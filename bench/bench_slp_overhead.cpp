// Experiment E2: service-discovery control overhead vs network size.
//
// The SIPHoc claim under test: piggybacking service information onto
// routing messages makes MANET SLP (nearly) free -- the only cost is extra
// bytes inside packets the routing protocol sends anyway -- while classic
// multicast SLP [7] and proactive HELLO mapping [13] pay dedicated
// network-wide floods.
//
// Workload: an N-node grid; one service registered at the far corner; 10
// lookups issued from the near corner over 60 s. Reported per mechanism:
//   * dedicated discovery packets put on the air (whole network),
//   * extension bytes piggybacked inside routing packets (SIPHoc only),
//   * lookup success count.
#include "baselines/pico_sip.hpp"
#include "bench_table.hpp"
#include "routing/aodv.hpp"
#include "slp/manet_slp.hpp"
#include "slp/multicast_slp.hpp"

using namespace siphoc;

namespace {

enum class Mechanism { kManetSlp, kMulticastSlp, kPicoSip };

const char* name_of(Mechanism m) {
  switch (m) {
    case Mechanism::kManetSlp: return "MANET-SLP (piggyback)";
    case Mechanism::kMulticastSlp: return "multicast SLP [7]";
    case Mechanism::kPicoSip: return "proactive HELLO [13]";
  }
  return "?";
}

struct Row {
  std::uint64_t discovery_packets = 0;
  std::uint64_t discovery_bytes = 0;
  std::uint64_t piggyback_bytes = 0;
  int lookups_ok = 0;
};

Row run(Mechanism mechanism, std::size_t nodes, std::uint64_t seed,
        SimContext& ctx) {
  sim::Simulator sim(seed, &ctx);
  net::RadioMedium medium(sim, net::RadioConfig{});
  const auto positions = net::grid_positions(nodes, 90);

  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<routing::Aodv>> daemons;
  std::vector<std::unique_ptr<slp::Directory>> dirs;
  for (std::size_t i = 0; i < nodes; ++i) {
    hosts.push_back(std::make_unique<net::Host>(
        sim, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
    hosts.back()->attach_radio(
        medium,
        net::Address{net::kManetPrefix.value() +
                     static_cast<std::uint32_t>(i) + 1},
        std::make_shared<net::StaticMobility>(positions[i]));
    daemons.push_back(std::make_unique<routing::Aodv>(*hosts.back()));
    switch (mechanism) {
      case Mechanism::kManetSlp:
        dirs.push_back(std::make_unique<slp::ManetSlp>(
            *hosts.back(), *daemons.back()));
        break;
      case Mechanism::kMulticastSlp:
        dirs.push_back(std::make_unique<slp::MulticastSlp>(*hosts.back()));
        break;
      case Mechanism::kPicoSip:
        dirs.push_back(
            std::make_unique<baselines::PicoSipDirectory>(*hosts.back()));
        break;
    }
    daemons.back()->start();
  }
  sim.run_for(seconds(2));

  dirs[nodes - 1]->register_service("sip-contact", "bob@x",
                                    hosts[nodes - 1]->manet_address()
                                            .to_string() +
                                        ":5060",
                                    minutes(5));
  sim.run_for(seconds(2));
  medium.reset_stats();
  // ctx accumulates every run of the table: piggyback bytes are a delta.
  const std::uint64_t routing_ext_before =
      ctx.metrics().counter_total("routing.piggyback_bytes_total");

  Row row;
  for (int i = 0; i < 10; ++i) {
    bool done = false, ok = false;
    dirs[0]->lookup("sip-contact", "bob@x", seconds(5),
                    [&](std::optional<slp::ServiceEntry> e) {
                      done = true;
                      ok = e.has_value();
                    });
    const TimePoint deadline = sim.now() + seconds(6);
    while (!done && sim.now() < deadline) sim.run_for(milliseconds(10));
    if (ok) ++row.lookups_ok;
    sim.run_for(seconds(6));  // idle gap: proactive schemes keep paying
  }

  const auto& stats = medium.stats();
  const auto slp_class = stats.by_class.find(net::TrafficClass::kSlp);
  const auto other_class = stats.by_class.find(net::TrafficClass::kOther);
  // Multicast SLP rides the SLP port; the baselines use their own ports
  // (classified kOther). MANET SLP has no dedicated traffic at all.
  if (slp_class != stats.by_class.end()) {
    row.discovery_packets += slp_class->second.frames;
    row.discovery_bytes += slp_class->second.bytes;
  }
  if (other_class != stats.by_class.end()) {
    row.discovery_packets += other_class->second.frames;
    row.discovery_bytes += other_class->second.bytes;
  }
  row.piggyback_bytes =
      ctx.metrics().counter_total("routing.piggyback_bytes_total") -
      routing_ext_before;
  return row;
}

}  // namespace

int main() {
  // Every run below reports into this one context, so the sidecar covers
  // the whole table.
  SimContext ctx;
  bench::print_header(
      "E2: service discovery overhead vs network size",
      "grid topology, AODV routing underneath all mechanisms; workload =\n"
      "1 registration + 10 lookups + idle gaps over ~60 s virtual time.\n"
      "'disc pkts/bytes' = dedicated discovery frames on the air;\n"
      "'piggy B' = extension bytes inside existing routing packets.");

  std::printf("%6s | %-22s | %10s %12s %10s %6s\n", "nodes", "mechanism",
              "disc pkts", "disc bytes", "piggy B", "ok");
  std::printf("-------+------------------------+-----------+-------------+--"
              "---------+-------\n");
  for (const std::size_t nodes : {4u, 9u, 16u, 25u, 36u, 49u}) {
    for (const auto mechanism :
         {Mechanism::kManetSlp, Mechanism::kMulticastSlp,
          Mechanism::kPicoSip}) {
      const Row row = run(mechanism, nodes, 100 + nodes, ctx);
      std::printf("%6zu | %-22s | %10llu %12llu %10llu %5d/10\n", nodes,
                  name_of(mechanism),
                  static_cast<unsigned long long>(row.discovery_packets),
                  static_cast<unsigned long long>(row.discovery_bytes),
                  static_cast<unsigned long long>(row.piggyback_bytes),
                  row.lookups_ok);
    }
    std::printf("-------+------------------------+-----------+-------------+"
                "-----------+-------\n");
  }
  std::printf(
      "\nshape check: MANET SLP rides routing packets (0 dedicated frames;\n"
      "bytes grow only with answered queries); multicast SLP floods per\n"
      "lookup; the proactive HELLO scheme floods every interval whether or\n"
      "not anyone looks anything up.\n");
  bench::write_metrics_sidecar("bench_slp_overhead", ctx.metrics());
  return 0;
}
