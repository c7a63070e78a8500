// Experiment E1: SIP session establishment time vs hop count.
//
// Reproduces the headline measurement of the SIPHoc evaluation the paper
// defers to: how long from INVITE to established call over 1..8 wireless
// hops, for
//   * SIPHoc over AODV  (reactive: lookup+route ride one RREQ/RREP flood)
//   * SIPHoc over OLSR  (proactive: binding already cached, routes ready)
//   * flooding-SIP baseline [12] over AODV (dedicated broadcast floods)
// Expected shape: AODV setup grows with hop count (flood round trip);
// OLSR setup is flat and small (cache hit + existing route); the baseline
// tracks AODV but costs far more packets (reported alongside).
#include "baselines/flooding_sip.hpp"
#include "bench_table.hpp"
#include "scenario/parallel.hpp"
#include "scenario/scenario.hpp"

using namespace siphoc;

namespace {

struct Sample {
  double setup_ms = 0;
  double routing_packets = 0;
  double slp_packets = 0;
  bool ok = false;
};

/// One SIPHoc run: chain of hops+1 nodes, register both ends, call.
Sample run_siphoc(int hops, RoutingKind routing, std::uint64_t seed,
                  SimContext& ctx) {
  scenario::Options options;
  options.context = &ctx;
  options.seed = seed;
  options.nodes = static_cast<std::size_t>(hops) + 1;
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;
  options.routing = routing;

  scenario::Testbed bed(options);
  bed.start();
  voip::SoftPhoneConfig pc;
  pc.username = "alice";
  pc.domain = "voicehoc.ch";
  pc.answer_delay = Duration::zero();  // measure the network, not the ring
  auto& alice = bed.add_phone(0, pc);
  pc.username = "bob";
  auto& bob = bed.add_phone(bed.size() - 1, pc);
  // OLSR needs time to elect MPRs and flood TCs; AODV only needs HELLOs.
  bed.settle(routing == RoutingKind::kOlsr ? seconds(12) : seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  if (routing == RoutingKind::kOlsr) bed.run_for(seconds(8));

  const auto before = bed.medium().stats();
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  const auto after = bed.medium().stats();

  Sample s;
  s.ok = result.established;
  s.setup_ms = to_millis(result.setup_time);
  s.routing_packets = static_cast<double>(
      after.by_class.contains(net::TrafficClass::kRouting)
          ? after.by_class.at(net::TrafficClass::kRouting).frames
          : 0) -
      static_cast<double>(
          before.by_class.contains(net::TrafficClass::kRouting)
              ? before.by_class.at(net::TrafficClass::kRouting).frames
              : 0);
  return s;
}

/// Baseline: same chain, AODV routing, but the proxies resolve contacts via
/// the flooding-SIP directory instead of MANET SLP piggybacking.
Sample run_flooding_baseline(int hops, std::uint64_t seed, SimContext& ctx) {
  scenario::Options options;
  options.context = &ctx;
  options.seed = seed;
  options.nodes = static_cast<std::size_t>(hops) + 1;
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;
  options.routing = RoutingKind::kAodv;
  // Disable the SIPHoc piggyback plugin entirely: MANET SLP stays empty.
  options.stack.slp.piggyback_enabled = false;

  scenario::Testbed bed(options);
  bed.start();

  // Swap in the baseline directory + a second proxy instance per endpoint
  // node (on a different port the phones point at).
  const std::size_t last = bed.size() - 1;
  std::vector<std::unique_ptr<baselines::FloodingSipDirectory>> dirs;
  std::vector<std::unique_ptr<SiphocProxy>> proxies;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    dirs.push_back(
        std::make_unique<baselines::FloodingSipDirectory>(bed.host(i)));
    ProxyConfig pc;
    pc.port = 5061;
    proxies.push_back(
        std::make_unique<SiphocProxy>(bed.host(i), *dirs[i], pc));
  }

  voip::SoftPhoneConfig caller_config;
  caller_config.username = "alice";
  caller_config.domain = "voicehoc.ch";
  caller_config.answer_delay = Duration::zero();
  caller_config.outbound_proxy = {net::kLoopbackAddress, 5061};
  auto& alice = bed.add_phone(0, caller_config);
  voip::SoftPhoneConfig callee_config = caller_config;
  callee_config.username = "bob";
  auto& bob = bed.add_phone(last, callee_config);

  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  bed.run_for(seconds(2));  // let the registration floods propagate

  std::uint64_t flood_before = 0;
  for (const auto& d : dirs) flood_before += d->packets_sent();
  const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch");
  std::uint64_t flood_after = 0;
  for (const auto& d : dirs) flood_after += d->packets_sent();

  Sample s;
  s.ok = result.established;
  s.setup_ms = to_millis(result.setup_time);
  s.slp_packets = static_cast<double>(flood_after - flood_before);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "E1: session establishment time vs hop count",
      "chain topology, 100 m spacing, 120 m range; mean of 5 seeds.\n"
      "columns: setup time [ms] / call success");

  std::printf("%5s | %22s | %22s | %26s\n", "hops", "SIPHoc+AODV",
              "SIPHoc+OLSR", "flooding-SIP[12]+AODV");
  std::printf("%5s | %22s | %22s | %26s\n", "", "ms      ok", "ms      ok",
              "ms      ok");
  std::printf("------+------------------------+------------------------+--"
              "--------------------------\n");

  bench::JsonReport report("bench_call_setup");
  const int max_hops = args.quick ? 2 : 8;
  const int runs = args.quick ? 1 : 5;

  // Every (hops, variant, repeat) triple is one independent cell; results
  // land in a pre-sized grid indexed by submission order, so aggregation
  // below is identical no matter how many worker threads ran the cells.
  const int kVariants = 3;  // 0 = aodv, 1 = olsr, 2 = flooding baseline
  std::vector<Sample> samples(
      static_cast<std::size_t>(max_hops) * kVariants * runs);
  std::vector<scenario::Cell> cells;
  const bench::WallTimer wall;
  for (int hops = 1; hops <= max_hops; ++hops) {
    for (int r = 0; r < runs; ++r) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(r);
      const std::size_t base =
          (static_cast<std::size_t>(hops - 1) * runs + r) * kVariants;
      cells.push_back({seed, [&samples, base, hops, seed](SimContext& ctx) {
                         samples[base] =
                             run_siphoc(hops, RoutingKind::kAodv, seed, ctx);
                       }});
      cells.push_back({seed, [&samples, base, hops, seed](SimContext& ctx) {
                         samples[base + 1] =
                             run_siphoc(hops, RoutingKind::kOlsr, seed, ctx);
                       }});
      cells.push_back({seed, [&samples, base, hops, seed](SimContext& ctx) {
                         samples[base + 2] =
                             run_flooding_baseline(hops, seed, ctx);
                       }});
    }
  }
  const auto contexts = scenario::run_cells(std::move(cells), args.threads);

  for (int hops = 1; hops <= max_hops; ++hops) {
    std::vector<double> aodv_ms, olsr_ms, flood_ms;
    int aodv_ok = 0, olsr_ok = 0, flood_ok = 0;
    for (int r = 0; r < runs; ++r) {
      const std::size_t base =
          (static_cast<std::size_t>(hops - 1) * runs + r) * kVariants;
      if (samples[base].ok) {
        aodv_ms.push_back(samples[base].setup_ms);
        ++aodv_ok;
      }
      if (samples[base + 1].ok) {
        olsr_ms.push_back(samples[base + 1].setup_ms);
        ++olsr_ok;
      }
      if (samples[base + 2].ok) {
        flood_ms.push_back(samples[base + 2].setup_ms);
        ++flood_ok;
      }
    }
    std::printf("%5d | %12.1f  %3d/%-3d | %12.1f  %3d/%-3d | %16.1f  %3d/%-3d\n",
                hops, bench::mean(aodv_ms), aodv_ok, runs,
                bench::mean(olsr_ms), olsr_ok, runs, bench::mean(flood_ms),
                flood_ok, runs);
    report.add_row("hops/" + std::to_string(hops),
                   {{"hops", hops},
                    {"runs", runs},
                    {"aodv_setup_ms", bench::mean(aodv_ms)},
                    {"aodv_ok", aodv_ok},
                    {"olsr_setup_ms", bench::mean(olsr_ms)},
                    {"olsr_ok", olsr_ok},
                    {"flooding_setup_ms", bench::mean(flood_ms)},
                    {"flooding_ok", flood_ok}});
  }
  std::printf("\ngrid wall time: %.1f ms (%u thread%s)\n", wall.elapsed_ms(),
              args.threads, args.threads == 1 ? "" : "s");
  report.write(args.json_path);

  std::printf(
      "\nshape check (paper/SIPHoc claims):\n"
      "  * reactive (AODV) setup grows with hops: RREQ/RREP round trip\n"
      "  * proactive (OLSR) setup is flat: contact cached, route in FIB\n"
      "  * SIPHoc resolves contact and route in ONE flood; the broadcast\n"
      "    baseline pays separate network-wide floods\n");
  bench::write_merged_sidecar("bench_call_setup", contexts);
  return 0;
}
