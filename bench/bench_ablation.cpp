// Ablation study of the SIPHoc design choices (DESIGN.md section 5).
//
// Four variants of the middleware run the identical workload (register two
// users on a 5-hop chain, then 5 calls with cold and warm caches):
//   full            -- shipping defaults (reactive plugin)
//   no-piggyback    -- RoutingHandler seam disabled: MANET SLP caches
//                      never fill; shows the mechanism is load-bearing
//   owner-only      -- intermediate nodes never answer queries from cache;
//                      every lookup flood must reach the binding's owner
//   hello-gossip    -- advertisements additionally ride AODV HELLOs
//                      (proactive hybrid): pays bytes on every beacon to
//                      warm caches before anyone asks
#include "bench_table.hpp"
#include "scenario/scenario.hpp"

using namespace siphoc;

namespace {

struct AblationRow {
  int calls_ok = 0;
  double first_setup_ms = -1;   // cold caches
  double later_setup_ms = 0;    // warm caches (mean of the rest)
  std::uint64_t extension_bytes = 0;
  std::uint64_t routing_frames = 0;
};

AblationRow run(const slp::ManetSlpConfig& slp_config, std::uint64_t seed) {
  scenario::Options options;
  options.seed = seed;
  options.nodes = 6;  // 5 hops
  options.topology = scenario::Topology::kChain;
  options.spacing = 100;
  options.routing = RoutingKind::kAodv;
  options.stack.slp = slp_config;

  scenario::Testbed bed(options);
  bed.start();
  voip::SoftPhoneConfig pc;
  pc.username = "alice";
  pc.domain = "voicehoc.ch";
  pc.answer_delay = Duration::zero();
  auto& alice = bed.add_phone(0, pc);
  pc.username = "bob";
  auto& bob = bed.add_phone(5, pc);
  bed.settle(seconds(3));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);
  bed.run_for(seconds(5));

  AblationRow row;
  std::vector<double> later;
  for (int i = 0; i < 5; ++i) {
    const auto call = bed.call_and_wait(alice, "bob@voicehoc.ch", seconds(10));
    if (call.established) {
      ++row.calls_ok;
      if (i == 0) {
        row.first_setup_ms = to_millis(call.setup_time);
      } else {
        later.push_back(to_millis(call.setup_time));
      }
      bed.run_for(seconds(1));
      alice.hang_up(call.call);
    }
    bed.run_for(seconds(4));
  }
  row.later_setup_ms = bench::mean(later);
  bed.finalize_metrics();
  row.extension_bytes =
      bed.ctx().metrics().counter_total("routing.piggyback_bytes_total");
  const auto& by_class = bed.medium().stats().by_class;
  if (const auto it = by_class.find(net::TrafficClass::kRouting);
      it != by_class.end()) {
    row.routing_frames = it->second.frames;
  }
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: SIPHoc design choices (5-hop chain, 2 users, 5 calls)",
      "cold = first call after registration; warm = subsequent calls;\n"
      "ext B = piggybacked bytes across all nodes over the whole run.");

  struct Variant {
    const char* name;
    slp::ManetSlpConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"full (default)", slp::ManetSlpConfig{}});
  {
    slp::ManetSlpConfig c;
    c.piggyback_enabled = false;
    variants.push_back({"no-piggyback", c});
  }
  {
    slp::ManetSlpConfig c;
    c.answer_from_cache = false;
    variants.push_back({"owner-only answers", c});
  }
  {
    slp::ManetSlpConfig c;
    c.advertise_on_aodv_hello = true;
    variants.push_back({"hello-gossip", c});
  }

  std::printf("%-20s | %6s | %9s | %9s | %8s | %9s\n", "variant", "ok",
              "cold ms", "warm ms", "ext B", "rt frames");
  std::printf("---------------------+--------+-----------+-----------+------"
              "----+-----------\n");
  for (const auto& v : variants) {
    const auto row = run(v.config, 2100);
    std::printf("%-20s | %4d/5 | %9.1f | %9.1f | %8llu | %9llu\n", v.name,
                row.calls_ok, row.first_setup_ms, row.later_setup_ms,
                static_cast<unsigned long long>(row.extension_bytes),
                static_cast<unsigned long long>(row.routing_frames));
  }
  std::printf(
      "\nreading: 'no-piggyback' fails every call -- the piggyback seam IS\n"
      "the system. 'owner-only' ties 'full' on this single-owner workload;\n"
      "it pays full-depth floods where caches could answer closer (visible\n"
      "with more callers). 'hello-gossip' nearly triples extension bytes\n"
      "for no setup win: AODV HELLOs only reach 1 hop and only carry local\n"
      "entries, so gossip cannot warm distant caches -- a negative result\n"
      "that justifies the default (gossip off, on-demand floods on).\n");
  return 0;
}
