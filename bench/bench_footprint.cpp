// Experiment E7: footprint.
//
// The paper (section 4): the C rewrite of the middleware "has a footprint
// of 1.2M. The system includes four services (proxy, Gateway Provider,
// Connection Provider and MANET SLP) ... This fits well into the flash
// memory of the iPAQ, which is 32M."
//
// Two measurements here:
//   * code footprint: the size of this statically linked binary, which
//     contains the entire middleware (all four services + routing + SIP +
//     RTP stacks) -- the analog of the paper's flash-footprint number;
//   * runtime state: bytes of live protocol state per component on a busy
//     25-node deployment (bindings, SLP caches, routes).
#include <sys/stat.h>

#include <fstream>
#include <sstream>

#include "bench_table.hpp"
#include "scenario/scenario.hpp"

using namespace siphoc;

namespace {

std::size_t entry_bytes(const slp::ServiceEntry& e) {
  return sizeof(e) + e.type.size() + e.key.size() + e.value.size();
}

struct StateReport {
  std::size_t slp_bytes = 0;
  std::size_t slp_entries = 0;
  std::size_t proxy_bindings = 0;
  std::size_t proxy_bytes = 0;
  std::size_t routes = 0;
  std::size_t route_bytes = 0;
};

/// Sum of this binary's loadable segments (text+rodata+data as mapped),
/// i.e. what would actually occupy device flash/RAM -- the build's debug
/// info inflates the on-disk file but would be stripped for an iPAQ image.
std::size_t mapped_binary_bytes() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  std::size_t total = 0;
  while (std::getline(maps, line)) {
    if (line.find("bench_footprint") == std::string::npos) continue;
    std::istringstream is(line);
    std::string range;
    is >> range;
    const auto dash = range.find('-');
    const auto lo = std::stoull(range.substr(0, dash), nullptr, 16);
    const auto hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    total += hi - lo;
  }
  return total;
}

StateReport measure_node(NodeStack& stack) {
  StateReport report;
  for (const auto& entry : stack.slp().snapshot()) {
    ++report.slp_entries;
    report.slp_bytes += entry_bytes(entry);
  }
  report.proxy_bindings = stack.proxy().binding_count();
  report.proxy_bytes =
      report.proxy_bindings * (sizeof(SiphocProxy::Binding) + 32);
  // The daemon holds the node's only copy of its routes; each is costed
  // at the record the daemon keeps for it.
  report.routes = stack.routing().route_count();
  report.route_bytes = report.routes * stack.routing().route_record_bytes();
  return report;
}

}  // namespace

int main(int, char** argv) {
  bench::print_header(
      "E7: footprint (paper section 4: 1.2 MB middleware on a 32 MB iPAQ)",
      "code footprint = this statically linked binary (entire middleware);\n"
      "state footprint = live protocol state on a loaded 25-node testbed.");

  struct stat st{};
  if (stat(argv[0], &st) == 0) {
    std::printf(
        "code footprint: %.2f MB loadable segments (text+rodata+data),\n"
        "  %.2f MB on disk incl. debug info; statically linked, includes\n"
        "  routing + SLP + SIP + RTP + tunnel + proxy\n"
        "paper's figure: 1.2 MB for the 4 services + ~20 shared libs\n\n",
        static_cast<double>(mapped_binary_bytes()) / (1024.0 * 1024.0),
        static_cast<double>(st.st_size) / (1024.0 * 1024.0));
  }

  scenario::Options options;
  options.nodes = 25;
  options.topology = scenario::Topology::kGrid;
  options.spacing = 90;
  options.routing = RoutingKind::kOlsr;  // proactive: fullest caches/routes
  scenario::Testbed bed(options);
  bed.start();
  std::vector<voip::SoftPhone*> phones;
  for (std::size_t i = 0; i < 10; ++i) {
    phones.push_back(&bed.add_phone(i, "user" + std::to_string(i)));
  }
  bed.settle(seconds(15));
  for (auto* p : phones) bed.register_and_wait(*p);
  bed.run_for(seconds(20));  // let advertisements converge everywhere

  std::printf("runtime state per node (25-node OLSR grid, 10 registered "
              "users):\n");
  std::printf("%5s | %10s %10s | %9s %9s | %7s %9s\n", "node", "slp ent",
              "slp B", "bindings", "proxy B", "routes", "route B");
  std::printf("------+-----------------------+---------------------+--------"
              "-----------\n");
  std::size_t total = 0;
  for (const std::size_t node : {0u, 6u, 12u, 18u, 24u}) {
    const auto r = measure_node(bed.stack(node));
    total += r.slp_bytes + r.proxy_bytes + r.route_bytes;
    std::printf("%5zu | %10zu %10zu | %9zu %9zu | %7zu %9zu\n", node,
                r.slp_entries, r.slp_bytes, r.proxy_bindings, r.proxy_bytes,
                r.routes, r.route_bytes);
  }
  std::printf(
      "\nmean state per sampled node: %.1f KB -- protocol state is\n"
      "kilobytes, i.e. negligible next to the code footprint, matching the\n"
      "paper's 'fits easily on a handheld' conclusion.\n",
      static_cast<double>(total) / 5.0 / 1024.0);
  return 0;
}
