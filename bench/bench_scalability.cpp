// Experiment E9: scalability with network size -- the paper's explicit
// next step ("As a next step, we plan to explore the scalability of the
// system as the number of nodes grows", section 4).
//
// Networks of 10..80 nodes at constant density (area scales with N), with
// N/5 registered user pairs and one call attempt per pair. Reported per
// size and routing protocol: registration success, call success, mean
// setup time, and the control-plane load (routing + piggyback) per node
// per second during the workload.
#include <cmath>

#include "bench_table.hpp"
#include "scenario/parallel.hpp"
#include "scenario/scenario.hpp"

using namespace siphoc;

namespace {

struct ScaleRow {
  int pairs = 0;
  int calls_ok = 0;
  double setup_ms = 0;
  double control_frames_per_node_s = 0;
  double piggyback_bytes_per_node = 0;
  double events = 0;        // simulator events executed by the cell
};

ScaleRow run(std::size_t nodes, RoutingKind routing, std::uint64_t seed,
             SimContext& ctx, std::uint32_t regions, unsigned sim_threads) {
  scenario::Options options;
  options.context = &ctx;
  options.seed = seed;
  options.nodes = nodes;
  options.topology = scenario::Topology::kRandomArea;
  // Constant density: ~1 node per (75 m)^2 keeps the network connected
  // with the 120 m radio range at every size.
  options.area = 75.0 * std::sqrt(static_cast<double>(nodes));
  options.routing = routing;
  // --regions shards each cell's simulation (content: changes the rows);
  // --sim-threads is execution-only. bench_cityscale drives the >=1000-node
  // end of this curve with both.
  options.sim_regions = regions;
  options.sim_threads = sim_threads;

  scenario::Testbed bed(options);
  bed.start();

  const int pairs = static_cast<int>(nodes) / 5;
  std::vector<voip::SoftPhone*> callers, callees;
  for (int p = 0; p < pairs; ++p) {
    voip::SoftPhoneConfig pc;
    pc.domain = "voicehoc.ch";
    pc.answer_delay = Duration::zero();
    pc.username = "caller" + std::to_string(p);
    callers.push_back(&bed.add_phone(static_cast<std::size_t>(p), pc));
    pc.username = "callee" + std::to_string(p);
    callees.push_back(
        &bed.add_phone(nodes - 1 - static_cast<std::size_t>(p), pc));
  }
  bed.settle(routing == RoutingKind::kOlsr ? seconds(20) : seconds(5));
  for (auto* p : callers) bed.register_and_wait(*p);
  for (auto* p : callees) bed.register_and_wait(*p);
  if (routing == RoutingKind::kOlsr) bed.run_for(seconds(10));

  bed.medium().reset_stats();
  const TimePoint t0 = bed.sim().now();

  ScaleRow row;
  row.pairs = pairs;
  std::vector<double> setups;
  for (int p = 0; p < pairs; ++p) {
    const auto call = bed.call_and_wait(
        *callers[static_cast<std::size_t>(p)],
        "callee" + std::to_string(p) + "@voicehoc.ch", seconds(10));
    if (call.established) {
      ++row.calls_ok;
      setups.push_back(to_millis(call.setup_time));
    }
  }
  bed.run_for(seconds(10));  // calls talking concurrently
  const double window_s = to_seconds(bed.sim().now() - t0);

  row.setup_ms = bench::mean(setups);
  const auto& by_class = bed.medium().stats().by_class;
  if (const auto it = by_class.find(net::TrafficClass::kRouting);
      it != by_class.end()) {
    row.control_frames_per_node_s = static_cast<double>(it->second.frames) /
                                    static_cast<double>(nodes) / window_s;
  }
  row.events = static_cast<double>(bed.sim().events_executed());
  bed.finalize_metrics();  // fold region-lane registries before reading
  const std::uint64_t ext =
      ctx.metrics().counter_total("routing.piggyback_bytes_total");
  row.piggyback_bytes_per_node =
      static_cast<double>(ext) / static_cast<double>(nodes);
  return row;
}

void add_json_row(bench::JsonReport& report, const char* routing,
                  std::size_t nodes, const ScaleRow& row) {
  report.add_row(std::string(routing) + "/" + std::to_string(nodes),
                 {{"nodes", static_cast<double>(nodes)},
                  {"pairs", row.pairs},
                  {"calls_ok", row.calls_ok},
                  {"setup_ms", row.setup_ms},
                  {"ctrl_frames_per_node_s", row.control_frames_per_node_s},
                  {"piggyback_bytes_per_node", row.piggyback_bytes_per_node},
                  {"events", row.events}});
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "E9: scalability with network size (the paper's stated next step)",
      "random area at constant density, N/5 caller/callee pairs, one call\n"
      "per pair + 10 s of concurrent voice. 'ctrl f/n/s' = routing-plane\n"
      "frames per node per second during the workload.");

  std::printf("%6s | %28s | %28s\n", "nodes", "SIPHoc+AODV", "SIPHoc+OLSR");
  std::printf("%6s | %8s %9s %9s | %8s %9s %9s\n", "", "calls", "setup",
              "ctrl f/n/s", "calls", "setup", "ctrl f/n/s");
  std::printf("-------+------------------------------+--------------------"
              "----------\n");
  bench::JsonReport report("bench_scalability");
  const std::vector<std::size_t> sizes =
      args.quick ? std::vector<std::size_t>{10} : std::vector<std::size_t>{
                                                      10, 20, 40, 80};

  // One cell per (size, protocol): every cell simulates in its own
  // SimContext, so the grid fans across worker threads and still prints /
  // exports in submission order (byte-identical for any --threads value).
  std::vector<ScaleRow> rows(sizes.size() * 2);
  std::vector<scenario::Cell> cells;
  const bench::WallTimer wall;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t nodes = sizes[i];
    cells.push_back({3000 + nodes, [&rows, i, nodes, &args](SimContext& ctx) {
                       rows[2 * i] =
                           run(nodes, RoutingKind::kAodv, 3000 + nodes, ctx,
                               args.regions, args.sim_threads);
                     }});
    cells.push_back({3000 + nodes, [&rows, i, nodes, &args](SimContext& ctx) {
                       rows[2 * i + 1] =
                           run(nodes, RoutingKind::kOlsr, 3000 + nodes, ctx,
                               args.regions, args.sim_threads);
                     }});
  }
  const auto contexts = scenario::run_cells(std::move(cells), args.threads);

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t nodes = sizes[i];
    const ScaleRow& aodv = rows[2 * i];
    const ScaleRow& olsr = rows[2 * i + 1];
    std::printf("%6zu | %4d/%-3d %7.1fms %9.2f | %4d/%-3d %7.1fms %9.2f\n",
                nodes, aodv.calls_ok, aodv.pairs, aodv.setup_ms,
                aodv.control_frames_per_node_s, olsr.calls_ok, olsr.pairs,
                olsr.setup_ms, olsr.control_frames_per_node_s);
    add_json_row(report, "aodv", nodes, aodv);
    add_json_row(report, "olsr", nodes, olsr);
  }
  std::printf("\ngrid wall time: %.1f ms (%u thread%s)\n", wall.elapsed_ms(),
              args.threads, args.threads == 1 ? "" : "s");
  report.write(args.json_path);
  bench::write_merged_sidecar("bench_scalability", contexts);
  std::printf(
      "\nshape check: call success and setup time hold up as the network\n"
      "grows at constant density (setup tracks the growing diameter).\n"
      "Control load is workload-dependent: during this call-heavy window\n"
      "AODV pays a network-wide discovery flood per call (N/5 calls -> per-\n"
      "node load grows with N), while OLSR's proactive load is lower here\n"
      "but never goes away -- compare E8c, where the *idle* ordering\n"
      "reverses. That pairing is the reactive/proactive scalability trade\n"
      "the paper's deferred evaluation would have reported.\n");
  return 0;
}
