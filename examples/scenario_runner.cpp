// scenario_runner: drive a SIPHoc deployment from a scenario script.
//
// The paper was presented as a live demo; this tool is the repeatable
// version of that demo. It reads a small line-oriented script (or runs a
// built-in one) describing a MANET, phones, and a sequence of actions, and
// narrates what happens -- with optional live packet decoding.
//
//   ./scenario_runner            # run the built-in demo script
//   ./scenario_runner my.scn     # run a script file
//
// Options:
//   --metrics PATH       write the metrics sidecar (JSON, siphoc.metrics.v1)
//   --metrics-csv PATH   same registry contents as CSV
//   --sweep seeds=K      run the script K times; cell k simulates with seed
//                        derive_seed(script seed, k) in its own SimContext.
//                        Narration prints per cell in seed order and the
//                        metrics sidecars become the merged registries of
//                        all cells ("merged_cells": K).
//   --threads T          worker threads for --sweep (default 1); output is
//                        byte-identical for every T
//   --sim-threads N      worker threads *inside* each simulation (region
//                        sharding; needs a `regions` script line). Pure
//                        execution policy: output is byte-identical for
//                        every N (docs/ARCHITECTURE.md)
//   --faults FILE        apply a FaultPlan file (docs/RESILIENCE.md format)
//                        to the scripted scenario; recovery invariants are
//                        monitored and violations fail the run
//   --chaos seed=N duration=D [p2p=R]
//                        ignore the script: run the built-in chaos soak --
//                        a 6-node MANET with two gateways and a call
//                        workload under a fault plan generated from seed N
//                        (byte-reproducible; non-zero exit on any invariant
//                        violation or corrupted-frame acceptance). p2p=R
//                        backs the provider with a Chord-lite ring of R
//                        dedicated members; the plan then also crashes and
//                        restarts a ring member, I5 (p2p-resolves) is
//                        asserted, and lookup success after stabilization
//                        must be 100%. Byte-reproducible for any
//                        --sim-threads.
//
// Script commands (one per line; '#' starts a comment):
//   nodes N chain|grid|random SPACING aodv|olsr   -- build the MANET
//   seed VALUE                                    -- RNG seed (before nodes)
//   regions R                                     -- shard the simulation
//                                                    into R spatial regions
//                                                    (before nodes; changes
//                                                    results like seed does;
//                                                    disables live tracing;
//                                                    R <= 1 does not shard)
//   gateway NODE                                  -- wired uplink on a node
//   provider DOMAIN [p2p N | shards N]            -- Internet SIP provider;
//                                                    `p2p N` resolves through
//                                                    a Chord-lite ring of N
//                                                    extra nodes, `shards N`
//                                                    uses the N-shard binding
//                                                    store
//   phone NODE USER DOMAIN                        -- out-of-the-box phone,
//                                                    one per node: a node's
//                                                    phone owns its SIP
//                                                    port, so a second one
//                                                    is refused and counted
//                                                    as an error (non-zero
//                                                    exit)
//   settle SECONDS                                -- let protocols converge
//   register USER                                 -- power on + REGISTER
//   call USER TARGET-AOR                          -- place + await a call
//   text USER TARGET-AOR MESSAGE...               -- send an instant message
//   wait SECONDS                                  -- run the simulation
//   hangup USER                                   -- end USER's last call
//   slp NODE                                      -- dump a node's SLP view
//   trace on|off                                  -- live packet decoding
// NODE is an index into the MANET; an index past its last node is reported
// as a script error (non-zero exit).
#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/context.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "scenario/faults.hpp"
#include "scenario/invariants.hpp"
#include "scenario/parallel.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

using namespace siphoc;

namespace {

const char kBuiltinScript[] = R"(# built-in demo: Figure 3 + a text message
seed 7
nodes 4 chain 100 aodv
phone 0 alice voicehoc.ch
phone 3 bob voicehoc.ch
settle 3
register alice
register bob
slp 3
call alice bob@voicehoc.ch
wait 5
text bob alice@voicehoc.ch voice works, texting too
wait 2
hangup alice
wait 1
)";

struct Runner {
  std::unique_ptr<scenario::Testbed> bed;
  std::unique_ptr<scenario::TraceRecorder> trace;
  // Declared after `bed` so they are destroyed first (the engine unhooks
  // the medium's link filter in its destructor).
  std::unique_ptr<scenario::FaultEngine> engine;
  std::unique_ptr<scenario::InvariantMonitor> monitor;
  const scenario::FaultPlan* fault_plan = nullptr;
  bool trace_live = false;
  std::map<std::string, voip::SoftPhone*> phones;
  std::map<std::string, std::size_t> phone_nodes;  // user -> testbed node
  std::map<std::string, sip::CallId> last_call;
  std::uint64_t seed = 42;
  std::uint32_t regions = 0;   // `regions` script line; simulation content
  unsigned sim_threads = 1;    // --sim-threads; pure execution policy
  std::atomic<int> errors{0};
  // Run plumbing: narration goes to `out` (a memstream when the runner is
  // one cell of a --sweep), every testbed simulates inside `ctx`, and a
  // cell's seed is derive_seed(script seed, cell index) so cells stay
  // decorrelated no matter what the script's `seed` line says.
  FILE* out = stdout;
  SimContext* ctx = nullptr;
  bool sweep = false;
  std::uint64_t cell_index = 0;
  std::uint64_t effective_seed = 0;

  // Sharded narration (docs/ARCHITECTURE.md): softphone callbacks fire on
  // region lanes, potentially on worker threads, so they must not write to
  // `out` directly. say() appends to the calling lane's buffer (no two
  // lanes share one, so no lock) stamped with virtual time, and
  // flush_narration() replays everything in (time, lane) order at the next
  // command boundary -- byte-identical output for any --sim-threads.
  // Unsharded runs print straight through, exactly as before.
  struct Narration {
    TimePoint when;
    std::uint32_t lane = 0;
    std::string text;
  };
  std::vector<std::vector<Narration>> pending_lines;

#if defined(__GNUC__)
  __attribute__((format(printf, 2, 3)))
#endif
  void say(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (bed && bed->sim().sharded()) {
      const std::uint32_t lane = bed->sim().current_lane();
      pending_lines[lane].push_back({bed->sim().now(), lane, buf});
      return;
    }
    std::fputs(buf, out);
  }

  void flush_narration() {
    std::vector<Narration> all;
    for (auto& lines : pending_lines) {
      all.insert(all.end(), std::make_move_iterator(lines.begin()),
                 std::make_move_iterator(lines.end()));
      lines.clear();
    }
    // stable: per-lane insertion order survives as the (when, lane) tie-break.
    std::stable_sort(all.begin(), all.end(),
                     [](const Narration& a, const Narration& b) {
                       return a.when != b.when ? a.when < b.when
                                               : a.lane < b.lane;
                     });
    for (const auto& line : all) std::fputs(line.text.c_str(), out);
  }

  std::uint64_t pick_seed() {
    effective_seed = sweep ? SimContext::derive_seed(seed, cell_index) : seed;
    return effective_seed;
  }

  void fail(const std::string& why) {
    say("  !! %s\n", why.c_str());
    ++errors;
  }

  /// False, after reporting a script error, when `node` is not a node of
  /// the current MANET.
  bool valid_node(std::size_t node) {
    if (bed && node < bed->size()) return true;
    fail("bad node " + std::to_string(node));
    return false;
  }

  scenario::Options base_options() {
    scenario::Options o;
    o.context = ctx;
    o.seed = pick_seed();
    o.sim_regions = regions;
    o.sim_threads = sim_threads;
    return o;
  }

  void ensure_bed() {
    if (!bed) {
      bed = std::make_unique<scenario::Testbed>(base_options());
      pending_lines.assign(bed->sim().lane_count(), {});
    }
  }

  void run_line(const std::string& raw) {
    std::string line = raw.substr(0, raw.find('#'));
    std::istringstream is(line);
    std::string cmd;
    if (!(is >> cmd)) return;
    std::fprintf(out, "> %s\n", std::string(trim(line)).c_str());

    if (cmd == "seed") {
      is >> seed;
    } else if (cmd == "regions") {
      is >> regions;
    } else if (cmd == "nodes") {
      std::size_t n = 2;
      std::string topo = "chain", routing = "aodv";
      double spacing = 100;
      is >> n >> topo >> spacing >> routing;
      scenario::Options o = base_options();
      o.nodes = n;
      o.spacing = spacing;
      o.topology = topo == "grid"     ? scenario::Topology::kGrid
                   : topo == "random" ? scenario::Topology::kRandomArea
                                      : scenario::Topology::kChain;
      o.routing = routing == "olsr" ? RoutingKind::kOlsr : RoutingKind::kAodv;
      monitor.reset();
      engine.reset();
      trace.reset();
      bed = std::make_unique<scenario::Testbed>(o);
      pending_lines.assign(bed->sim().lane_count(), {});
      if (!bed->sim().sharded()) {
        // The recorder taps every frame on the medium; with region lanes
        // running concurrently that tap would race, so sharded runs skip it.
        trace = std::make_unique<scenario::TraceRecorder>(bed->medium());
      }
      bed->start();
      std::fprintf(out, "  %zu nodes, %s, %s routing\n", n, topo.c_str(),
                   routing.c_str());
      // Note: the banner must not mention --sim-threads; output is
      // promised byte-identical across thread counts.
      if (bed->sim().sharded()) {
        std::fprintf(out, "  %u region lanes\n", bed->sim().lane_count() - 1);
      }
      if (fault_plan) {
        engine = std::make_unique<scenario::FaultEngine>(*bed);
        monitor =
            std::make_unique<scenario::InvariantMonitor>(*bed, engine.get());
        engine->apply(*fault_plan);
        monitor->start(seconds(1));
        std::fprintf(out, "  fault plan armed: %zu event(s)\n",
                     fault_plan->events.size());
      }
    } else if (cmd == "gateway") {
      ensure_bed();
      std::size_t node = 0;
      is >> node;
      if (!valid_node(node)) return;
      bed->make_gateway(node);
    } else if (cmd == "provider") {
      ensure_bed();
      std::string domain;
      is >> domain;
      scenario::Testbed::ProviderOptions opts;
      std::string backend;
      if (is >> backend) {
        std::size_t n = 0;
        is >> n;
        if (backend == "p2p") {
          opts.resolution = scenario::Testbed::Resolution::kP2p;
          if (n > 0) opts.p2p_nodes = n;
        } else if (backend == "shards") {
          opts.store_shards = n;
        }
      }
      bed->add_provider(domain, opts);
    } else if (cmd == "phone") {
      ensure_bed();
      std::size_t node = 0;
      std::string user, domain;
      is >> node >> user >> domain;
      if (!valid_node(node)) return;
      voip::SoftPhone* phone = nullptr;
      try {
        phone = &bed->add_phone(node, user, domain);
      } catch (const std::logic_error& refused) {
        return fail("phone " + user + " refused: " + refused.what());
      }
      voip::SoftPhoneEvents ev;
      ev.on_incoming = [this, user](sip::CallId, const sip::Uri& from) {
        say("  [%s] ringing: call from %s\n", user.c_str(),
            from.aor().c_str());
      };
      ev.on_text = [this, user](const sip::Uri& from,
                                const std::string& text) {
        say("  [%s] text from %s: \"%s\"\n", user.c_str(),
            from.aor().c_str(), text.c_str());
      };
      ev.on_ended = [this, user](sip::CallId) {
        say("  [%s] call ended\n", user.c_str());
      };
      phone->set_events(std::move(ev));
      phones[user] = phone;
      phone_nodes[user] = node;
    } else if (cmd == "settle" || cmd == "wait") {
      ensure_bed();
      double s = 1;
      is >> s;
      bed->run_for(std::chrono::duration_cast<Duration>(
          std::chrono::duration<double>(s)));
      flush_narration();
    } else if (cmd == "register") {
      std::string user;
      is >> user;
      const auto it = phones.find(user);
      if (it == phones.end()) return fail("unknown phone " + user);
      const bool ok = bed->register_and_wait(*it->second);
      flush_narration();
      std::fprintf(out, "  [%s] REGISTER -> %s\n", user.c_str(),
                   ok ? "200 OK" : "FAILED");
      if (!ok) ++errors;
    } else if (cmd == "call") {
      std::string user, target;
      is >> user >> target;
      const auto it = phones.find(user);
      if (it == phones.end()) return fail("unknown phone " + user);
      const auto result = bed->call_and_wait(*it->second, target);
      flush_narration();
      if (result.established) {
        last_call[user] = result.call;
        std::fprintf(out, "  [%s] call to %s established in %.1f ms\n",
                     user.c_str(), target.c_str(),
                     to_millis(result.setup_time));
      } else {
        fail("call failed with status " +
             std::to_string(result.failure_status));
      }
    } else if (cmd == "text") {
      std::string user, target;
      is >> user >> target;
      std::string text;
      std::getline(is, text);
      const auto it = phones.find(user);
      if (it == phones.end()) return fail("unknown phone " + user);
      sim::Simulator::LaneScope lane(bed->sim(),
                                     bed->node_lane(phone_nodes.at(user)));
      it->second->send_text(target, std::string(trim(text)),
                            [this](bool ok, int status) {
                              if (!ok) {
                                fail("text delivery failed (" +
                                     std::to_string(status) + ")");
                              }
                            });
    } else if (cmd == "hangup") {
      std::string user;
      is >> user;
      const auto it = last_call.find(user);
      if (it == last_call.end()) return fail("no call to hang up");
      {
        sim::Simulator::LaneScope lane(bed->sim(),
                                       bed->node_lane(phone_nodes.at(user)));
        phones.at(user)->hang_up(it->second);
      }
      if (const auto rep = phones.at(user)->call_report(it->second)) {
        std::fprintf(out, "  [%s] call quality: MOS %.2f, %.2f%% loss\n",
                     user.c_str(), rep->quality.mos,
                     rep->effective_loss_percent);
      }
    } else if (cmd == "slp") {
      std::size_t node = 0;
      is >> node;
      if (!valid_node(node)) return;
      std::fprintf(out, "  MANET SLP on node %zu:\n", node);
      for (const auto& e : bed->stack(node).slp().snapshot()) {
        std::fprintf(out, "    %s\n", e.to_string().c_str());
      }
    } else if (cmd == "trace") {
      std::string mode;
      is >> mode;
      trace_live = mode == "on";
      if (trace_live && bed && bed->sim().sharded()) {
        std::fprintf(out,
                     "  (live tracing unavailable in sharded runs; use "
                     "regions 0)\n");
        trace_live = false;
      }
      if (!trace_live && trace) {
        std::fprintf(out, "  (captured %zu frames)\n", trace->captured());
      }
    } else {
      fail("unknown command '" + cmd + "'");
    }
  }

  /// Final accounting: drain buffered narration, fold region-lane metrics
  /// into the exportable registry, then one last invariant sweep, the
  /// engine's narration, and violations counted as errors.
  void finish() {
    flush_narration();
    if (bed) bed->finalize_metrics();
    if (!monitor) return;
    monitor->stop();
    monitor->check();
    for (const auto& line : engine->narration()) {
      std::fprintf(out, "  %s\n", line.c_str());
    }
    std::fprintf(out, "%s", monitor->report().to_string().c_str());
    errors += static_cast<int>(monitor->report().violations.size());
  }
};

/// The --chaos soak: a six-node chain with gateways at both ends, a call
/// workload between two protected nodes, and a seed-derived fault plan
/// tormenting everything else. All output is virtual-time only, so a given
/// seed reproduces byte for byte -- including across --sim-threads in the
/// p2p variant, whose region count is pinned (simulation content) while
/// the thread count stays pure execution policy.
int run_chaos(std::uint64_t seed, double duration_s, std::size_t p2p_nodes,
              unsigned sim_threads, const std::string& metrics_path,
              const std::string& metrics_csv_path) {
  using scenario::FaultEngine;
  using scenario::FaultPlan;
  using scenario::InvariantMonitor;
  const auto duration = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(duration_s));
  std::printf("== chaos soak: seed %llu, %.0f s of faults%s ==\n",
              static_cast<unsigned long long>(seed), duration_s,
              p2p_nodes > 0 ? ", P2P provider" : "");

  scenario::Options o;
  o.seed = seed;
  o.nodes = 6;
  o.topology = scenario::Topology::kChain;
  o.spacing = 80;
  if (p2p_nodes > 0) {
    // Pinned region count (content, like seed); --sim-threads then only
    // changes who executes the lanes, never what happens.
    o.sim_regions = 2;
    o.sim_threads = sim_threads;
  }
  scenario::Testbed bed(o);
  bed.make_gateway(0);
  bed.make_gateway(5);
  if (p2p_nodes > 0) {
    scenario::Testbed::ProviderOptions po;
    po.resolution = scenario::Testbed::Resolution::kP2p;
    po.p2p_nodes = p2p_nodes;
    bed.add_provider("voicehoc.ch", po);
  }
  bed.start();
  auto& alice = bed.add_phone(1, "alice");
  auto& bob = bed.add_phone(4, "bob");
  bed.settle(seconds(5));
  bed.register_and_wait(alice);
  bed.register_and_wait(bob);

  // Nodes 1 and 4 carry the phones and stay up; everything else is fair
  // game for the plan. In p2p mode the gateways are protected too -- ring
  // churn is the subject under test, and stable gateways keep the phones'
  // tunnel contacts fixed so I5's dead-contact check bites on the ring,
  // not on gateway failover. The plan then also crashes and restarts one
  // dedicated ring member.
  const std::vector<std::size_t> protected_nodes =
      p2p_nodes > 0 ? std::vector<std::size_t>{0, 1, 4, 5}
                    : std::vector<std::size_t>{1, 4};
  const FaultPlan plan =
      FaultPlan::generate(seed, duration, o.nodes, protected_nodes,
                          p2p_nodes);
  std::printf("-- fault plan (reproduce with the same seed) --\n%s",
              plan.to_string().c_str());

  FaultEngine engine(bed);
  InvariantMonitor monitor(bed, &engine);
  engine.apply(plan);
  monitor.start(seconds(1));

  std::size_t attempts = 0;
  std::size_t established = 0;
  const TimePoint end = bed.sim().now() + duration;
  while (bed.sim().now() < end) {
    ++attempts;
    const auto result = bed.call_and_wait(alice, "bob@voicehoc.ch",
                                          seconds(8));
    if (result.established) {
      ++established;
      bed.run_for(seconds(3));
      alice.hang_up(result.call);
    }
    bed.run_for(seconds(2));
  }

  // The generated plan always restores the network; give the stacks quiet
  // air to recover in, then demand they actually did.
  bed.run_for(seconds(45));
  monitor.stop();
  monitor.check();

  // P2P acceptance: after stabilization quiesced, every registered AOR
  // must resolve through the ring's front door -- 100%, not "mostly".
  int p2p_failures = 0;
  if (p2p_nodes > 0) {
    const auto ring = bed.p2p_ring("voicehoc.ch");
    std::size_t alive = 0;
    for (const auto* member : ring) alive += member != nullptr ? 1 : 0;
    std::printf("-- p2p ring: %zu/%zu members live --\n", alive,
                ring.size());
    if (alive != ring.size()) ++p2p_failures;

    std::size_t lookups = 0;
    std::size_t hits = 0;
    for (const char* aor : {"alice@voicehoc.ch", "bob@voicehoc.ch"}) {
      bool done = false;
      bool hit = false;
      ring.front()->resolve(aor,
                            [&](std::optional<sip::ContactBinding> binding,
                                int) {
                              done = true;
                              hit = binding.has_value();
                            });
      const TimePoint deadline = bed.sim().now() + seconds(3);
      while (!done && bed.sim().now() < deadline) {
        bed.run_for(milliseconds(50));
      }
      ++lookups;
      hits += hit ? 1 : 0;
      std::printf("  resolve %s: %s\n", aor, hit ? "found" : "MISS");
    }
    std::printf("p2p lookup success after stabilization: %zu/%zu\n", hits,
                lookups);
    if (hits != lookups) ++p2p_failures;
  }

  std::printf("-- applied faults --\n");
  for (const auto& line : engine.narration()) {
    std::printf("  %s\n", line.c_str());
  }
  const auto& ms = bed.medium().stats();
  std::printf(
      "workload: %zu call attempts, %zu established (failures during fault "
      "epochs are expected)\n",
      attempts, established);
  std::printf(
      "injected: %llu corrupted, %llu duplicated, %llu reordered frames\n",
      static_cast<unsigned long long>(ms.frames_corrupted),
      static_cast<unsigned long long>(ms.frames_duplicated),
      static_cast<unsigned long long>(ms.frames_reordered));

  int failures = static_cast<int>(monitor.report().violations.size()) +
                 p2p_failures;
  // Fold the region-lane registries (p2p mode) before reading or exporting.
  bed.finalize_metrics();
  const auto accepted =
      bed.ctx().metrics().counter_total("chaos.corrupt_accepted_total");
  if (accepted > 0) {
    std::printf(
        "!! %llu corrupted frame(s) decoded successfully -- codec "
        "hardening breach\n",
        static_cast<unsigned long long>(accepted));
    ++failures;
  }
  std::printf("%s", monitor.report().to_string().c_str());

  auto& registry = bed.ctx().metrics();
  if (!metrics_path.empty() &&
      !MetricsRegistry::write_file(metrics_path, registry.to_json())) {
    ++failures;
  }
  if (!metrics_csv_path.empty() &&
      !MetricsRegistry::write_file(metrics_csv_path, registry.to_csv())) {
    ++failures;
  }

  std::printf("\nchaos soak finished with %d failure(s).\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script_path;
  std::string metrics_path;
  std::string metrics_csv_path;
  std::string faults_path;
  std::size_t sweep_seeds = 0;
  unsigned threads = 1;
  unsigned sim_threads = 1;
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
  double chaos_duration = 120.0;
  std::size_t chaos_p2p = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--metrics-csv" && i + 1 < argc) {
      metrics_csv_path = argv[++i];
    } else if (arg == "--faults" && i + 1 < argc) {
      faults_path = argv[++i];
    } else if (arg == "--chaos") {
      chaos = true;
      // Consume trailing key=value tokens: seed=N duration=D p2p=N.
      while (i + 1 < argc && std::string(argv[i + 1]).find('=') !=
                                 std::string::npos) {
        const std::string spec = argv[++i];
        if (spec.rfind("seed=", 0) == 0) {
          chaos_seed = std::strtoull(spec.c_str() + 5, nullptr, 10);
        } else if (spec.rfind("duration=", 0) == 0) {
          chaos_duration = std::strtod(spec.c_str() + 9, nullptr);
        } else if (spec.rfind("p2p=", 0) == 0) {
          chaos_p2p = static_cast<std::size_t>(
              std::strtoull(spec.c_str() + 4, nullptr, 10));
        } else {
          std::fprintf(stderr, "--chaos: unknown parameter %s\n",
                       spec.c_str());
          return 2;
        }
      }
      if (chaos_duration <= 0) {
        std::fprintf(stderr, "--chaos: duration must be positive\n");
        return 2;
      }
    } else if (arg == "--sweep" && i + 1 < argc) {
      std::string spec = argv[++i];
      if (spec.rfind("seeds=", 0) == 0) spec = spec.substr(6);
      const long k = std::strtol(spec.c_str(), nullptr, 10);
      if (k < 1) {
        std::fprintf(stderr, "--sweep expects seeds=K with K >= 1\n");
        return 2;
      }
      sweep_seeds = static_cast<std::size_t>(k);
    } else if (arg == "--threads" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      threads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (arg == "--sim-threads" && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      sim_threads = n > 1 ? static_cast<unsigned>(n) : 1;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      script_path = arg;
    }
  }

  if (chaos) {
    return run_chaos(chaos_seed, chaos_duration, chaos_p2p, sim_threads,
                     metrics_path, metrics_csv_path);
  }

  scenario::FaultPlan fault_plan;
  bool have_faults = false;
  if (!faults_path.empty()) {
    std::ifstream file(faults_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", faults_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    auto parsed = scenario::FaultPlan::parse(ss.str());
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", faults_path.c_str(),
                   parsed.error().message.c_str());
      return 2;
    }
    fault_plan = std::move(*parsed);
    have_faults = true;
  }

  std::string script;
  if (!script_path.empty()) {
    std::ifstream file(script_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    script = ss.str();
    std::printf("== scenario: %s ==\n", script_path.c_str());
  } else {
    script = kBuiltinScript;
    std::printf("== built-in demo scenario ==\n");
  }

  if (sweep_seeds == 0) {
    // Single run: every testbed the script builds reports into one
    // context, whose registry is exported.
    SimContext context;
    Runner runner;
    runner.ctx = &context;
    runner.sim_threads = sim_threads;
    if (have_faults) runner.fault_plan = &fault_plan;
    for (const auto& line : split(script, '\n')) {
      runner.run_line(line);
    }
    runner.finish();

    const auto& registry = context.metrics();
    if (!metrics_path.empty()) {
      if (MetricsRegistry::write_file(metrics_path, registry.to_json())) {
        std::printf("metrics sidecar written to %s\n", metrics_path.c_str());
      } else {
        ++runner.errors;
      }
    }
    if (!metrics_csv_path.empty() &&
        !MetricsRegistry::write_file(metrics_csv_path, registry.to_csv())) {
      ++runner.errors;
    }

    std::printf("\nscenario finished with %d error(s).\n", runner.errors.load());
    return runner.errors == 0 ? 0 : 1;
  }

  // Sweep: one isolated cell per seed. Each cell narrates into a memstream
  // so workers never interleave on stdout; buffers are replayed in seed
  // order afterwards, making the output byte-identical for any --threads.
  struct CellResult {
    std::string output;
    int errors = 0;
    std::uint64_t seed = 0;
  };
  std::vector<CellResult> results(sweep_seeds);
  std::vector<scenario::Cell> cells;
  cells.reserve(sweep_seeds);
  for (std::size_t k = 0; k < sweep_seeds; ++k) {
    cells.push_back({0, [k, &results, &script, &fault_plan, have_faults,
                         sim_threads](SimContext& ctx) {
                       char* buf = nullptr;
                       std::size_t len = 0;
                       FILE* f = open_memstream(&buf, &len);
                       {
                         Runner runner;
                         runner.out = f != nullptr ? f : stdout;
                         runner.ctx = &ctx;
                         runner.sweep = true;
                         runner.cell_index = k;
                         runner.sim_threads = sim_threads;
                         if (have_faults) runner.fault_plan = &fault_plan;
                         for (const auto& line : split(script, '\n')) {
                           runner.run_line(line);
                         }
                         runner.finish();
                         results[k].errors = runner.errors.load();
                         results[k].seed = runner.effective_seed;
                       }
                       if (f != nullptr) {
                         std::fclose(f);
                         results[k].output.assign(buf, len);
                         std::free(buf);
                       }
                     }});
  }
  const auto contexts = scenario::run_cells(std::move(cells), threads);

  int errors = 0;
  for (std::size_t k = 0; k < sweep_seeds; ++k) {
    std::printf("\n-- sweep cell %zu (seed %llu) --\n", k,
                static_cast<unsigned long long>(results[k].seed));
    std::fwrite(results[k].output.data(), 1, results[k].output.size(),
                stdout);
    errors += results[k].errors;
  }

  const MetricsRegistry merged = scenario::merged_metrics(contexts);
  if (!metrics_path.empty()) {
    if (MetricsRegistry::write_file(metrics_path,
                                    merged.to_json(contexts.size()))) {
      std::printf("metrics sidecar written to %s (%zu cells merged)\n",
                  metrics_path.c_str(), contexts.size());
    } else {
      ++errors;
    }
  }
  if (!metrics_csv_path.empty() &&
      !MetricsRegistry::write_file(metrics_csv_path, merged.to_csv())) {
    ++errors;
  }

  std::printf("\nsweep of %zu seed(s) finished with %d error(s).\n",
              sweep_seeds, errors);
  return errors == 0 ? 0 : 1;
}
