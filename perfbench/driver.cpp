// perfbench driver: one iteration of one benchmark workload.
//
// `run.py` (next to this file) calls this binary once per iteration and
// aggregates the iterations of a run; the binary does the measuring. Each
// call builds the workload's inputs from --seed, times the set-up phase and
// the timed phase separately, checks the outputs, and prints one JSON object
// on its last stdout line.
//
// Workloads (see README.md for why each exists):
//   olsr-city-200          200-node constant-density OLSR MANET,
//                          sequential kernel; the routing layer dominates.
//   olsr-city-200-sharded  the same scenario on the region-sharded kernel
//                          (8 regions, min(2, nproc) threads).
//   voice-aodv-100         100-node AODV MANET, rounds of re-REGISTER,
//                          INVITE, G.711 both ways and BYE; data plane.
//   registrar-store-1m     ShardedBindingStore with 1M bindings under a
//                          90/10 lookup/refresh mix from client threads.
//
// Only public APIs are used: the scenario Testbed, the simulator and medium
// counters, per-node stack stats, softphone call reports, the metrics
// registry, the binding store and getrusage. With --trace 1 the driver
// records wall-clock spans around every call it makes into a layer and
// writes them to --trace-out; spans inside the program are out of scope.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "scenario/invariants.hpp"
#include "scenario/scenario.hpp"
#include "sip/registrar_store.hpp"

using namespace siphoc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

unsigned client_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(n, 1u, 4u);
}

// ---------------------------------------------------------------------------
// Host facts and process counters
// ---------------------------------------------------------------------------

const char* sanitizer_in_build() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "";
#endif
#else
  return "";
#endif
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct ProcSample {
  double cpu_s = 0;
  long vol_ctx_switches = 0;
  double max_rss_mb = 0;
};

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  s.vol_ctx_switches = ru.ru_nvcsw;
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return s;
}

long thread_vol_ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

/// Resident set size right now, in bytes.
double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile of sorted values (numpy's default rule).
template <typename T>
double percentile_sorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

template <typename T>
double percentile(std::vector<T> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Ordered name -> number map printed as a JSON object. %.17g keeps every
/// digit so the aggregator sees values as measured.
class JsonNumbers {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  std::string to_json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(value) ? value : 0.0);
      out += (first ? "\"" : ",\"") + json_escape(name) + "\":" + buf;
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at the end of a traced iteration
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string trace_id;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  int open(std::string name, std::string trace_id = {}) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.trace_id = std::move(trace_id);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = seconds_between(origin_, Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index, std::string trace_id = {}) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = seconds_between(origin_, Clock::now());
    if (!trace_id.empty()) s.trace_id = std::move(trace_id);
    stack_.pop_back();
  }
  /// Appends a finished span recorded elsewhere (store client threads).
  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"schema\":\"siphoc.perfbench.spans.v1\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf, "\"start_s\":%.9f,\"end_s\":%.9f",
                    s.start_s, s.end_s);
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":"
          << s.parent << ",\"name\":\"" << json_escape(s.name)
          << "\",\"trace_id\":\"" << json_escape(s.trace_id) << "\"," << buf
          << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over a call into a layer; `trace_id` may be filled in before
/// the scope ends (a Call-ID is known only once the INVITE is out).
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::string trace_id = {})
      : tracer_(tracer), index_(tracer.open(std::move(name), std::move(trace_id))) {}
  ~SpanScope() { tracer_.close(index_, std::move(trace_id)); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::string trace_id;

 private:
  Tracer& tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
  /// Overrides the sharded workload's worker-thread count (execution
  /// policy only; the digest must not change).
  unsigned sim_threads = 0;
  /// Self-test hooks: deliberately break one output so the tests can show
  /// that the corresponding check reports a failure.
  std::string inject;
};

std::optional<std::uint64_t> parse_number(const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const auto seed = parse_number(value);
      if (!seed) return std::nullopt;
      a.seed = *seed;
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--sim-threads") {
      const auto threads = parse_number(value);
      if (!threads || *threads < 1 || *threads > 64) return std::nullopt;
      a.sim_threads = static_cast<unsigned>(*threads);
    } else if (flag == "--inject") {
      a.inject = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

/// What every iteration reports; the aggregator turns these into the
/// end-to-end and per-layer metrics.
struct IterResult {
  double setup_s = 0;
  double run_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> op_latency_ms;  // call set-up (virtual) or lookups (wall)
  double op_tail_p = 0.9;             // which percentile is the tail
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  bool checks_ok = true;
  std::vector<std::string> problems;
  JsonNumbers layers;
  JsonNumbers info;  // sample counts and other facts for the log
};

// ---------------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------------

constexpr int kSetupRepeats = 5;

struct SimPlan {
  std::size_t nodes = 0;
  RoutingKind routing = RoutingKind::kAodv;
  std::uint32_t regions = 0;
  unsigned sim_threads = 1;
  std::size_t pairs = 0;
  int hops = 0;  // radio hops between caller and callee
  int rounds = 1;
  /// Highest set-up percentile with at least ten calls beyond it.
  double tail_p = 0.9;
  Duration settle{};
  Duration flood{};  // after REGISTER, before the INVITEs
  Duration voice{};
  Duration drain{};  // after BYE
};

SimPlan plan_for(const std::string& workload) {
  SimPlan p;
  if (workload == "olsr-city-200" || workload == "olsr-city-200-sharded") {
    p.nodes = 200;
    p.routing = RoutingKind::kOlsr;
    p.pairs = 40;
    p.hops = 8;
    p.tail_p = 0.75;
    p.rounds = 1;
    p.settle = seconds(20);  // OLSR convergence at diameter ~12 hops
    p.flood = seconds(5);    // piggybacked bindings flood out
    p.voice = seconds(3);
    p.drain = seconds(1);
    if (workload == "olsr-city-200-sharded") {
      p.regions = 8;
      p.sim_threads = std::min(2u, client_threads());
    }
  } else if (workload == "voice-aodv-100") {
    p.nodes = 100;
    p.routing = RoutingKind::kAodv;
    p.pairs = 20;
    p.hops = 4;
    // Every round re-REGISTERs: the proxy's SIP-contact SLP advert lapses
    // slp_advertise_lifetime (2 min) after a REGISTER while softphones
    // refresh only hourly, so without it calls in later rounds fail (about
    // 40/100 established with 62 s rounds).
    p.rounds = 8;
    p.settle = seconds(3);
    p.flood = Duration::zero();
    // Short voice phases keep an iteration near 2 s, so a run holds about
    // ten iterations and its median rides out bursts of host load.
    p.voice = seconds(4);
    p.drain = seconds(1);
  }
  return p;
}

/// Caller/callee node pairs exactly `hops` radio hops apart, with distinct
/// endpoints, drawn from the seed. A fixed path length keeps call set-up
/// delay and forwarding work comparable across random topologies; pairs in
/// different components are never drawn, so no call targets an island.
std::vector<std::pair<std::size_t, std::size_t>> pick_pairs(
    scenario::Testbed& bed, std::size_t count, int hops, std::uint64_t seed) {
  const std::size_t n = bed.size();
  std::vector<std::vector<std::size_t>> adjacent(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (bed.medium().connected(bed.host(u).id(), bed.host(v).id())) {
        adjacent[u].push_back(v);
        adjacent[v].push_back(u);
      }
    }
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed ^ 0x5eedca11u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[rng.uniform_int(0, static_cast<std::uint32_t>(i - 1))]);
  }
  std::vector<bool> used(n, false);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const std::size_t u : order) {
    if (pairs.size() == count) break;
    if (used[u]) continue;
    std::vector<int> dist(n, -1);
    std::vector<std::size_t> queue{u};
    dist[u] = 0;
    for (std::size_t k = 0; k < queue.size(); ++k) {
      const std::size_t x = queue[k];
      if (dist[x] == hops) continue;
      for (const std::size_t y : adjacent[x]) {
        if (dist[y] < 0) {
          dist[y] = dist[x] + 1;
          queue.push_back(y);
        }
      }
    }
    for (const std::size_t v : order) {
      if (!used[v] && v != u && dist[v] == hops) {
        used[u] = used[v] = true;
        pairs.emplace_back(u, v);
        break;
      }
    }
  }
  return pairs;
}

struct MediumSnapshot {
  std::uint64_t routing = 0, sip = 0, rtp = 0;
  std::uint64_t sent = 0, delivered = 0;
};

MediumSnapshot medium_snapshot(scenario::Testbed& bed) {
  const net::MediumStats& st = bed.medium().stats();
  MediumSnapshot m;
  auto frames = [&](net::TrafficClass c) -> std::uint64_t {
    const auto it = st.by_class.find(c);
    return it == st.by_class.end() ? 0 : it->second.frames;
  };
  m.routing = frames(net::TrafficClass::kRouting);
  m.sip = frames(net::TrafficClass::kSip);
  m.rtp = frames(net::TrafficClass::kRtp);
  m.sent = st.frames_sent;
  m.delivered = st.frames_delivered;
  return m;
}

IterResult run_simulation(const Args& args, Tracer& tracer) {
  const SimPlan plan = plan_for(args.workload);
  IterResult r;
  r.op_tail_p = plan.tail_p;

  scenario::Options options;
  options.seed = args.seed;
  options.nodes = plan.nodes;
  options.topology = scenario::Topology::kRandomArea;
  options.area = 75.0 * std::sqrt(static_cast<double>(plan.nodes));
  options.routing = plan.routing;
  options.sim_regions = plan.regions;
  options.sim_threads = args.sim_threads > 0 ? args.sim_threads : plan.sim_threads;

  // --- set-up: Testbed construction, start(), phones ---------------------
  // Set-up takes milliseconds, so it runs kSetupRepeats times on fresh
  // contexts and reports the median; the last testbed is the one measured.
  std::unique_ptr<SimContext> context;
  std::optional<scenario::Testbed> bed_storage;
  // Call endpoints per round: inputs the benchmark chooses, so not timed.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rounds;
  std::map<std::size_t, voip::SoftPhone*> phone_on;  // node -> its phone
  // Exact virtual establishment time per phone: call_and_wait polls in
  // 1 ms steps, so its own setup_time is quantized. One slot per phone,
  // written only from that phone's lane.
  using Slot = std::shared_ptr<std::optional<TimePoint>>;
  std::map<voip::SoftPhone*, Slot> established_at;
  std::vector<double> setup_samples;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    bed_storage.reset();
    context = std::make_unique<SimContext>();
    options.context = context.get();
    established_at.clear();
    phone_on.clear();
    const auto t0 = Clock::now();
    {
      SpanScope span(tracer, "setup.testbed");
      bed_storage.emplace(options);
      bed_storage->start();
    }
    double elapsed = seconds_between(t0, Clock::now());
    scenario::Testbed& bed = *bed_storage;
    if (rounds.empty()) {
      for (int round = 0; round < plan.rounds; ++round) {
        rounds.push_back(pick_pairs(bed, plan.pairs, plan.hops,
                                    args.seed + 1000003ull * round));
        if (rounds.back().size() < plan.pairs) {
          r.problems.push_back("too few node pairs at the planned hop distance");
          r.checks_ok = false;
          return r;
        }
      }
    }
    const auto t1 = Clock::now();
    SpanScope span(tracer, "setup.phones");
    for (const auto& round : rounds) {
      for (const auto& [a, b] : round) {
        for (const std::size_t node : {a, b}) {
          if (phone_on.contains(node)) continue;
          voip::SoftPhoneConfig pc;
          pc.domain = "voicehoc.ch";
          pc.username = "n" + std::to_string(node);
          pc.answer_delay = Duration::zero();
          pc.voice.always_on = true;
          voip::SoftPhone* phone = &bed.add_phone(node, pc);
          auto slot = std::make_shared<std::optional<TimePoint>>();
          voip::SoftPhoneEvents ev = phone->events();
          ev.on_established = [slot, sim = &bed.sim()](sip::CallId) {
            *slot = sim->now();
          };
          phone->set_events(ev);
          phone_on[node] = phone;
          established_at[phone] = std::move(slot);
        }
      }
    }
    elapsed += seconds_between(t1, Clock::now());
    setup_samples.push_back(elapsed);
  }
  r.setup_s = percentile(setup_samples, 0.5);
  scenario::Testbed& bed = *bed_storage;

  // --- timed phase ---------------------------------------------------------
  const ProcSample proc0 = proc_sample();
  const std::uint64_t events0 = bed.sim().events_executed();
  const std::uint64_t windows0 = bed.sim().windows_run();
  const std::uint64_t serialized0 = bed.sim().windows_serialized();
  const auto t_run = Clock::now();

  double converge_s = 0, register_s = 0, call_s = 0, voice_s = 0;
  MediumSnapshot m_before = medium_snapshot(bed);
  std::uint64_t converge_ctrl_frames = 0, voice_rtp_frames = 0;
  {
    const auto t0 = Clock::now();
    SpanScope span(tracer, "converge");
    bed.settle(plan.settle);
    converge_s = seconds_between(t0, Clock::now());
  }
  {
    const MediumSnapshot m = medium_snapshot(bed);
    converge_ctrl_frames = m.routing - m_before.routing;
  }

  std::vector<double> setup_ms;
  std::vector<double> mos;
  std::uint64_t registers_ok = 0, registers = 0, calls = 0, calls_ok = 0;
  for (int round = 0; round < plan.rounds; ++round) {
    const auto& round_pairs = rounds[static_cast<std::size_t>(round)];
    {
      const auto t0 = Clock::now();
      SpanScope span(tracer, "register");
      for (const auto& [a, b] : round_pairs) {
        for (const std::size_t node : {a, b}) {
          voip::SoftPhone& phone = *phone_on.at(node);
          SpanScope reg(tracer, "register_and_wait",
                        phone.config().aor().to_string());
          ++registers;
          if (bed.register_and_wait(phone)) {
            ++registers_ok;
          } else {
            r.problems.push_back("REGISTER " + phone.config().aor().to_string() +
                                 " failed");
          }
        }
      }
      if (plan.flood > Duration::zero()) bed.run_for(plan.flood);
      register_s += seconds_between(t0, Clock::now());
    }
    std::vector<std::pair<voip::SoftPhone*, sip::CallId>> live;
    {
      const auto t0 = Clock::now();
      SpanScope span(tracer, "call");
      for (const auto& [a, b] : round_pairs) {
        voip::SoftPhone* caller = phone_on.at(a);
        const std::string callee = phone_on.at(b)->config().aor().to_string();
        SpanScope call(tracer, "call_and_wait");
        std::optional<TimePoint>& established = *established_at.at(caller);
        established.reset();
        const TimePoint started = bed.sim().now();
        const auto res = bed.call_and_wait(*caller, callee, seconds(15));
        call.trace_id = "call-" + std::to_string(res.call);
        ++calls;
        if (res.established && established) {
          ++calls_ok;
          setup_ms.push_back(
              std::chrono::duration<double, std::milli>(*established - started)
                  .count());
          live.emplace_back(caller, res.call);
        } else {
          r.problems.push_back("INVITE " + caller->config().aor().to_string() +
                               " -> " + callee + " failed with " +
                               std::to_string(res.failure_status));
        }
      }
      call_s += seconds_between(t0, Clock::now());
    }
    {
      const auto t0 = Clock::now();
      const MediumSnapshot before = medium_snapshot(bed);
      SpanScope span(tracer, "voice");
      bed.run_for(plan.voice);
      for (const auto& [caller, id] : live) {
        if (const auto report = caller->call_report(id)) {
          mos.push_back(report->quality.mos);
        }
        caller->hang_up(id);
      }
      bed.run_for(plan.drain);
      voice_s += seconds_between(t0, Clock::now());
      voice_rtp_frames += medium_snapshot(bed).rtp - before.rtp;
    }
  }
  r.run_s = seconds_between(t_run, Clock::now());
  const ProcSample proc1 = proc_sample();

  // --- correctness: invariants, then the virtual-output digest -------------
  scenario::InvariantMonitor monitor(bed);
  monitor.check();
  if (!monitor.report().ok()) {
    r.checks_ok = false;
    r.problems.push_back("invariants: " + monitor.report().to_string());
  }
  bed.finalize_metrics();
  const MetricsRegistry& reg = bed.ctx().metrics();
  const std::uint64_t events = bed.sim().events_executed();
  std::uint64_t digest_events = events;
  if (args.inject == "digest") digest_events += static_cast<std::uint64_t>(getpid());
  r.digest = hex64(fnv1a(reg.to_json(), fnv1a(std::to_string(digest_events))));

  r.attempted = registers + calls;
  r.failed = (registers - registers_ok) + (calls - calls_ok);
  r.op_latency_ms = setup_ms;
  r.peak_rss_mb = proc1.max_rss_mb;

  // --- per-layer numbers ---------------------------------------------------
  JsonNumbers& L = r.layers;
  const double run_s = r.run_s;
  L.set("span.converge_share", converge_s / run_s);
  L.set("span.register_share", register_s / run_s);
  L.set("span.call_share", call_s / run_s);
  L.set("span.voice_share", voice_s / run_s);

  const auto ev = static_cast<double>(events - events0);
  const auto windows = static_cast<double>(bed.sim().windows_run() - windows0);
  L.set("sim.events", ev);
  L.set("sim.events_per_s", ev / run_s);
  L.set("sim.windows", windows);
  L.set("sim.windows_serialized_ratio",
        windows > 0 ? static_cast<double>(bed.sim().windows_serialized() -
                                          serialized0) / windows
                    : 0);
  L.set("proc.cpu_util", (proc1.cpu_s - proc0.cpu_s) / run_s);
  L.set("proc.vol_ctx_switches_per_window",
        windows > 0 ? static_cast<double>(proc1.vol_ctx_switches -
                                          proc0.vol_ctx_switches) / windows
                    : 0);

  const MediumSnapshot m = medium_snapshot(bed);
  L.set("net.frames.routing", static_cast<double>(m.routing - m_before.routing));
  L.set("net.frames.sip", static_cast<double>(m.sip - m_before.sip));
  L.set("net.frames.rtp", static_cast<double>(m.rtp - m_before.rtp));
  L.set("net.deliveries_per_frame",
        m.sent > m_before.sent
            ? static_cast<double>(m.delivered - m_before.delivered) /
                  static_cast<double>(m.sent - m_before.sent)
            : 0);
  L.set("net.unicast_unreachable",
        static_cast<double>(bed.medium().stats().unicast_unreachable));
  std::uint64_t no_route = 0;
  routing::RoutingStats rs;
  for (std::size_t i = 0; i < bed.size(); ++i) {
    no_route += bed.host(i).stats().no_route_drops;
    const auto& s = bed.stack(i).routing().stats();
    rs.route_discoveries += s.route_discoveries;
    rs.discovery_failures += s.discovery_failures;
  }
  L.set("net.host.no_route_drops", static_cast<double>(no_route));
  L.set("net.us_per_rtp_frame",
        voice_rtp_frames > 0
            ? 1e6 * voice_s / static_cast<double>(voice_rtp_frames)
            : 0);

  auto total = [&](const char* name) {
    return static_cast<double>(reg.counter_total(name));
  };
  L.set("routing.control_packets", total("routing.control_packets_total"));
  L.set("routing.control_bytes", total("routing.control_bytes_total"));
  L.set("routing.piggyback_bytes", total("routing.piggyback_bytes_total"));
  L.set("routing.route_discoveries", static_cast<double>(rs.route_discoveries));
  L.set("routing.discovery_failures",
        static_cast<double>(rs.discovery_failures));
  L.set("olsr.hello_tx", total("olsr.hello_tx_total"));
  L.set("olsr.tc_tx", total("olsr.tc_tx_total"));
  L.set("olsr.tc_forwarded", total("olsr.tc_forwarded_total"));
  L.set("routing.us_per_ctrl_packet",
        converge_ctrl_frames > 0
            ? 1e6 * converge_s / static_cast<double>(converge_ctrl_frames)
            : 0);

  const double slp_lookups = total("slp.lookups_total");
  L.set("slp.lookups", slp_lookups);
  L.set("slp.hit_ratio",
        slp_lookups > 0 ? (total("slp.cache_hits_total") +
                           total("slp.remote_resolves_total")) / slp_lookups
                        : 0);
  L.set("slp.lookup_timeouts", total("slp.lookup_timeouts_total"));
  L.set("slp.adverts_piggybacked", total("slp.adverts_piggybacked_total"));

  L.set("sip.retransmits", total("sip.retransmits_total"));
  L.set("sip.tx_timeouts", total("sip.tx_timeouts_total"));
  const double proxy_lookups = total("proxy.slp_lookups_total");
  L.set("proxy.slp_lookups", proxy_lookups);
  L.set("proxy.slp_hit_ratio",
        proxy_lookups > 0 ? total("proxy.slp_hits_total") / proxy_lookups : 0);
  L.set("proxy.requests_forwarded", total("proxy.requests_forwarded_total"));
  L.set("proxy.not_found", total("proxy.not_found_total"));

  L.set("rtp.packets_tx", total("rtp.packets_tx_total"));
  L.set("rtp.packets_rx", total("rtp.packets_rx_total"));
  L.set("rtp.late_drops", total("rtp.late_drops_total"));
  L.set("rtp.mos_p50", percentile(mos, 0.5));
  L.set("rtp.mos_p10", percentile(mos, 0.1));

  r.info.set("nodes", static_cast<double>(plan.nodes));
  r.info.set("pair_hops", plan.hops);
  r.info.set("registers", static_cast<double>(registers));
  r.info.set("registers_ok", static_cast<double>(registers_ok));
  r.info.set("calls", static_cast<double>(calls));
  r.info.set("calls_ok", static_cast<double>(calls_ok));
  r.info.set("setup_samples", static_cast<double>(setup_ms.size()));
  r.info.set("mos_samples", static_cast<double>(mos.size()));
  r.info.set("sim_threads", static_cast<double>(options.sim_threads));
  r.info.set("sim_regions", static_cast<double>(plan.regions));
  r.info.set("sim_events", static_cast<double>(events));
  r.info.set("virtual_s", to_seconds(bed.sim().now() - TimePoint{}));
  if (mos.size() != calls_ok) {
    r.checks_ok = false;
    r.problems.push_back("missing call reports");
  }
  return r;
}

// ---------------------------------------------------------------------------
// Registrar store workload
// ---------------------------------------------------------------------------

constexpr std::size_t kBindings = 1'000'000;
constexpr std::size_t kShards = 16;
constexpr std::size_t kContactPool = 1024;
constexpr std::size_t kOpsPerClient = 1'000'000;
constexpr std::size_t kSpanSampleEvery = 4096;

struct ClientOutcome {
  std::vector<std::uint32_t> lookup_ns;
  std::vector<std::uint32_t> upsert_ns;
  std::uint64_t lookups = 0;
  std::uint64_t upserts = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;
  long vol_ctx_switches = 0;
  std::vector<Span> spans;
};

IterResult run_store(const Args& args, Tracer& tracer, Clock::time_point origin) {
  IterResult r;
  r.op_tail_p = 0.99;
  const unsigned clients = client_threads();
  const TimePoint expiry = TimePoint{} + hours(1);

  // --- set-up: keys and contacts, the store, the preload -------------------
  const auto t_setup = Clock::now();
  std::vector<std::string> keys;
  std::vector<sip::Uri> contacts;
  {
    SpanScope span(tracer, "setup.keys");
    Rng rng(args.seed);
    keys.reserve(kBindings);
    for (std::size_t i = 0; i < kBindings; ++i) {
      keys.push_back("u" + hex64(rng.uniform_u64()) + "@voicehoc.ch");
    }
    contacts.reserve(kContactPool);
    for (std::size_t c = 0; c < kContactPool; ++c) {
      contacts.push_back(sip::Uri::from_endpoint(
          {net::Address(10, static_cast<std::uint32_t>((c >> 8) & 0xff),
                        static_cast<std::uint32_t>(c & 0xff),
                        static_cast<std::uint32_t>(1 + rng.uniform_int(0, 253))),
           5060},
          "u" + std::to_string(c)));
    }
  }
  // The contact last written for key i is contacts[(i + version[i]) % pool];
  // client t owns (writes and checks) the keys with i % clients == t.
  std::vector<std::uint32_t> version(kBindings, 0);
  auto expected = [&](std::size_t i) -> const sip::Uri& {
    return contacts[(i + version[i]) % kContactPool];
  };

  const double rss_before = current_rss_bytes();
  sip::ShardedBindingStore::Config config;
  config.shards = kShards;
  config.initial_capacity = kBindings / kShards;
  sip::ShardedBindingStore store(config);
  double preload_s = 0;
  {
    SpanScope span(tracer, "setup.preload");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBindings; ++i) {
      store.upsert(keys[i], expected(i), expiry);
    }
    preload_s = seconds_between(t0, Clock::now());
  }
  const double rss_after = current_rss_bytes();
  r.setup_s = seconds_between(t_setup, Clock::now());

  // Self-test hooks: corrupt the store behind the harness's back.
  if (args.inject == "stale" || args.inject == "missing") {
    for (std::size_t i = 0; i < kBindings; i += 97) {
      if (args.inject == "stale") {
        store.upsert(keys[i], contacts[(i + version[i] + 1) % kContactPool],
                     expiry);
      } else {
        store.erase(keys[i]);
      }
    }
  }

  // --- timed phase: closed-loop clients, 90% lookup / 10% refresh ----------
  std::vector<ClientOutcome> outcomes(clients);
  const ProcSample proc0 = proc_sample();
  const auto t_run = Clock::now();
  {
    SpanScope span(tracer, "mixed");
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        ClientOutcome& out = outcomes[t];
        out.lookup_ns.reserve(kOpsPerClient);
        out.upsert_ns.reserve(kOpsPerClient / 8);
        const long csw0 = thread_vol_ctx_switches();
        Rng rng(args.seed * 7919 + t);
        const std::uint32_t owned =
            static_cast<std::uint32_t>((kBindings - t + clients - 1) / clients);
        for (std::size_t op = 0; op < kOpsPerClient; ++op) {
          const std::size_t i =
              static_cast<std::size_t>(rng.uniform_int(0, owned - 1)) * clients + t;
          const bool refresh = rng.uniform_int(0, 9) == 0;
          const bool sampled = tracer.enabled() && op % kSpanSampleEvery == 0;
          if (refresh) {
            // The harness's bookkeeping stays outside the timed call.
            ++version[i];
            const sip::Uri& contact = expected(i);
            const auto t0 = Clock::now();
            store.upsert(keys[i], contact, expiry + seconds(op % 600));
            const auto t1 = Clock::now();
            out.upsert_ns.push_back(static_cast<std::uint32_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
            ++out.upserts;
            if (sampled) {
              out.spans.push_back({"store.upsert", keys[i], -1,
                                   seconds_between(origin, t0),
                                   seconds_between(origin, t1)});
            }
          } else {
            const auto t0 = Clock::now();
            const auto found = store.lookup(keys[i], TimePoint{});
            const auto t1 = Clock::now();
            out.lookup_ns.push_back(static_cast<std::uint32_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
            ++out.lookups;
            if (!found) {
              ++out.misses;
            } else if (!(found->contact == expected(i))) {
              ++out.stale;
            }
            if (sampled) {
              out.spans.push_back({"store.lookup", keys[i], -1,
                                   seconds_between(origin, t0),
                                   seconds_between(origin, t1)});
            }
          }
        }
        out.vol_ctx_switches = thread_vol_ctx_switches() - csw0;
      });
    }
    for (auto& th : threads) th.join();
  }
  r.run_s = seconds_between(t_run, Clock::now());
  const ProcSample proc1 = proc_sample();

  std::vector<std::uint32_t> lookup_ns, upsert_ns;
  std::uint64_t lookups = 0, upserts = 0, misses = 0, stale = 0;
  long csw = 0;
  for (ClientOutcome& out : outcomes) {
    lookup_ns.insert(lookup_ns.end(), out.lookup_ns.begin(), out.lookup_ns.end());
    upsert_ns.insert(upsert_ns.end(), out.upsert_ns.begin(), out.upsert_ns.end());
    lookups += out.lookups;
    upserts += out.upserts;
    misses += out.misses;
    stale += out.stale;
    csw += out.vol_ctx_switches;
    for (Span& s : out.spans) tracer.add(std::move(s));
  }

  // Self-test hook: a corruption no client can see, left only to the
  // read-back below.
  if (args.inject == "stale-after") {
    store.upsert(keys[0], contacts[(version[0] + 1) % kContactPool], expiry);
  }

  // --- correctness ---------------------------------------------------------
  // Every binding is read back after the mixed phase: the digest covers what
  // the store holds, and a key whose contact is not the one last written
  // fails even if no client looked it up after it went wrong.
  std::uint64_t final_missing = 0, final_stale = 0;
  std::uint64_t h = fnv1a(std::to_string(store.size()));
  for (std::size_t i = 0; i < kBindings; ++i) {
    h = fnv1a(keys[i], h);
    const auto found = store.lookup(keys[i], TimePoint{});
    if (!found) {
      ++final_missing;
      continue;
    }
    h = fnv1a(found->contact.to_string(), h);
    if (!(found->contact == expected(i))) ++final_stale;
  }
  r.digest = hex64(h);
  r.attempted = lookups + upserts + kBindings;
  r.failed = misses + stale + final_missing + final_stale;
  if (final_missing + final_stale > 0) {
    r.checks_ok = false;
    r.problems.push_back("final read-back: " + std::to_string(final_missing) +
                         " bindings missing, " + std::to_string(final_stale) +
                         " with a stale contact");
  }
  if (misses > 0) {
    r.checks_ok = false;
    r.problems.push_back(std::to_string(misses) + " lookups missed a binding");
  }
  if (stale > 0) {
    r.checks_ok = false;
    r.problems.push_back(std::to_string(stale) +
                         " lookups returned a stale contact");
  }
  if (store.size() != kBindings) {
    r.checks_ok = false;
    r.problems.push_back("store holds " + std::to_string(store.size()) +
                         " bindings, expected " + std::to_string(kBindings));
  }

  std::vector<double> lookup_ms;
  lookup_ms.reserve(lookup_ns.size());
  for (const std::uint32_t ns : lookup_ns) lookup_ms.push_back(ns * 1e-6);
  r.op_latency_ms = std::move(lookup_ms);
  r.peak_rss_mb = proc1.max_rss_mb;

  JsonNumbers& L = r.layers;
  L.set("store.preload_per_s", static_cast<double>(kBindings) / preload_s);
  L.set("store.lookups_per_s", static_cast<double>(lookups) / r.run_s);
  L.set("store.refreshes_per_s", static_cast<double>(upserts) / r.run_s);
  L.set("store.upsert_ns_p50", percentile(upsert_ns, 0.5));
  L.set("store.upsert_ns_p99", percentile(upsert_ns, 0.99));
  std::size_t max_shard = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    max_shard = std::max(max_shard, store.shard_size(s));
  }
  L.set("store.shard_skew",
        static_cast<double>(max_shard) /
            (static_cast<double>(store.size()) /
             static_cast<double>(store.shard_count())));
  L.set("store.vol_ctx_switches", static_cast<double>(csw));
  L.set("store.bytes_per_binding",
        (rss_after - rss_before) / static_cast<double>(kBindings));
  L.set("proc.cpu_util", (proc1.cpu_s - proc0.cpu_s) / r.run_s);

  r.info.set("bindings", static_cast<double>(kBindings));
  r.info.set("clients", clients);
  r.info.set("lookups", static_cast<double>(lookups));
  r.info.set("refreshes", static_cast<double>(upserts));
  r.info.set("misses", static_cast<double>(misses));
  r.info.set("stale", static_cast<double>(stale));
  r.info.set("final_missing", static_cast<double>(final_missing));
  r.info.set("final_stale", static_cast<double>(final_stale));
  return r;
}

void print_result(const Args& args, const IterResult& r, const Tracer& tracer) {
  std::vector<double> lat = r.op_latency_ms;
  std::sort(lat.begin(), lat.end());
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ",\"" : "\"") + json_escape(r.problems[i]) + "\"";
  }
  problems += "]";
  JsonNumbers e2e;
  e2e.set("setup_s", r.setup_s);
  e2e.set("run_s", r.run_s);
  e2e.set("peak_rss_mb", r.peak_rss_mb);
  e2e.set("op_p50_ms", percentile_sorted(lat, 0.5));
  e2e.set("op_tail_ms", percentile_sorted(lat, r.op_tail_p));
  JsonNumbers info = r.info;
  info.set("op_samples", static_cast<double>(lat.size()));
  info.set("op_tail_percentile", 100 * r.op_tail_p);
  info.set("spans", static_cast<double>(tracer.size()));
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"checks_ok\":%s,\"problems\":%s,\"digest\":\"%s\","
      "\"host\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"},"
      "\"e2e\":%s,\"layers\":%s,\"info\":%s}\n",
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.checks_ok ? "true" : "false",
      problems.c_str(), r.digest.c_str(), std::thread::hardware_concurrency(),
      json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
      e2e.to_json().c_str(), r.layers.to_json().c_str(),
      info.to_json().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (*sanitizer_in_build() != '\0') {
    std::fprintf(stderr, "refusing to measure a %s sanitizer build\n",
                 sanitizer_in_build());
    return 3;
  }
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N [--trace 0|1]"
                 " [--trace-out FILE] [--sim-threads N] [--inject KIND]\n");
    return 2;
  }
  const auto origin = Clock::now();
  Tracer tracer(args->trace, origin);
  IterResult result;
  if (args->workload == "registrar-store-1m") {
    result = run_store(*args, tracer, origin);
  } else if (plan_for(args->workload).nodes > 0) {
    result = run_simulation(*args, tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  if (tracer.enabled() && !args->trace_out.empty() &&
      !tracer.write(args->trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args->trace_out.c_str());
    return 1;
  }
  std::fflush(stderr);
  print_result(*args, result, tracer);
  return 0;
}
