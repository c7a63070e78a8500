#include "scenario/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/context.hpp"
#include "common/random.hpp"

namespace siphoc::scenario {

namespace {

std::string duration_str(Duration d) {
  const auto us = d.count();
  if (us % 1'000'000 == 0) return std::to_string(us / 1'000'000) + "s";
  if (us % 1'000 == 0) return std::to_string(us / 1'000) + "ms";
  return std::to_string(us) + "us";
}

std::string prob_str(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

std::string node_list_str(const std::vector<std::size_t>& nodes) {
  std::string out;
  for (std::size_t n : nodes) {
    if (!out.empty()) out += ",";
    out += std::to_string(n);
  }
  return out;
}

std::optional<Duration> parse_duration_token(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || value < 0) return std::nullopt;
  const std::string suffix(end);
  double scale_us = 1e6;  // bare number = seconds
  if (suffix == "s" || suffix.empty()) {
    scale_us = 1e6;
  } else if (suffix == "ms") {
    scale_us = 1e3;
  } else if (suffix == "us") {
    scale_us = 1;
  } else {
    return std::nullopt;
  }
  return microseconds(static_cast<std::int64_t>(value * scale_us + 0.5));
}

std::optional<double> parse_prob_token(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') return std::nullopt;
  if (value < 0.0 || value > 1.0) return std::nullopt;
  return value;
}

std::optional<std::vector<std::size_t>> parse_node_list(
    const std::string& token) {
  std::vector<std::size_t> nodes;
  std::stringstream ss(token);
  std::string part;
  while (std::getline(ss, part, ',')) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(part.c_str(), &end, 10);
    if (end == part.c_str() || *end != '\0') return std::nullopt;
    nodes.push_back(static_cast<std::size_t>(value));
  }
  if (nodes.empty()) return std::nullopt;
  return nodes;
}

/// Quantizes a generated probability to 3 decimals so the canonical text
/// form round-trips exactly.
double quantize(double p) { return std::round(p * 1000.0) / 1000.0; }

Duration quantize_ms(double seconds_value) {
  return milliseconds(static_cast<std::int64_t>(seconds_value * 1000.0 + 0.5));
}

}  // namespace

// ===========================================================================
// FaultEvent / FaultPlan
// ===========================================================================

std::string FaultEvent::to_string() const {
  std::string out = "at " + duration_str(at) + " ";
  switch (kind) {
    case Kind::kCrash:
      out += "crash " + node_list_str(nodes);
      break;
    case Kind::kRestart:
      out += "restart " + node_list_str(nodes);
      break;
    case Kind::kKillGateway:
      out += "kill-gateway " + node_list_str(nodes);
      break;
    case Kind::kPartition:
      out += "partition " + node_list_str(nodes) + " | " +
             node_list_str(nodes_b);
      break;
    case Kind::kHeal:
      out += "heal";
      break;
    case Kind::kLoss:
      out += "loss " + prob_str(p0) + " " + prob_str(p1) + " " +
             duration_str(ramp);
      break;
    case Kind::kCorrupt:
      out += "corrupt " + prob_str(p1);
      break;
    case Kind::kDuplicate:
      out += "duplicate " + prob_str(p1);
      break;
    case Kind::kReorder:
      out += "reorder " + prob_str(p1) + " " + duration_str(ramp);
      break;
    case Kind::kJam:
      out += "jam " + node_list_str(nodes);
      break;
    case Kind::kUnjam:
      out += "unjam " + node_list_str(nodes);
      break;
    case Kind::kRingCrash:
      out += "ring-crash " + node_list_str(nodes);
      break;
    case Kind::kRingRestart:
      out += "ring-restart " + node_list_str(nodes);
      break;
  }
  return out;
}

Result<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::stringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::stringstream ss(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ss >> token) tokens.push_back(token);
    if (tokens.empty()) continue;

    const auto error = [&](const std::string& what) {
      return fail("faults line " + std::to_string(line_no) + ": " + what);
    };
    if (tokens[0] != "at" || tokens.size() < 3) {
      return error("expected 'at <time> <command> ...'");
    }
    FaultEvent event;
    const auto at = parse_duration_token(tokens[1]);
    if (!at) return error("bad time '" + tokens[1] + "'");
    event.at = *at;

    const std::string& cmd = tokens[2];
    const auto need = [&](std::size_t count) {
      return tokens.size() == 3 + count;
    };
    const auto nodes_arg = [&](std::size_t index)
        -> std::optional<std::vector<std::size_t>> {
      if (tokens.size() <= 3 + index) return std::nullopt;
      return parse_node_list(tokens[3 + index]);
    };

    if (cmd == "crash" || cmd == "restart" || cmd == "kill-gateway" ||
        cmd == "jam" || cmd == "unjam" || cmd == "ring-crash" ||
        cmd == "ring-restart") {
      if (!need(1)) return error(cmd + " takes one node list");
      const auto nodes = nodes_arg(0);
      if (!nodes) return error("bad node list");
      event.nodes = *nodes;
      event.kind = cmd == "crash"          ? FaultEvent::Kind::kCrash
                   : cmd == "restart"      ? FaultEvent::Kind::kRestart
                   : cmd == "kill-gateway" ? FaultEvent::Kind::kKillGateway
                   : cmd == "jam"          ? FaultEvent::Kind::kJam
                   : cmd == "unjam"        ? FaultEvent::Kind::kUnjam
                   : cmd == "ring-crash"   ? FaultEvent::Kind::kRingCrash
                                           : FaultEvent::Kind::kRingRestart;
    } else if (cmd == "partition") {
      if (!need(3) || tokens[4] != "|") {
        return error("expected 'partition <list> | <list>'");
      }
      const auto a = parse_node_list(tokens[3]);
      const auto b = parse_node_list(tokens[5]);
      if (!a || !b) return error("bad node list");
      event.kind = FaultEvent::Kind::kPartition;
      event.nodes = *a;
      event.nodes_b = *b;
    } else if (cmd == "heal") {
      if (!need(0)) return error("heal takes no arguments");
      event.kind = FaultEvent::Kind::kHeal;
    } else if (cmd == "loss") {
      if (!need(3)) return error("expected 'loss <p0> <p1> <ramp>'");
      const auto p0 = parse_prob_token(tokens[3]);
      const auto p1 = parse_prob_token(tokens[4]);
      const auto ramp = parse_duration_token(tokens[5]);
      if (!p0 || !p1 || !ramp) return error("bad loss parameters");
      event.kind = FaultEvent::Kind::kLoss;
      event.p0 = *p0;
      event.p1 = *p1;
      event.ramp = *ramp;
    } else if (cmd == "corrupt" || cmd == "duplicate") {
      if (!need(1)) return error(cmd + " takes one probability");
      const auto p = parse_prob_token(tokens[3]);
      if (!p) return error("bad probability '" + tokens[3] + "'");
      event.kind = cmd == "corrupt" ? FaultEvent::Kind::kCorrupt
                                    : FaultEvent::Kind::kDuplicate;
      event.p1 = *p;
    } else if (cmd == "reorder") {
      if (!need(2)) return error("expected 'reorder <p> <max-delay>'");
      const auto p = parse_prob_token(tokens[3]);
      const auto delay = parse_duration_token(tokens[4]);
      if (!p || !delay) return error("bad reorder parameters");
      event.kind = FaultEvent::Kind::kReorder;
      event.p1 = *p;
      event.ramp = *delay;
    } else {
      return error("unknown command '" + cmd + "'");
    }
    plan.events.push_back(std::move(event));
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultPlan FaultPlan::generate(
    std::uint64_t seed, Duration duration, std::size_t nodes,
    const std::vector<std::size_t>& protected_nodes,
    std::size_t ring_nodes) {
  // Never the simulation RNG: the plan generator has its own splitmix64-
  // derived stream, so a chaos run's *workload* packet schedule matches a
  // faultless run of the same seed up to the first injected fault.
  Rng rng(SimContext::derive_seed(seed, 0xfa017));
  FaultPlan plan;
  const double total = to_seconds(duration);
  const auto at = [&](double lo_frac, double hi_frac) {
    return quantize_ms(total * rng.uniform(lo_frac, hi_frac));
  };

  std::vector<std::size_t> expendable;
  for (std::size_t i = 0; i < nodes; ++i) {
    if (std::find(protected_nodes.begin(), protected_nodes.end(), i) ==
        protected_nodes.end()) {
      expendable.push_back(i);
    }
  }

  // Always at least one corruption epoch (the codec-hardening soak needs
  // corrupted frames on the air) ...
  {
    const Duration start = at(0.05, 0.30);
    const Duration stop = start + at(0.20, 0.35);
    const double p = quantize(rng.uniform(0.02, 0.10));
    plan.events.push_back({start, FaultEvent::Kind::kCorrupt, {}, {}, 0, p});
    plan.events.push_back(
        {std::min(stop, quantize_ms(total * 0.9)),
         FaultEvent::Kind::kCorrupt, {}, {}, 0, 0.0});
  }
  // ... and one loss ramp.
  {
    const Duration start = at(0.20, 0.50);
    const Duration ramp = at(0.08, 0.18);
    const Duration stop = start + ramp + at(0.05, 0.15);
    const double p1 = quantize(rng.uniform(0.15, 0.45));
    plan.events.push_back(
        {start, FaultEvent::Kind::kLoss, {}, {}, 0.0, p1, ramp});
    plan.events.push_back({std::min(stop, quantize_ms(total * 0.92)),
                           FaultEvent::Kind::kLoss, {}, {}, 0.0, 0.0,
                           Duration{}});
  }

  // Crash/restart pairs on expendable nodes only, always recovered.
  if (!expendable.empty()) {
    const std::size_t crashes =
        1 + (expendable.size() > 1 && rng.chance(0.5) ? 1 : 0);
    std::vector<std::size_t> pool = expendable;
    for (std::size_t c = 0; c < crashes && !pool.empty(); ++c) {
      const auto pick = rng.uniform_int(
          0, static_cast<std::uint32_t>(pool.size() - 1));
      const std::size_t victim = pool[pick];
      pool.erase(pool.begin() + pick);
      const Duration down_at = at(0.15, 0.55);
      const Duration up_at =
          std::min(down_at + at(0.08, 0.20), quantize_ms(total * 0.88));
      plan.events.push_back(
          {down_at, FaultEvent::Kind::kCrash, {victim}, {}});
      plan.events.push_back(
          {up_at, FaultEvent::Kind::kRestart, {victim}, {}});
    }
  }

  // Contiguous partition (meaningful on the chain/grid topologies the soak
  // uses), always healed.
  if (nodes >= 4 && rng.chance(0.7)) {
    const std::size_t cut =
        1 + rng.uniform_int(0, static_cast<std::uint32_t>(nodes - 3));
    std::vector<std::size_t> a, b;
    for (std::size_t i = 0; i < nodes; ++i) {
      (i <= cut ? a : b).push_back(i);
    }
    const Duration start = at(0.10, 0.45);
    const Duration stop =
        std::min(start + at(0.08, 0.20), quantize_ms(total * 0.85));
    plan.events.push_back(
        {start, FaultEvent::Kind::kPartition, std::move(a), std::move(b)});
    plan.events.push_back({stop, FaultEvent::Kind::kHeal, {}, {}});
  }

  // Optional seasoning: a jam window, duplication and reordering epochs.
  if (!expendable.empty() && rng.chance(0.5)) {
    const std::size_t victim = expendable[rng.uniform_int(
        0, static_cast<std::uint32_t>(expendable.size() - 1))];
    const Duration start = at(0.10, 0.60);
    const Duration stop =
        std::min(start + at(0.05, 0.15), quantize_ms(total * 0.9));
    plan.events.push_back({start, FaultEvent::Kind::kJam, {victim}, {}});
    plan.events.push_back({stop, FaultEvent::Kind::kUnjam, {victim}, {}});
  }
  if (rng.chance(0.5)) {
    const double p = quantize(rng.uniform(0.01, 0.05));
    plan.events.push_back(
        {at(0.10, 0.50), FaultEvent::Kind::kDuplicate, {}, {}, 0, p});
    plan.events.push_back({quantize_ms(total * 0.9),
                           FaultEvent::Kind::kDuplicate, {}, {}, 0, 0.0});
  }
  if (rng.chance(0.5)) {
    const double p = quantize(rng.uniform(0.05, 0.20));
    const Duration delay = milliseconds(rng.uniform_int(5, 40));
    plan.events.push_back(
        {at(0.10, 0.50), FaultEvent::Kind::kReorder, {}, {}, 0, p, delay});
    plan.events.push_back({quantize_ms(total * 0.9),
                           FaultEvent::Kind::kReorder, {}, {}, 0, 0.0,
                           delay});
  }

  // Ring churn last (P2P provider soaks): crash one dedicated ring member
  // mid-run and bring it back early enough for stabilization plus the
  // runtime rejoin to quiesce before the quiet tail. Drawing these after
  // every other stream keeps ring-less plans byte-identical.
  if (ring_nodes > 0) {
    const std::size_t victim =
        1 + rng.uniform_int(0, static_cast<std::uint32_t>(ring_nodes - 1));
    const Duration down_at = at(0.15, 0.50);
    const Duration up_at =
        std::min(down_at + at(0.10, 0.25), quantize_ms(total * 0.8));
    plan.events.push_back(
        {down_at, FaultEvent::Kind::kRingCrash, {victim}, {}});
    plan.events.push_back(
        {up_at, FaultEvent::Kind::kRingRestart, {victim}, {}});
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& event : events) {
    out += event.to_string();
    out += "\n";
  }
  return out;
}

// ===========================================================================
// FaultEngine
// ===========================================================================

FaultEngine::FaultEngine(Testbed& bed) : bed_(bed), side_(bed.size(), 0) {
  // Claim the medium's (single) link-filter slot for partitions.
  bed_.medium().set_link_filter([this](net::NodeId a, net::NodeId b) {
    if (!partition_active_) return true;
    if (a >= side_.size() || b >= side_.size()) return true;
    const int sa = side_[a];
    const int sb = side_[b];
    return sa == 0 || sb == 0 || sa == sb;
  });
}

FaultEngine::~FaultEngine() {
  for (auto& handle : scheduled_) handle.cancel();
  bed_.medium().set_link_filter(nullptr);
}

void FaultEngine::apply(const FaultPlan& plan) {
  for (const auto& event : plan.events) {
    scheduled_.push_back(
        bed_.sim().schedule(event.at, [this, event] { run(event); }));
  }
}

void FaultEngine::run(const FaultEvent& event) {
  using Kind = FaultEvent::Kind;
  switch (event.kind) {
    case Kind::kCrash:
      for (std::size_t n : event.nodes) crash(n);
      break;
    case Kind::kRestart:
      for (std::size_t n : event.nodes) restart(n);
      break;
    case Kind::kKillGateway:
      for (std::size_t n : event.nodes) kill_gateway(n);
      break;
    case Kind::kPartition:
      partition(event.nodes, event.nodes_b);
      break;
    case Kind::kHeal:
      heal();
      break;
    case Kind::kLoss:
      set_loss(event.p0, event.p1, event.ramp);
      break;
    case Kind::kCorrupt:
      set_corrupt(event.p1);
      break;
    case Kind::kDuplicate:
      set_duplicate(event.p1);
      break;
    case Kind::kReorder:
      set_reorder(event.p1, event.ramp);
      break;
    case Kind::kJam:
      for (std::size_t n : event.nodes) jam(n);
      break;
    case Kind::kUnjam:
      for (std::size_t n : event.nodes) unjam(n);
      break;
    case Kind::kRingCrash:
      for (std::size_t n : event.nodes) ring_crash(n);
      break;
    case Kind::kRingRestart:
      for (std::size_t n : event.nodes) ring_restart(n);
      break;
  }
}

void FaultEngine::crash(std::size_t node) {
  if (node >= bed_.size() || !bed_.node_alive(node)) return;
  bed_.crash_node(node);
  note("crash n" + std::to_string(node));
}

void FaultEngine::restart(std::size_t node) {
  if (node >= bed_.size() || bed_.node_alive(node)) return;
  bed_.restart_node(node);
  note("restart n" + std::to_string(node));
}

void FaultEngine::kill_gateway(std::size_t node) {
  if (node >= bed_.size() || !bed_.host(node).has_wired()) return;
  bed_.kill_gateway(node);
  note("kill-gateway n" + std::to_string(node));
}

void FaultEngine::partition(std::vector<std::size_t> a,
                            std::vector<std::size_t> b) {
  std::fill(side_.begin(), side_.end(), 0);
  for (std::size_t n : a) {
    if (n < side_.size()) side_[n] = 1;
  }
  for (std::size_t n : b) {
    if (n < side_.size()) side_[n] = 2;
  }
  partition_active_ = true;
  note("partition " + node_list_str(a) + " | " + node_list_str(b));
}

void FaultEngine::heal() {
  if (!partition_active_) return;
  partition_active_ = false;
  std::fill(side_.begin(), side_.end(), 0);
  note("heal");
}

void FaultEngine::jam(std::size_t node) {
  if (node >= bed_.size() || bed_.medium().jammed(
                                 static_cast<net::NodeId>(node))) {
    return;
  }
  bed_.medium().set_jammed(static_cast<net::NodeId>(node), true);
  jammed_.push_back(node);
  note("jam n" + std::to_string(node));
}

void FaultEngine::unjam(std::size_t node) {
  if (node >= bed_.size() ||
      !bed_.medium().jammed(static_cast<net::NodeId>(node))) {
    return;
  }
  bed_.medium().set_jammed(static_cast<net::NodeId>(node), false);
  std::erase(jammed_, node);
  note("unjam n" + std::to_string(node));
}

void FaultEngine::ring_crash(std::size_t index) {
  bool any = false;
  for (const auto& domain : bed_.p2p_domains()) {
    if (!bed_.ring_node_alive(domain, index)) continue;
    bed_.crash_ring_node(domain, index);
    any = true;
  }
  if (any) note("ring-crash r" + std::to_string(index));
}

void FaultEngine::ring_restart(std::size_t index) {
  bool any = false;
  for (const auto& domain : bed_.p2p_domains()) {
    const auto ring = bed_.p2p_ring(domain);
    if (index == 0 || index >= ring.size() ||
        bed_.ring_node_alive(domain, index)) {
      continue;
    }
    bed_.restart_ring_node(domain, index);
    any = true;
  }
  if (any) note("ring-restart r" + std::to_string(index));
}

void FaultEngine::set_loss(double p0, double p1, Duration ramp) {
  if (p0 <= 0.0 && p1 <= 0.0) {
    bed_.medium().clear_loss_ramp();
    note("loss cleared");
    return;
  }
  const TimePoint now = bed_.sim().now();
  const Duration span = std::max(ramp, Duration(microseconds(1)));
  bed_.medium().set_loss_ramp(now, p0, now + span, p1);
  note("loss " + prob_str(p0) + " -> " + prob_str(p1) + " over " +
       duration_str(ramp));
}

void FaultEngine::set_corrupt(double p) {
  auto knobs = bed_.medium().fault_knobs();
  knobs.corrupt_probability = p;
  bed_.medium().set_fault_knobs(knobs);
  note("corrupt " + prob_str(p));
}

void FaultEngine::set_duplicate(double p) {
  auto knobs = bed_.medium().fault_knobs();
  knobs.duplicate_probability = p;
  bed_.medium().set_fault_knobs(knobs);
  note("duplicate " + prob_str(p));
}

void FaultEngine::set_reorder(double p, Duration max_delay) {
  auto knobs = bed_.medium().fault_knobs();
  knobs.reorder_probability = p;
  if (max_delay > Duration::zero()) knobs.reorder_delay = max_delay;
  bed_.medium().set_fault_knobs(knobs);
  note("reorder " + prob_str(p) + " <= " + duration_str(max_delay));
}

bool FaultEngine::faults_active() const {
  if (partition_active_ || !jammed_.empty()) return true;
  for (std::size_t i = 0; i < bed_.size(); ++i) {
    if (!bed_.node_alive(i)) return true;
  }
  for (const auto& domain : bed_.p2p_domains()) {
    const auto ring = bed_.p2p_ring(domain);
    for (std::size_t i = 1; i < ring.size(); ++i) {
      if (ring[i] == nullptr) return true;  // ring member still down
    }
  }
  const auto& knobs = bed_.medium().fault_knobs();
  if (knobs.corrupt_probability > 0 || knobs.duplicate_probability > 0 ||
      knobs.reorder_probability > 0) {
    return true;
  }
  return bed_.medium().fault_loss_probability(bed_.sim().now()) > 0;
}

bool FaultEngine::quiet_for(Duration window) const {
  if (faults_active()) return false;
  return bed_.sim().now() - last_disruption_ >= window;
}

void FaultEngine::note(const std::string& what) {
  last_disruption_ = bed_.sim().now();
  log_.push_back("[" + format_time(last_disruption_) + "] " + what);
}

}  // namespace siphoc::scenario
