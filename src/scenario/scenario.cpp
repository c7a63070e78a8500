#include "scenario/scenario.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace siphoc::scenario {

std::uint32_t Testbed::lane_of_phone(const voip::SoftPhone& phone) const {
  for (std::size_t k = 0; k < phones_.size(); ++k) {
    if (phones_[k].get() == &phone) return node_lane(phone_nodes_[k]);
  }
  return 0;
}

Testbed::Testbed(Options options) : options_(std::move(options)) {
  sim_ = std::make_unique<sim::Simulator>(options_.seed, options_.context);
  // Fewer than two regions (after clamping to the node count) is the
  // classic sequential kernel.
  const auto regions = static_cast<std::uint32_t>(std::min<std::size_t>(
      options_.sim_regions, std::max<std::size_t>(options_.nodes, 1)));
  if (regions >= 2) {
    sim::Simulator::ShardConfig shard;
    shard.regions = regions;
    shard.lookahead = net::kMacLatency;
    shard.threads = options_.sim_threads;
    sim_->enable_parallelism(shard);
  }
  // Cross-lane hops must cover at least one lookahead window; the radio
  // guarantees this by construction (MAC latency), the wired backbone
  // must be built to.
  static_assert(net::kInternetLatency >= net::kMacLatency);

  medium_ = std::make_unique<net::RadioMedium>(*sim_, options_.radio);
  internet_ = std::make_unique<net::Internet>(*sim_, net::kInternetLatency);

  std::vector<net::Position> positions;
  switch (options_.topology) {
    case Topology::kChain:
      positions = net::chain_positions(options_.nodes, options_.spacing);
      break;
    case Topology::kGrid:
      positions = net::grid_positions(options_.nodes, options_.spacing);
      break;
    case Topology::kRandomArea: {
      Rng placement(options_.seed ^ 0x9e3779b97f4a7c15ull);
      for (std::size_t i = 0; i < options_.nodes; ++i) {
        positions.push_back({placement.uniform(0, options_.area),
                             placement.uniform(0, options_.area)});
      }
      break;
    }
  }

  if (sim_->sharded()) {
    // Contiguous spatial strips: order nodes by (x, y, index), slice into
    // equal-size runs, one region lane per slice. A node's *initial*
    // position fixes its home lane for the whole run (mobile nodes keep
    // their lane; the barrier position snapshot keeps deliveries exact as
    // they roam). The assignment depends only on scenario content, so it
    // is identical for every thread count.
    const std::uint32_t regions = sim_->lane_count() - 1;
    std::vector<std::size_t> order(options_.nodes);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const net::Position& pa = positions[a];
      const net::Position& pb = positions[b];
      if (pa.x != pb.x) return pa.x < pb.x;
      if (pa.y != pb.y) return pa.y < pb.y;
      return a < b;
    });
    node_lanes_.assign(options_.nodes, 0);
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      node_lanes_[order[rank]] = 1 + static_cast<std::uint32_t>(
                                         rank * regions / order.size());
    }
    medium_->configure_lanes([this](net::NodeId mac) {
      // MANET radios use the node index as MAC; anything else (Internet
      // hosts) belongs to the scenario lane.
      return mac < node_lanes_.size() ? node_lanes_[mac] : 0u;
    });
  }

  for (std::size_t i = 0; i < options_.nodes; ++i) {
    // Each node is built on its home lane: its host RNG forks from the
    // lane stream, its timers/events queue on the lane, its instruments
    // register in the lane's metrics registry.
    sim::Simulator::LaneScope lane_scope(*sim_, node_lane(i));
    auto host = std::make_unique<net::Host>(
        *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
    std::shared_ptr<net::MobilityModel> mobility;
    if (options_.mobile) {
      mobility = std::make_shared<net::RandomWaypointMobility>(
          positions[i], options_.waypoint, sim_->rng().fork());
    } else {
      mobility = std::make_shared<net::StaticMobility>(positions[i]);
    }
    host->attach_radio(*medium_, manet_address(i), std::move(mobility));

    stacks_.push_back(std::make_unique<NodeStack>(
        *host, internet_.get(), options_.routing, options_.stack));
    hosts_.push_back(std::move(host));
  }
}

Testbed::~Testbed() {
  // Stop middleware before hosts/medium go away (crashed slots are null).
  for (auto& stack : stacks_) {
    if (stack) stack->stop();
  }
  // Backstop for callers that read the main registry after the testbed is
  // gone; a no-op when finalize_metrics() already ran.
  sim_->merge_lane_metrics();
}

void Testbed::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (!stacks_[i]) continue;
    sim::Simulator::LaneScope lane_scope(*sim_, node_lane(i));
    stacks_[i]->start();
  }
}

voip::SoftPhone& Testbed::add_phone(std::size_t node,
                                    const std::string& username,
                                    const std::string& domain) {
  voip::SoftPhoneConfig config;
  config.username = username;
  config.domain = domain;
  return add_phone(node, std::move(config));
}

voip::SoftPhone& Testbed::add_phone(std::size_t node,
                                    voip::SoftPhoneConfig config) {
  if (std::ranges::find(phone_nodes_, node) != phone_nodes_.end()) {
    throw std::invalid_argument("node " + std::to_string(node) +
                                " already has a phone");
  }
  sim::Simulator::LaneScope lane_scope(*sim_, node_lane(node));
  phones_.push_back(
      std::make_unique<voip::SoftPhone>(host(node), std::move(config)));
  phone_nodes_.push_back(node);
  return *phones_.back();
}

void Testbed::crash_node(std::size_t i) {
  if (!node_alive(i)) return;
  sim::Simulator::LaneScope lane_scope(*sim_, node_lane(i));
  // Radio off before teardown: the dying stack's parting messages (tunnel
  // Disconnects, routing errors) must vanish, like a battery being pulled.
  medium_->set_enabled(static_cast<net::NodeId>(i), false);
  for (std::size_t k = 0; k < phones_.size(); ++k) {
    if (phone_nodes_[k] == i) phones_[k]->power_off();
  }
  stacks_[i]->stop();
  stacks_[i].reset();
}

void Testbed::restart_node(std::size_t i) {
  if (node_alive(i)) return;
  // Rebuild on the node's home lane (a no-op scope when unsharded): the
  // fresh stack's timers and instruments must live with its region even
  // when the restart is driven from a scenario-lane chaos event.
  sim::Simulator::LaneScope lane_scope(*sim_, node_lane(i));
  medium_->set_enabled(static_cast<net::NodeId>(i), true);
  stacks_[i] = std::make_unique<NodeStack>(*hosts_[i], internet_.get(),
                                           options_.routing, options_.stack);
  if (started_) stacks_[i]->start();
  for (std::size_t k = 0; k < phones_.size(); ++k) {
    if (phone_nodes_[k] == i) phones_[k]->power_on();
  }
}

bool Testbed::register_and_wait(voip::SoftPhone& phone, Duration max_wait) {
  struct Outcome {
    bool done = false;
    bool ok = false;
  };
  auto outcome = std::make_shared<Outcome>();
  // Wrap (not replace) the application's handlers; restore them after.
  const voip::SoftPhoneEvents saved = phone.events();
  voip::SoftPhoneEvents events = saved;
  events.on_registered = [outcome, chained = saved.on_registered](bool ok,
                                                                  int status) {
    outcome->done = true;
    outcome->ok = ok;
    if (chained) chained(ok, status);
  };
  phone.set_events(std::move(events));
  {
    // Registration timers and REGISTER transmission start on the phone's
    // home lane.
    sim::Simulator::LaneScope lane_scope(*sim_, lane_of_phone(phone));
    phone.power_on();
  }
  const TimePoint deadline = sim_->now() + max_wait;
  while (!outcome->done && sim_->now() < deadline) {
    sim_->run_for(milliseconds(10));
  }
  phone.set_events(saved);
  return outcome->ok;
}

Testbed::CallResult Testbed::call_and_wait(voip::SoftPhone& caller,
                                           const std::string& target,
                                           Duration max_wait) {
  struct Outcome {
    bool done = false;
    bool established = false;
    int status = 0;
  };
  auto outcome = std::make_shared<Outcome>();
  const voip::SoftPhoneEvents saved = caller.events();
  voip::SoftPhoneEvents events = saved;
  events.on_established = [outcome,
                           chained = saved.on_established](sip::CallId id) {
    outcome->done = true;
    outcome->established = true;
    if (chained) chained(id);
  };
  events.on_failed = [outcome, chained = saved.on_failed](sip::CallId id,
                                                          int status) {
    outcome->done = true;
    outcome->status = status;
    if (chained) chained(id, status);
  };
  caller.set_events(std::move(events));

  CallResult result;
  const TimePoint started = sim_->now();
  {
    sim::Simulator::LaneScope lane_scope(*sim_, lane_of_phone(caller));
    result.call = caller.dial(target);
  }
  const TimePoint deadline = started + max_wait;
  while (!outcome->done && sim_->now() < deadline) {
    sim_->run_for(milliseconds(1));
  }
  caller.set_events(saved);
  result.established = outcome->established;
  result.setup_time = sim_->now() - started;
  result.failure_status = outcome->done ? outcome->status : 408;
  return result;
}

void Testbed::make_gateway(std::size_t node) {
  const net::Address wired{net::kInternetPrefix.value() + 100 +
                           static_cast<std::uint32_t>(node)};
  host(node).attach_wired(*internet_, wired);
}

sip::Registrar& Testbed::add_provider(const std::string& domain,
                                      bool require_outbound_proxy) {
  ProviderOptions options;
  options.require_outbound_proxy = require_outbound_proxy;
  return add_provider(domain, options);
}

sip::Registrar& Testbed::add_provider(const std::string& domain,
                                      const ProviderOptions& options) {
  net::Host& server = add_internet_host("provider-" + domain);
  sip::RegistrarConfig config;
  config.domain = domain;
  config.require_outbound_proxy = options.require_outbound_proxy;
  config.store_shards = options.store_shards;
  if (options.require_outbound_proxy) {
    // The provider's own outbound proxy is a real box at an address DNS
    // does not reveal -- the polyphone.ethz.ch situation. Clients (or a
    // provisioned SIPHoc proxy) must relay through it.
    net::Host& proxy_host = add_internet_host("obproxy-" + domain);
    config.trusted_proxy = proxy_host.wired_address();
    sip::OutboundProxyConfig ob;
    ob.next_hop = {server.wired_address(), 5060};
    provider_proxies_.push_back(
        std::make_unique<sip::OutboundProxy>(proxy_host, ob));
    provider_proxy_endpoints_[domain] = {proxy_host.wired_address(), 5060};
  }
  internet_->register_domain(domain, server.wired_address());
  providers_.push_back(
      std::make_unique<sip::Registrar>(server, std::move(config)));
  sip::Registrar& registrar = *providers_.back();

  if (options.resolution == Resolution::kP2p) {
    // The ring: one resolver on the front door plus `p2p_nodes` dedicated
    // Internet boxes. Membership is installed up-front here; from then on
    // the resolvers' own stabilization timers keep the view live through
    // crash_ring_node / restart_ring_node churn.
    std::vector<sip::P2pResolver*> ring;
    std::vector<net::Host*> ring_hosts;
    ring.push_back(new sip::P2pResolver(server));
    ring_hosts.push_back(&server);
    p2p_resolvers_.emplace_back(ring.back());
    for (std::size_t i = 0; i < options.p2p_nodes; ++i) {
      net::Host& node = add_internet_host("ring-" + domain + "-" +
                                          std::to_string(i));
      ring.push_back(new sip::P2pResolver(node));
      ring_hosts.push_back(&node);
      p2p_resolvers_.emplace_back(ring.back());
    }
    std::vector<net::Endpoint> members;
    members.reserve(ring.size());
    for (const auto* r : ring) members.push_back(r->endpoint());
    for (auto* r : ring) r->join(members);
    registrar.set_p2p_resolver(ring.front());
    p2p_rings_[domain] = std::move(ring);
    p2p_ring_hosts_[domain] = std::move(ring_hosts);
  }
  return registrar;
}

void Testbed::crash_ring_node(const std::string& domain, std::size_t index) {
  const auto ring_it = p2p_rings_.find(domain);
  if (ring_it == p2p_rings_.end() || index == 0 ||
      index >= ring_it->second.size()) {
    return;
  }
  sip::P2pResolver* victim = ring_it->second[index];
  if (victim == nullptr) return;  // already down
  // Destroying the resolver unbinds its port and cancels its timers and
  // in-flight lookups: from the ring's point of view the node just went
  // silent. Peers discover it through unanswered stabilization probes.
  std::erase_if(p2p_resolvers_,
                [victim](const std::unique_ptr<sip::P2pResolver>& r) {
                  return r.get() == victim;
                });
  ring_it->second[index] = nullptr;
}

void Testbed::restart_ring_node(const std::string& domain,
                                std::size_t index) {
  const auto ring_it = p2p_rings_.find(domain);
  if (ring_it == p2p_rings_.end() || index == 0 ||
      index >= ring_it->second.size()) {
    return;
  }
  if (ring_it->second[index] != nullptr) return;  // already up
  net::Host* ring_host = p2p_ring_hosts_.at(domain).at(index);
  p2p_resolvers_.push_back(std::make_unique<sip::P2pResolver>(*ring_host));
  sip::P2pResolver* node = p2p_resolvers_.back().get();
  ring_it->second[index] = node;
  // Cold boot: empty store, singleton view. The runtime join through the
  // front door brings membership and re-replication to it.
  node->join_ring(ring_it->second.front()->endpoint());
}

bool Testbed::ring_node_alive(const std::string& domain,
                              std::size_t index) const {
  const auto ring_it = p2p_rings_.find(domain);
  return ring_it != p2p_rings_.end() && index < ring_it->second.size() &&
         ring_it->second[index] != nullptr;
}

std::vector<std::string> Testbed::p2p_domains() const {
  std::vector<std::string> domains;
  domains.reserve(p2p_rings_.size());
  for (const auto& [domain, ring] : p2p_rings_) domains.push_back(domain);
  return domains;
}

std::vector<sip::P2pResolver*> Testbed::p2p_ring(
    const std::string& domain) const {
  const auto it = p2p_rings_.find(domain);
  return it != p2p_rings_.end() ? it->second
                                : std::vector<sip::P2pResolver*>{};
}

std::optional<net::Endpoint> Testbed::provider_outbound_proxy(
    const std::string& domain) const {
  const auto it = provider_proxy_endpoints_.find(domain);
  if (it == provider_proxy_endpoints_.end()) return std::nullopt;
  return it->second;
}

net::Host& Testbed::add_internet_host(const std::string& name) {
  const net::Address address{net::kInternetPrefix.value() +
                             next_internet_octet_++};
  auto host = std::make_unique<net::Host>(
      *sim_,
      static_cast<net::NodeId>(1000 + internet_hosts_.size()), name);
  host->attach_wired(*internet_, address);
  internet_hosts_.push_back(std::move(host));
  return *internet_hosts_.back();
}

}  // namespace siphoc::scenario
