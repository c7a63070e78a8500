// Testbed builder: programmatic construction of complete SIPHoc deployments.
//
// This is the emulation counterpart of the paper's physical testbed ("about
// 10 laptops and a bunch of handhelds. Some of the devices are separated by
// firewalls to enforce multihop communication", section 4): it wires the
// simulator, radio medium, Internet segment, per-node hosts, SIPHoc stacks,
// softphones, SIP providers and gateways, and provides blocking-style
// helpers ("place a call, wait for it to establish") that tests, examples
// and benchmarks all share.
#pragma once

#include <memory>
#include <vector>

#include "common/context.hpp"
#include "siphoc/node_stack.hpp"
#include "sip/outbound_proxy.hpp"
#include "sip/p2p_resolver.hpp"
#include "sip/registrar.hpp"
#include "voip/softphone.hpp"

namespace siphoc::scenario {

enum class Topology { kChain, kGrid, kRandomArea };

struct Options {
  std::uint64_t seed = 42;
  /// Context the testbed's simulation reports into, for callers that read
  /// it after the testbed is gone; null means the simulator owns a fresh
  /// one. The parallel cell runner gives every cell its own.
  SimContext* context = nullptr;
  std::size_t nodes = 2;
  Topology topology = Topology::kChain;
  double spacing = 100;  // metres between chain/grid neighbors
  double area = 500;     // random-area side length
  net::RadioConfig radio;
  RoutingKind routing = RoutingKind::kAodv;
  bool mobile = false;
  net::RandomWaypointConfig waypoint;
  NodeStackConfig stack;

  // --- intra-simulation parallelism (docs/ARCHITECTURE.md) --------------
  /// Number of spatial regions to shard the simulation into (clamped to
  /// the node count). This is simulation *content*: any value >= 2
  /// switches the kernel to region lanes with derived per-lane RNG
  /// streams, so results depend on it -- like `seed` or `nodes`. 0 and 1
  /// both run the classic sequential kernel and give identical results.
  std::uint32_t sim_regions = 0;
  /// Worker threads executing the simulation. Pure execution policy:
  /// results are byte-identical for any value (asserted by ctest).
  unsigned sim_threads = 1;
};

class Testbed {
 public:
  explicit Testbed(Options options);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& sim() { return *sim_; }
  SimContext& ctx() { return sim_->ctx(); }

  /// Home lane of node i: 0 when unsharded, 1 + its region otherwise.
  std::uint32_t node_lane(std::size_t i) const {
    return node_lanes_.empty() ? 0 : node_lanes_.at(i);
  }
  /// Folds every region lane's metrics into the main context (one-shot,
  /// lane order). Call after the last run_for and before exporting
  /// metrics; the destructor calls it as a backstop.
  void finalize_metrics() { sim_->merge_lane_metrics(); }

  net::RadioMedium& medium() { return *medium_; }
  net::Internet& internet() { return *internet_; }
  std::size_t size() const { return hosts_.size(); }
  net::Host& host(std::size_t i) { return *hosts_.at(i); }
  NodeStack& stack(std::size_t i) { return *stacks_.at(i); }
  const Options& options() const { return options_; }

  // --- fault injection (the chaos engine's hooks; docs/RESILIENCE.md) ------
  /// Tears down node i's entire middleware stack mid-run: radio silenced
  /// first (the dying stack's goodbyes go nowhere), softphones on the node
  /// power off, then the NodeStack is destroyed. The Host and its phones
  /// survive -- only the middleware dies, like killing the paper's five
  /// SIPHoc processes on one laptop.
  void crash_node(std::size_t i);
  /// Respawns a crashed node: radio back on, a fresh NodeStack is built
  /// from the testbed options and started, and the node's phones power on
  /// again (cold boot: empty routing tables, empty SLP cache, no tunnel).
  void restart_node(std::size_t i);
  /// True while node i has a live middleware stack.
  bool node_alive(std::size_t i) const { return stacks_.at(i) != nullptr; }
  /// Rips the wired uplink off a gateway node; its Gateway Provider
  /// self-detects within one check interval and withdraws the service.
  void kill_gateway(std::size_t i) { host(i).detach_wired(); }

  /// Crashes ring node `index` of `domain`'s P2P ring (kP2p providers
  /// only): the resolver is destroyed mid-run -- its UDP port goes dark,
  /// its stored replicas are lost -- while the Internet host survives for
  /// a later restart. Index 0 is the provider front door (it hosts the
  /// registrar's delegate) and cannot be crashed.
  void crash_ring_node(const std::string& domain, std::size_t index);
  /// Rebuilds a crashed ring node's resolver cold (empty record store) and
  /// rejoins it through the front door -- the runtime join_ring() path
  /// with membership broadcast and key handoff.
  void restart_ring_node(const std::string& domain, std::size_t index);
  /// True while ring node `index` of `domain`'s ring has a live resolver.
  bool ring_node_alive(const std::string& domain, std::size_t index) const;
  /// Domains served by a P2P ring (fault targeting, invariant checks).
  std::vector<std::string> p2p_domains() const;

  std::size_t phone_count() const { return phones_.size(); }
  /// Testbed node a phone was added on (for fault targeting).
  std::size_t phone_node(std::size_t index) const {
    return phone_nodes_.at(index);
  }

  /// MANET address assignment convention: node i owns 10.0.0.(i+1).
  static net::Address manet_address(std::size_t i) {
    return net::Address{net::kManetPrefix.value() +
                        static_cast<std::uint32_t>(i + 1)};
  }

  /// Starts every node's middleware stack.
  void start();
  void run_for(Duration d) { sim_->run_for(d); }

  /// Lets routing (and proactive SLP) converge before the workload starts.
  void settle(Duration d = seconds(5)) { run_for(d); }

  // --- application layer --------------------------------------------------
  /// Creates a softphone on a node, configured exactly as the paper's
  /// Figure 2: account user@domain, outbound proxy localhost. A node runs
  /// one VoIP application, which owns the node's SIP port: a second phone
  /// on a node throws std::invalid_argument and adds nothing.
  voip::SoftPhone& add_phone(std::size_t node, const std::string& username,
                             const std::string& domain = "voicehoc.ch");
  voip::SoftPhone& add_phone(std::size_t node, voip::SoftPhoneConfig config);
  voip::SoftPhone& phone(std::size_t index) { return *phones_.at(index); }

  /// Registers a phone and waits for the result (local 200 in an isolated
  /// MANET, or the provider's verdict when Internet-connected).
  bool register_and_wait(voip::SoftPhone& phone,
                         Duration max_wait = seconds(10));

  struct CallResult {
    bool established = false;
    Duration setup_time{};
    sip::CallId call = 0;
    int failure_status = 0;  // 408 on timeout
  };
  /// Dials and runs the simulation until the call establishes or fails.
  CallResult call_and_wait(voip::SoftPhone& caller, const std::string& target,
                           Duration max_wait = seconds(15));

  // --- Internet side -------------------------------------------------------
  /// Attaches a wired uplink to a MANET node, making it a gateway candidate
  /// (its Gateway Provider will start serving within one advertise period).
  void make_gateway(std::size_t node);

  /// How a provider resolves contacts: the central registrar store, or a
  /// Chord-lite P2P ring of Internet nodes (sip/p2p_resolver.hpp).
  enum class Resolution { kRegistrar, kP2p };

  struct ProviderOptions {
    bool require_outbound_proxy = false;
    /// Registrar binding backend: 0 = sequential single map, >= 1 =
    /// ShardedBindingStore with that many shards.
    std::size_t store_shards = 0;
    Resolution resolution = Resolution::kRegistrar;
    /// Ring nodes spawned *besides* the provider front door when
    /// `resolution == kP2p` (front door included, the ring has
    /// p2p_nodes + 1 members).
    std::size_t p2p_nodes = 4;
  };

  /// Spawns a SIP provider (registrar + domain proxy) on the Internet
  /// segment and registers its domain in DNS. With
  /// `require_outbound_proxy`, the provider only accepts requests relayed
  /// through its own outbound proxy (spawned alongside) -- the
  /// polyphone.ethz.ch situation of paper §3.2.
  sip::Registrar& add_provider(const std::string& domain,
                               bool require_outbound_proxy = false);
  /// Full-options form: store backend selection and P2P ring resolution
  /// (EXPERIMENTS.md E11 compares the two call-setup paths).
  sip::Registrar& add_provider(const std::string& domain,
                               const ProviderOptions& options);

  /// The P2P ring serving a kP2p provider's domain (front door first);
  /// empty for registrar-backed providers. Crashed members are nullptr
  /// until restarted.
  std::vector<sip::P2pResolver*> p2p_ring(const std::string& domain) const;

  /// The endpoint of a provider's dedicated outbound proxy (only for
  /// providers created with require_outbound_proxy). Feed this into
  /// ProxyConfig::provider_outbound_proxies to exercise the open-issue fix.
  std::optional<net::Endpoint> provider_outbound_proxy(
      const std::string& domain) const;

  /// A plain Internet host (for Internet-side softphones).
  net::Host& add_internet_host(const std::string& name);

 private:
  std::uint32_t lane_of_phone(const voip::SoftPhone& phone) const;

  Options options_;
  std::unique_ptr<sim::Simulator> sim_;
  std::vector<std::uint32_t> node_lanes_;  // node index -> home lane
  std::unique_ptr<net::RadioMedium> medium_;
  std::unique_ptr<net::Internet> internet_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<NodeStack>> stacks_;
  std::vector<std::unique_ptr<voip::SoftPhone>> phones_;
  std::vector<std::size_t> phone_nodes_;  // phones_[k] lives on node phone_nodes_[k]
  std::vector<std::unique_ptr<net::Host>> internet_hosts_;
  std::vector<std::unique_ptr<sip::Registrar>> providers_;
  std::vector<std::unique_ptr<sip::P2pResolver>> p2p_resolvers_;
  std::map<std::string, std::vector<sip::P2pResolver*>> p2p_rings_;
  std::map<std::string, std::vector<net::Host*>> p2p_ring_hosts_;
  std::vector<std::unique_ptr<sip::OutboundProxy>> provider_proxies_;
  std::map<std::string, net::Endpoint> provider_proxy_endpoints_;
  std::uint32_t next_internet_octet_ = 10;
  bool started_ = false;
};

}  // namespace siphoc::scenario
