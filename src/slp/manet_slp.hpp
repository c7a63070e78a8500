// MANET SLP: decentralized service location via routing-message
// piggybacking -- the paper's central mechanism.
//
// The daemon implements routing::RoutingHandler and is installed into the
// local routing protocol as its extension plugin ("we have to load the
// right plugin for the routing protocol we are using", section 3.1 /
// Figure 4's second line). Behaviour per protocol:
//
//   AODV (reactive plugin):
//     - local registrations ride on RREP answers (and, in the hello-gossip
//       ablation, on HELLOs);
//     - a cache-miss lookup piggybacks a ServiceQuery on a destination-less
//       RREQ flood; whichever node owns a match answers with an RREP that
//       carries the ServiceReply *and establishes the route back to it* --
//       service resolution and route setup in one round trip (Figure 5);
//   OLSR (proactive plugin):
//     - local registrations ride on periodic HELLO and TC messages, so TC's
//       MPR flooding converges every node's cache with zero extra packets;
//       lookups are then answered locally.
#pragma once

#include <map>
#include <string_view>

#include "common/logging.hpp"
#include "net/host.hpp"
#include "routing/protocol.hpp"
#include "slp/directory.hpp"

namespace siphoc::slp {

struct ManetSlpConfig {
  /// Local advertisements ride on every OLSR HELLO and TC and on every
  /// AODV RREP; AODV HELLOs carry them only with this set (ablation:
  /// hello gossip on top of on-demand resolution).
  bool advertise_on_aodv_hello = false;
  /// Disables piggybacking entirely (ablation: MANET SLP degenerates to a
  /// cache that never fills; lookups always miss).
  bool piggyback_enabled = true;
  /// Intermediate nodes may answer a flooded query from their cache (like
  /// AODV intermediate-node RREPs); disable to make only the owner answer
  /// (ablation: measures what cache answering buys).
  bool answer_from_cache = true;
};

class ManetSlp final : public Directory, public routing::RoutingHandler {
 public:
  /// Per-packet cap on advertisement records, to bound routing-packet
  /// growth on nodes with many registrations.
  static constexpr std::size_t kMaxAdvertsPerPacket = 8;

  /// Installs itself as the protocol's routing handler.
  ManetSlp(net::Host& host, routing::Protocol& protocol,
           ManetSlpConfig config = {});
  ~ManetSlp() override;

  // --- Directory ---------------------------------------------------------
  void register_service(std::string type, std::string key, std::string value,
                        Duration lifetime) override;
  void deregister_service(const std::string& type,
                          const std::string& key) override;
  void lookup(std::string type, std::string key, Duration timeout,
              LookupCallback callback) override;
  std::vector<ServiceEntry> snapshot() const override;

  // --- RoutingHandler ------------------------------------------------------
  Bytes on_outgoing(const routing::PacketInfo& info) override;
  routing::HandlerVerdict on_incoming(const routing::PacketInfo& info,
                                      std::span<const std::uint8_t> extension,
                                      net::Address from) override;

  /// Learned-entry count (tests).
  std::size_t cache_size() const { return cache_.size(); }

  /// Drops cached entries whose `expires` has passed. Lookups already
  /// filter expired entries, but the invariant monitor wants the directory
  /// itself to forget dead nodes' registrations, not merely ignore them.
  void purge_expired();

  /// Raw cache view including expired entries (invariant monitor / tests);
  /// snapshot() is the filtered public view.
  std::vector<ServiceEntry> cache_contents() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (type, key)
  using KeyView = std::pair<std::string_view, std::string_view>;
  /// Orders Key and KeyView alike, so lookups need not copy strings.
  struct KeyLess {
    using is_transparent = void;
    static KeyView view(const Key& k) { return {k.first, k.second}; }
    static KeyView view(const KeyView& k) { return k; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return view(a) < view(b);
    }
  };

  TimePoint now() const { return host_.sim().now(); }
  std::optional<ServiceEntry> find_match(const std::string& type,
                                         const std::string& key) const;
  void absorb(const ServiceEntry& entry);
  void resolve_pending(const ServiceEntry& entry);
  bool should_advertise(const routing::PacketInfo& info) const;

  struct PendingLookup {
    std::uint32_t id = 0;
    std::string type;
    std::string key;
    LookupCallback callback;
    sim::EventHandle timeout;
    TimePoint started{};  // resolve latency span start
  };

  struct Metrics {
    Metrics(MetricsRegistry& registry, std::string_view node);
    MetricsRegistry* registry;  // the simulation's registry (spans)
    Counter& lookups;
    Counter& cache_hits;
    Counter& remote_resolves;
    Counter& lookup_timeouts;
    Counter& adverts_piggybacked;
    Counter& queries_answered;
    Counter& entries_absorbed;
    Counter& decode_errors;
    Gauge& cache_entries;
    Histogram& resolve_ms;
  };

  net::Host& host_;
  routing::Protocol& protocol_;
  ManetSlpConfig config_;
  Logger log_;

  std::map<Key, ServiceEntry, KeyLess> local_;  // authoritative registrations
  std::map<Key, ServiceEntry, KeyLess> cache_;  // learned from the network
  // Lower bound on the earliest `expires` in cache_: purge_expired() has
  // nothing to erase before it. absorb(), the only writer of cache_, lowers
  // it on every write; a purge that scans recomputes it exactly.
  TimePoint cache_next_expiry_ = TimePoint::max();
  std::vector<PendingLookup> pending_;
  std::uint32_t next_query_id_ = 1;
  std::uint32_t version_counter_ = 1;
  Metrics metrics_;
};

}  // namespace siphoc::slp
