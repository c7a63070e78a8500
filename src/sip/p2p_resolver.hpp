// Serverless contact resolution: a Chord-lite DHT ring among gateway /
// Internet nodes, in the spirit of the IAX-based P2P VoIP architecture
// (PAPERS.md). Instead of one provider registrar owning every binding,
// each AOR hashes onto the same 64-bit ring the sharded store uses
// (hash_aor), and the node whose id succeeds the key stores the binding
// (replicated to the next two successors). Lookups hop greedily
// through finger tables -- O(log n) hops, each paying one wired RTT -- so
// gateway-centric vs P2P call-setup cost becomes a measurable tradeoff
// (EXPERIMENTS.md E11/E12) rather than prose.
//
// The overlay is *live* (docs/RESILIENCE.md, "ring faults"): a maintenance
// timer probes the successor list, repairs membership when probes go
// unanswered, rebuilds fingers, and re-replicates records on every
// membership change so each binding keeps two live replicas.
// Nodes join and leave at runtime (join_ring() / leave()) with key
// handoff; lookups carry a per-hop timeout and retry through the next
// live finger/successor with exponential backoff and a dead-node
// suspicion list, so a query survives any single ring-node loss mid-
// flight. "Lite" still applies to discovery: membership changes are
// broadcast to the (small) ring rather than discovered through full
// Chord stabilization gossip -- deterministic, and the measured
// quantities (hops, per-hop latency, storage spread, repair time) are
// preserved.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "sip/registrar_store.hpp"

namespace siphoc::sip {

class P2pResolver {
 public:
  explicit P2pResolver(net::Host& host);
  ~P2pResolver();

  P2pResolver(const P2pResolver&) = delete;
  P2pResolver& operator=(const P2pResolver&) = delete;

  /// This node's position on the hash ring (derived from its endpoint).
  std::uint64_t node_id() const { return node_id_; }
  net::Endpoint endpoint() const;
  net::Host& host() { return host_; }

  /// Installs ring state in one shot: `members` is every ring node's
  /// endpoint (self included). The testbed uses this to bootstrap a ring;
  /// from then on the maintenance timer keeps the view live.
  void join(const std::vector<net::Endpoint>& members);
  /// Runtime join through a live member: announces this node to
  /// `bootstrap`, which replies with the full membership and broadcasts
  /// the arrival; existing members hand off records in the new arc.
  void join_ring(net::Endpoint bootstrap);
  /// Graceful departure: hands every held record off into the ring, then
  /// broadcasts the departure and reverts to a singleton view.
  void leave();

  /// Stores aor -> contact at the responsible node (routed through the
  /// ring from here, hop by hop).
  void publish(const std::string& aor, const Uri& contact, TimePoint expires);
  void unpublish(const std::string& aor);

  /// Resolves an AOR through the ring. The callback receives the binding
  /// (or nullopt on miss/timeout) and the number of ring hops the query
  /// travelled (-1 on timeout/drop).
  using ResolveCallback =
      std::function<void(std::optional<ContactBinding>, int hops)>;
  void resolve(const std::string& aor, ResolveCallback callback);

  /// Bindings this node is responsible for (replicas included).
  std::size_t stored_records() const { return records_.size(); }
  /// The unexpired record this node holds for `aor`, if any (invariant
  /// monitor / test introspection; no metrics side effects).
  std::optional<ContactBinding> stored(const std::string& aor) const {
    return records_.lookup(aor, host_.sim().now());
  }
  /// Live members in this node's view (self included).
  std::size_t view_size() const { return view_.size(); }
  /// True while the view has been steady for a stabilization interval and
  /// nobody is under suspicion -- the registrar answers resolver misses
  /// with 480 + Retry-After instead of 404 while this is false.
  bool stable() const;
  /// The ring id an AOR hashes to (== hash_aor; test introspection).
  static std::uint64_t key_of(const std::string& aor) {
    return hash_aor(aor);
  }

 private:
  struct RingNode {
    std::uint64_t id;
    net::Endpoint endpoint;
    bool operator<(const RingNode& other) const { return id < other.id; }
  };
  struct Pending {
    ResolveCallback callback;
    sim::EventHandle deadline;  // end-to-end lookup_timeout
    sim::EventHandle retry;     // per-attempt hop timeout
    TimePoint started{};
    std::string aor;
    std::uint64_t key = 0;
    int attempts = 0;
    std::vector<std::uint64_t> tried;  // first-hop ids already attempted
  };

  static std::uint64_t id_of(net::Endpoint endpoint);

  void on_datagram(const net::Datagram& datagram);
  void handle_put(std::string_view verb, std::string_view rest);
  void handle_get(std::string_view rest);
  void handle_result(std::string_view rest);
  void handle_control(std::string_view verb, std::string_view rest);
  /// True when this node's arc (pred, self] covers `key`.
  bool responsible_for(std::uint64_t key) const;
  /// The ring node to forward a message keyed on `key` to: the closest
  /// preceding live finger, falling back to the first live successor.
  /// Suspects are skipped unless every candidate is suspect.
  const RingNode* next_hop(std::uint64_t key) const;
  /// First-hop choice for attempt N of a lookup: greedy (== next_hop) for
  /// the first attempt, then straight at the owner/replica chain of `key`
  /// -- any holder answers from its local store, so a single dead node
  /// always leaves a live candidate. Skips `tried` and suspects.
  const RingNode* retry_hop(std::uint64_t key,
                            const std::vector<std::uint64_t>& tried) const;
  void send_line(net::Endpoint dst, const std::string& line);
  void store_record(const std::string& aor, const Uri& contact,
                    TimePoint expires, bool replicate);
  Counter& counter(const std::string& name);
  void count_decode_error();

  // --- live membership -----------------------------------------------------
  /// Recomputes predecessor, successor list and fingers from view_.
  void rebuild_routes();
  /// Adds/removes a member; on change: rebuild + re-replicate. Returns
  /// true when the view actually changed.
  bool add_member(net::Endpoint ep);
  bool remove_member(std::uint64_t id);
  /// Re-homes every held record after a membership change: records this
  /// node owns are re-replicated to the (new) successor list; records it
  /// merely holds are PUT back into the ring so the new owner has them.
  void sync_records();
  void broadcast(const std::string& line);
  void on_stabilize_tick();
  void declare_dead(const RingNode& node);
  void purge_suspects();
  void send_attempt(std::uint64_t request);
  void on_retry(std::uint64_t request);
  void finish(std::uint64_t request, std::optional<ContactBinding> binding,
              int hops);

  net::Host& host_;
  Logger log_;
  std::uint64_t node_id_;
  std::uint64_t predecessor_id_ = 0;
  std::vector<RingNode> view_;        // full membership incl self, sorted
  std::vector<RingNode> fingers_;     // dedup'd, sorted by id
  std::vector<RingNode> successors_;  // ring order after self
  std::map<std::uint64_t, TimePoint> suspects_;   // id -> suspicion expiry
  std::map<std::uint64_t, int> probe_misses_;     // id -> unanswered probes
  /// Set by leave(): a departed node ignores membership traffic (late
  /// PINGs / JOINED broadcasts must not resurrect it) until it rejoins.
  bool left_ = false;
  TimePoint last_view_change_{};
  SingleMapStore records_;            // keys this node is responsible for
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_request_ = 0;
  sim::PeriodicTimer gc_;
  sim::PeriodicTimer maintenance_;
};

}  // namespace siphoc::sip
