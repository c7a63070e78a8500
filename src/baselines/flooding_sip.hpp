// Baseline [12] (Leggio et al., IWWAN): fully distributed SIP session
// initiation via REGISTER broadcast.
//
// "the basic SIP mechanism is extended by incorporating REGISTER broadcast
//  messages which makes the approach inefficient and SIP incompatible"
//  (paper section 5).
//
// Implemented as a slp::Directory so the identical SIPHoc proxy/softphone
// stack runs on top (bench E1/E3 compare the discovery substrate only):
// every register_service() floods the binding network-wide with duplicate
// suppression; every node keeps the full mapping table; lookups are local.
// A cache miss can optionally flood a query (so cold lookups terminate),
// which is still one network-wide flood per event -- the O(N) per-
// registration cost is the point being measured.
#pragma once

#include <map>
#include <set>

#include "common/logging.hpp"
#include "net/host.hpp"
#include "slp/directory.hpp"

namespace siphoc::baselines {

class FloodingSipDirectory final : public slp::Directory {
 public:
  static constexpr std::uint8_t kFloodTtl = 16;
  static constexpr Duration kForwardJitter = milliseconds(10);
  /// Registrations are re-flooded at this interval; [12] refreshes
  /// bindings periodically.
  static constexpr Duration kRefreshInterval = seconds(30);

  explicit FloodingSipDirectory(net::Host& host);
  ~FloodingSipDirectory() override;

  void register_service(std::string type, std::string key, std::string value,
                        Duration lifetime) override;
  void deregister_service(const std::string& type,
                          const std::string& key) override;
  void lookup(std::string type, std::string key, Duration timeout,
              slp::LookupCallback callback) override;
  std::vector<slp::ServiceEntry> snapshot() const override;

  std::uint64_t floods_originated() const { return floods_originated_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  using Key = std::pair<std::string, std::string>;

  TimePoint now() const { return host_.sim().now(); }
  void flood_entry(const slp::ServiceEntry& entry, std::uint8_t ttl,
                   std::uint32_t flood_id);
  void on_packet(const net::Datagram& d);
  void refresh();
  void resolve_pending(const slp::ServiceEntry& entry);

  struct PendingLookup {
    std::string type;
    std::string key;
    slp::LookupCallback callback;
    sim::EventHandle timeout;
    std::uint64_t id;
  };

  net::Host& host_;
  Logger log_;
  std::map<Key, slp::ServiceEntry> local_;
  std::map<Key, slp::ServiceEntry> table_;  // network-wide mapping
  std::set<std::pair<net::Address, std::uint32_t>> seen_;
  std::vector<PendingLookup> pending_;
  std::uint32_t next_flood_id_ = 1;
  std::uint32_t version_counter_ = 1;
  std::uint64_t next_pending_id_ = 1;
  std::uint64_t floods_originated_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::PeriodicTimer refresh_timer_;
};

/// UDP port for the baseline's dedicated flooding traffic.
inline constexpr std::uint16_t kFloodingSipPort = 5090;

}  // namespace siphoc::baselines
