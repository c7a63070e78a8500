// Baseline [13] (O'Doherty, Pico SIP): proactive mapping of all SIP clients
// via a periodic HELLO method.
//
// "One of the earliest attempts to adapt SIP to MANETs is based on a
//  pro-active mapping of all SIP clients in the MANET using a HELLO method.
//  This leads to inefficient utilization of resources if the mappings
//  remain unused" (paper section 5).
//
// Every node periodically floods a HELLO carrying its local bindings,
// whether or not anyone will ever call them -- the steady-state overhead is
// O(N) floods per HELLO interval, independent of call activity. Lookups
// are answered from the converged table.
#pragma once

#include <map>
#include <set>

#include "common/logging.hpp"
#include "net/host.hpp"
#include "slp/directory.hpp"

namespace siphoc::baselines {

class PicoSipDirectory final : public slp::Directory {
 public:
  static constexpr Duration kHelloInterval = seconds(5);
  static constexpr std::uint8_t kFloodTtl = 16;
  static constexpr Duration kEntryLifetime = seconds(15);  // 3 missed HELLOs
  static constexpr Duration kForwardJitter = milliseconds(10);

  explicit PicoSipDirectory(net::Host& host);
  ~PicoSipDirectory() override;

  void register_service(std::string type, std::string key, std::string value,
                        Duration lifetime) override;
  void deregister_service(const std::string& type,
                          const std::string& key) override;
  void lookup(std::string type, std::string key, Duration timeout,
              slp::LookupCallback callback) override;
  std::vector<slp::ServiceEntry> snapshot() const override;

  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  using Key = std::pair<std::string, std::string>;

  TimePoint now() const { return host_.sim().now(); }
  void send_hello();
  void on_packet(const net::Datagram& d);
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
  std::map<Key, slp::ServiceEntry> table_;
  std::set<std::pair<net::Address, std::uint32_t>> seen_;
  std::vector<PendingLookup> pending_;
  std::uint32_t hello_seq_ = 0;
  std::uint32_t version_counter_ = 1;
  std::uint64_t next_pending_id_ = 1;
  std::uint64_t packets_sent_ = 0;
  sim::PeriodicTimer hello_timer_;
};

inline constexpr std::uint16_t kPicoSipPort = 5091;

}  // namespace siphoc::baselines
