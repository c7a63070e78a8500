// Classic multicast SLP (baseline).
//
// RFC 2608-style operation mapped onto a MANET: a service request is
// multicast -- here emulated the only way a MANET can, by network-wide
// flooding with duplicate suppression -- and the owner of a matching
// registration unicasts a reply back. This is the mechanism the paper's
// related work [7] found "very inefficient in MANETs due to its heavy use
// of multicast messages": every lookup floods the network with dedicated
// SLP packets, and the unicast reply usually triggers an extra route
// discovery on top. Bench E2 quantifies both effects against MANET SLP.
//
// Every node must run a MulticastSlp agent (they relay the flood).
#pragma once

#include <map>
#include <set>

#include "common/logging.hpp"
#include "net/host.hpp"
#include "slp/directory.hpp"

namespace siphoc::slp {

class MulticastSlp final : public Directory {
 public:
  /// Hop limit of a service-request flood.
  static constexpr std::uint8_t kFloodTtl = 16;
  /// Forwarding jitter decorrelates rebroadcasts (broadcast storm relief).
  static constexpr Duration kForwardJitter = milliseconds(10);

  explicit MulticastSlp(net::Host& host);
  ~MulticastSlp() override;

  void register_service(std::string type, std::string key, std::string value,
                        Duration lifetime) override;
  void deregister_service(const std::string& type,
                          const std::string& key) override;
  void lookup(std::string type, std::string key, Duration timeout,
              LookupCallback callback) override;
  std::vector<ServiceEntry> snapshot() const override;

  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  using Key = std::pair<std::string, std::string>;

  TimePoint now() const { return host_.sim().now(); }
  void on_packet(const net::Datagram& d);
  void handle_request(const ServiceQuery& q, std::uint8_t ttl);
  void handle_reply(const ServiceReply& reply);
  void send_request(const ServiceQuery& q, std::uint8_t ttl);

  struct PendingLookup {
    std::uint32_t id = 0;
    LookupCallback callback;
    sim::EventHandle timeout;
  };

  net::Host& host_;
  Logger log_;

  std::map<Key, ServiceEntry> local_;
  std::vector<PendingLookup> pending_;
  std::set<std::pair<net::Address, std::uint32_t>> seen_;  // flood dedupe
  std::uint32_t next_xid_ = 1;
  std::uint32_t version_counter_ = 1;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace siphoc::slp
