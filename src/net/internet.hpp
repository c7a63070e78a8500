// Emulated Internet segment.
//
// A wired backbone connecting SIP provider servers and the Internet-facing
// interfaces of MANET gateway nodes. Delivery is reliable with a fixed
// latency (the paper's providers -- siphoc.ch, netvoip.ch, polyphone.ethz.ch
// -- live here as registrar/proxy hosts). Attachments are per-address, so a
// gateway can additionally attach tunnel-client addresses on behalf of MANET
// nodes, which is exactly how the layer-2 tunnel makes a node "automatically
// attached to the Internet as well" (paper section 2).
//
// Also provides the DNS substitute: SIP domains resolve to Internet
// addresses so a proxy can route "sip:alice@voicehoc.ch" to its provider.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace siphoc::net {

/// One-way latency of the testbed's wired backbone.
inline constexpr Duration kInternetLatency = milliseconds(20);

class Internet {
 public:
  using DeliverFn = std::function<void(const Datagram&)>;

  explicit Internet(sim::Simulator& sim, Duration latency = kInternetLatency)
      : sim_(sim), latency_(latency) {}

  void attach(Address address, DeliverFn deliver) {
    attachments_[address] = std::move(deliver);
  }
  void detach(Address address) { attachments_.erase(address); }
  bool attached(Address address) const {
    return attachments_.contains(address);
  }

  /// Delivers to the attachment owning `dst`; silently drops otherwise
  /// (like any Internet path to an unrouted address).
  ///
  /// Sharded simulations serialize the wired backbone on the scenario lane
  /// (lane 0): gateways on different region lanes may send concurrently, so
  /// the attachment/DNS lookup is deferred into the lane-0 delivery event
  /// and only relaxed atomic counters are touched here. The wired latency
  /// must be at least the lookahead window for the cross-lane hop to be
  /// admissible (the testbed asserts this).
  void send(const Datagram& datagram) {
    datagrams_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(datagram.wire_size(), std::memory_order_relaxed);
    if (sim_.sharded()) {
      sim_.schedule_on(0, latency_, [this, datagram] {
        const auto it = attachments_.find(datagram.dst);
        if (it == attachments_.end()) {
          datagrams_dropped_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        it->second(datagram);
      });
      return;
    }
    const auto it = attachments_.find(datagram.dst);
    if (it == attachments_.end()) {
      datagrams_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto deliver = it->second;
    sim_.schedule(latency_, [deliver, datagram] { deliver(datagram); });
  }

  // --- DNS substitute -------------------------------------------------
  void register_domain(std::string domain, Address address) {
    dns_[std::move(domain)] = address;
  }
  std::optional<Address> resolve(const std::string& domain) const {
    const auto it = dns_.find(domain);
    if (it == dns_.end()) return std::nullopt;
    return it->second;
  }

  std::uint64_t datagrams_sent() const {
    return datagrams_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t datagrams_dropped() const {
    return datagrams_dropped_.load(std::memory_order_relaxed);
  }
  Duration latency() const { return latency_; }

 private:
  sim::Simulator& sim_;
  Duration latency_;
  std::unordered_map<Address, DeliverFn> attachments_;
  std::unordered_map<std::string, Address> dns_;
  std::atomic<std::uint64_t> datagrams_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> datagrams_dropped_{0};
};

}  // namespace siphoc::net
