// Service directory interface -- the "regular SLP interface" the paper's
// components program against (section 2: "A MANET SLP layer providing a
// regular SLP interface but implementing efficient and decentralized
// service lookup functionality").
//
// Both implementations satisfy it:
//   * slp::ManetSlp       -- routing-message piggybacking (the contribution)
//   * slp::MulticastSlp   -- classic multicast/flooding SLP (the baseline
//                            the related work [7] measures as inefficient)
// so the SIPHoc proxy and the gateway/connection providers are oblivious to
// which discovery mechanism runs underneath (ablation seam for bench E2).
// Lookup outcomes are counted in the simulation's metrics registry
// (`slp.*` in docs/METRICS.md), not through this interface.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "slp/service.hpp"

namespace siphoc::slp {

using LookupCallback = std::function<void(std::optional<ServiceEntry>)>;

class Directory {
 public:
  virtual ~Directory() = default;

  /// Registers/refreshes a service owned by this node.
  virtual void register_service(std::string type, std::string key,
                                std::string value,
                                Duration lifetime = minutes(1)) = 0;
  virtual void deregister_service(const std::string& type,
                                  const std::string& key) = 0;

  /// Resolves (type, key); an empty key matches any entry of the type
  /// (gateway discovery). The callback fires exactly once: with an entry,
  /// or with nullopt after `timeout`.
  virtual void lookup(std::string type, std::string key, Duration timeout,
                      LookupCallback callback) = 0;

  /// Everything this node currently knows (local + learned). The Figure 4
  /// state dump.
  virtual std::vector<ServiceEntry> snapshot() const = 0;
};

}  // namespace siphoc::slp
