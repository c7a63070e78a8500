// Tests: SLP service model, extension codec, MANET SLP over both routing
// plugins (parameterized), multicast SLP baseline, and the piggyback
// ablation.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.hpp"
#include "routing/aodv.hpp"
#include "routing/olsr.hpp"
#include "slp/manet_slp.hpp"
#include "slp/multicast_slp.hpp"

namespace siphoc::slp {
namespace {

using net::Address;

TEST(ServiceEntryTest, MatchingRules) {
  ServiceEntry e;
  e.type = "sip-contact";
  e.key = "alice@voicehoc.ch";
  EXPECT_TRUE(e.matches("sip-contact", "alice@voicehoc.ch"));
  EXPECT_TRUE(e.matches("sip-contact", ""));  // wildcard key
  EXPECT_FALSE(e.matches("gateway", ""));
  EXPECT_FALSE(e.matches("sip-contact", "bob@voicehoc.ch"));
}

TEST(ExtensionCodecTest, RoundTripAllRecordTypes) {
  const TimePoint now = TimePoint{} + seconds(100);
  ExtensionBlock block;
  ServiceEntry e;
  e.type = "sip-contact";
  e.key = "alice@voicehoc.ch";
  e.value = "10.0.0.1:5060";
  e.origin = Address(10, 0, 0, 1);
  e.version = 3;
  e.expires = now + seconds(60);
  block.advertisements.push_back(e);
  block.queries.push_back({42, Address(10, 0, 0, 2), "gateway", ""});
  block.replies.push_back({42, {e}});

  const Bytes wire = encode_extension(block, now);
  // Decode at a receiver whose clock reads differently: lifetimes rebase.
  const TimePoint rx_now = TimePoint{} + seconds(500);
  auto decoded = decode_extension(wire, rx_now);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->advertisements.size(), 1u);
  ASSERT_EQ(decoded->queries.size(), 1u);
  ASSERT_EQ(decoded->replies.size(), 1u);
  const auto& a = decoded->advertisements.front();
  EXPECT_EQ(a.key, "alice@voicehoc.ch");
  EXPECT_EQ(a.value, "10.0.0.1:5060");
  EXPECT_EQ(a.version, 3u);
  EXPECT_EQ(a.expires, rx_now + seconds(60));
  EXPECT_EQ(decoded->queries.front().id, 42u);
  EXPECT_EQ(decoded->queries.front().key, "");
}

TEST(ExtensionCodecTest, EmptyBlockEncodesEmpty) {
  EXPECT_TRUE(encode_extension({}, TimePoint{}).empty());
  auto decoded = decode_extension({}, TimePoint{});
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->empty());
}

TEST(ExtensionCodecTest, ExpiredEntryEncodesZeroLifetime) {
  const TimePoint now = TimePoint{} + seconds(100);
  ExtensionBlock block;
  ServiceEntry e;
  e.type = "t";
  e.expires = now - seconds(1);  // already expired
  block.advertisements.push_back(e);
  auto decoded = decode_extension(encode_extension(block, now), now);
  ASSERT_TRUE(decoded);
  EXPECT_LE(decoded->advertisements.front().expires, now);
}

TEST(ExtensionCodecTest, GarbageRejected) {
  Bytes junk = {0x05, 0xff, 0xff};
  EXPECT_FALSE(decode_extension(junk, TimePoint{}));
}

// ---------------------------------------------------------------------------
// MANET SLP over real routing daemons, parameterized on the plugin.
// ---------------------------------------------------------------------------

enum class Plugin { kAodv, kOlsr };

class ManetSlpTest : public ::testing::TestWithParam<Plugin> {
 protected:
  void build(std::size_t n) {
    sim_ = std::make_unique<sim::Simulator>(21);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < n; ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(
          *medium_, Address{net::kManetPrefix.value() +
                            static_cast<std::uint32_t>(i) + 1},
          std::make_shared<net::StaticMobility>(
              net::Position{100.0 * static_cast<double>(i), 0}));
      hosts_.push_back(std::move(host));
      if (GetParam() == Plugin::kAodv) {
        daemons_.push_back(std::make_unique<routing::Aodv>(*hosts_.back()));
      } else {
        daemons_.push_back(std::make_unique<routing::Olsr>(*hosts_.back()));
      }
      dirs_.push_back(
          std::make_unique<ManetSlp>(*hosts_.back(), *daemons_.back()));
      daemons_.back()->start();
    }
    // Proactive plugins need convergence time.
    sim_->run_for(GetParam() == Plugin::kOlsr ? seconds(12) : seconds(2));
  }

  std::optional<ServiceEntry> lookup_blocking(std::size_t node,
                                              const std::string& type,
                                              const std::string& key,
                                              Duration timeout = seconds(8)) {
    std::optional<ServiceEntry> result;
    bool done = false;
    dirs_[node]->lookup(type, key, timeout,
                        [&](std::optional<ServiceEntry> entry) {
                          result = std::move(entry);
                          done = true;
                        });
    const TimePoint deadline = sim_->now() + timeout + seconds(1);
    while (!done && sim_->now() < deadline) sim_->run_for(milliseconds(10));
    return result;
  }

  /// Node `node`'s SLP counter `name` from the simulation's registry.
  std::uint64_t slp_count(std::size_t node, std::string_view name) {
    const Counter* c = sim_->ctx().metrics().find_counter(
        name, hosts_[node]->name(), "slp");
    return c != nullptr ? c->value() : 0;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<routing::Protocol>> daemons_;
  std::vector<std::unique_ptr<ManetSlp>> dirs_;
};

TEST_P(ManetSlpTest, LocalRegistrationAnswersImmediately) {
  build(2);
  dirs_[0]->register_service("sip-contact", "alice@x", "10.0.0.1:5060",
                             minutes(1));
  const auto hit = lookup_blocking(0, "sip-contact", "alice@x");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "10.0.0.1:5060");
  EXPECT_EQ(slp_count(0, "slp.cache_hits_total"), 1u);
}

TEST_P(ManetSlpTest, RemoteLookupAcrossMultipleHops) {
  build(4);
  dirs_[3]->register_service("sip-contact", "bob@x", "10.0.0.4:5060",
                             minutes(1));
  if (GetParam() == Plugin::kOlsr) sim_->run_for(seconds(10));
  const auto hit = lookup_blocking(0, "sip-contact", "bob@x");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "10.0.0.4:5060");
  EXPECT_EQ(hit->origin, Address(10, 0, 0, 4));
}

TEST_P(ManetSlpTest, WildcardKeyFindsAnyOfType) {
  build(3);
  dirs_[2]->register_service("gateway", "default", "10.0.0.3:5100",
                             minutes(1));
  if (GetParam() == Plugin::kOlsr) sim_->run_for(seconds(10));
  const auto hit = lookup_blocking(0, "gateway", "");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "10.0.0.3:5100");
}

TEST_P(ManetSlpTest, MissTimesOut) {
  build(2);
  const auto miss = lookup_blocking(0, "sip-contact", "nobody@x", seconds(3));
  EXPECT_FALSE(miss);
  EXPECT_EQ(slp_count(0, "slp.lookup_timeouts_total"), 1u);
}

TEST_P(ManetSlpTest, ReRegistrationSupersedes) {
  build(3);
  dirs_[2]->register_service("sip-contact", "carol@x", "10.0.0.3:5060",
                             minutes(1));
  if (GetParam() == Plugin::kOlsr) sim_->run_for(seconds(10));
  ASSERT_TRUE(lookup_blocking(0, "sip-contact", "carol@x"));
  // Carol moves: now registered on node 1 with a newer... the same user on
  // a different node. Version counters are per-node, so emulate the move
  // by a fresh registration on node 1 and a deregistration on node 2.
  dirs_[2]->deregister_service("sip-contact", "carol@x");
  dirs_[1]->register_service("sip-contact", "carol@x", "10.0.0.2:5060",
                             minutes(1));
  if (GetParam() == Plugin::kOlsr) sim_->run_for(seconds(10));
  const auto hit = lookup_blocking(1, "sip-contact", "carol@x");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->value, "10.0.0.2:5060");
}

TEST_P(ManetSlpTest, PiggybackDisabledAblationNeverResolvesRemote) {
  // Rebuild with the ablation config: piggybacking off.
  sim_ = std::make_unique<sim::Simulator>(5);
  medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
  for (std::size_t i = 0; i < 2; ++i) {
    auto host = std::make_unique<net::Host>(
        *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
    host->attach_radio(
        *medium_,
        Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) + 1},
        std::make_shared<net::StaticMobility>(
            net::Position{50.0 * static_cast<double>(i), 0}));
    hosts_.push_back(std::move(host));
    if (GetParam() == Plugin::kAodv) {
      daemons_.push_back(std::make_unique<routing::Aodv>(*hosts_.back()));
    } else {
      daemons_.push_back(std::make_unique<routing::Olsr>(*hosts_.back()));
    }
    ManetSlpConfig config;
    config.piggyback_enabled = false;
    dirs_.push_back(
        std::make_unique<ManetSlp>(*hosts_.back(), *daemons_.back(), config));
    daemons_.back()->start();
  }
  sim_->run_for(seconds(10));
  dirs_[1]->register_service("sip-contact", "bob@x", "10.0.0.2:5060",
                             minutes(1));
  sim_->run_for(seconds(10));
  EXPECT_FALSE(lookup_blocking(0, "sip-contact", "bob@x", seconds(3)));
}

TEST_P(ManetSlpTest, SnapshotShowsLocalAndLearned) {
  build(2);
  dirs_[0]->register_service("sip-contact", "a@x", "10.0.0.1:5060",
                             minutes(1));
  dirs_[1]->register_service("sip-contact", "b@x", "10.0.0.2:5060",
                             minutes(1));
  if (GetParam() == Plugin::kOlsr) {
    sim_->run_for(seconds(10));
  } else {
    // Reactive: pull b's entry via a lookup.
    ASSERT_TRUE(lookup_blocking(0, "sip-contact", "b@x"));
  }
  const auto snapshot = dirs_[0]->snapshot();
  EXPECT_GE(snapshot.size(), 2u);
}

TEST_P(ManetSlpTest, MalformedExtensionIsCountedAndNamesThePacket) {
  // The decode-error warning names the routing packet the bad extension
  // rode on (routing::to_string(PacketKind)).
  build(1);
  auto& metrics = sim_->ctx().metrics();
  const auto errors_before = metrics.counter_total("slp.decode_errors_total");
  std::vector<std::string> warnings;
  Logging& log = sim_->ctx().log();
  log.set_sink([&](const LogRecord& rec) { warnings.push_back(rec.message); });
  log.set_level(LogLevel::kWarn);
  const bool aodv = GetParam() == Plugin::kAodv;
  routing::PacketInfo info;
  info.kind = aodv ? routing::PacketKind::kAodvRreq
                   : routing::PacketKind::kOlsrTc;
  const Bytes junk = {0x05, 0xff, 0xff};
  const auto verdict = dirs_[0]->on_incoming(info, junk, Address(10, 0, 0, 9));
  log.set_sink(nullptr);
  log.set_level(LogLevel::kOff);

  EXPECT_FALSE(verdict.answer);
  EXPECT_EQ(metrics.counter_total("slp.decode_errors_total") - errors_before,
            1u);
  ASSERT_EQ(warnings.size(), 1u);
  const std::string expected = std::string("malformed SLP extension on ") +
                               (aodv ? "AODV-RREQ" : "OLSR-TC") +
                               " from 10.0.0.9";
  EXPECT_NE(warnings.front().find(expected), std::string::npos)
      << warnings.front();
}

// The cache purge that runs on every received piggyback and lookup must
// drop an entry as soon as its `expires` passes -- also when a newer
// version replaced the entry with an *earlier* expiry, and for the first
// entry learned into an empty cache. Entries are fed straight into
// on_incoming() on a lone node, so nothing else writes the cache.
class ManetSlpPurgeTest : public ManetSlpTest {
 protected:
  static ServiceEntry advert(std::string key, std::uint32_t version,
                             TimePoint expires) {
    ServiceEntry e;
    e.type = "sip-contact";
    e.key = std::move(key);
    e.value = "10.0.0.9:5060";
    e.origin = Address(10, 0, 0, 9);
    e.version = version;
    e.expires = expires;
    return e;
  }

  void receive(const ServiceEntry& e) {
    ExtensionBlock block;
    block.advertisements.push_back(e);
    routing::PacketInfo info;
    info.kind = GetParam() == Plugin::kAodv ? routing::PacketKind::kAodvRrep
                                            : routing::PacketKind::kOlsrTc;
    dirs_[0]->on_incoming(info, encode_extension(block, sim_->now()),
                          e.origin);
  }

  bool cached(const std::string& key) const {
    const auto contents = dirs_[0]->cache_contents();
    return std::any_of(contents.begin(), contents.end(),
                       [&](const ServiceEntry& e) { return e.key == key; });
  }
};

TEST_P(ManetSlpPurgeTest, FirstLearnedEntryLeavesOnTimeAtTheNextLookup) {
  build(1);
  receive(advert("alice@x", 1, sim_->now() + seconds(5)));
  ASSERT_TRUE(cached("alice@x"));
  sim_->run_for(seconds(4));
  dirs_[0]->lookup("sip-contact", "nobody@x", seconds(1), [](auto) {});
  EXPECT_TRUE(cached("alice@x"));  // not expired yet
  sim_->run_for(seconds(2));
  dirs_[0]->lookup("sip-contact", "nobody@x", seconds(1), [](auto) {});
  EXPECT_FALSE(cached("alice@x"));
  EXPECT_EQ(dirs_[0]->cache_size(), 0u);
}

TEST_P(ManetSlpPurgeTest, NewerVersionWithEarlierExpiryLeavesOnTime) {
  build(1);
  receive(advert("alice@x", 1, sim_->now() + seconds(60)));
  receive(advert("alice@x", 2, sim_->now() + seconds(5)));
  ASSERT_TRUE(cached("alice@x"));
  sim_->run_for(seconds(6));
  // Any received piggyback purges: here one that teaches another entry.
  receive(advert("bob@x", 1, sim_->now() + seconds(60)));
  EXPECT_FALSE(cached("alice@x"));
  EXPECT_TRUE(cached("bob@x"));
  EXPECT_EQ(dirs_[0]->cache_size(), 1u);
}

// An empty key (gateway discovery) matches every key of the type: the
// lookup must weigh all of them, not only the first, and ignore the
// neighbouring types that sort right before and after it.
TEST_P(ManetSlpPurgeTest, EmptyKeyLookupWeighsEveryKeyOfTheType) {
  build(1);
  const TimePoint expires = sim_->now() + seconds(60);
  const auto typed = [&](std::string type, std::string key,
                         std::uint32_t version) {
    ServiceEntry e = advert(std::move(key), version, expires);
    e.type = std::move(type);
    return e;
  };
  receive(typed("gw", "a", 1));
  receive(typed("gw", "b", 5));
  receive(typed("gw", "c", 3));
  receive(typed("gv", "z", 9));
  receive(typed("gwx", "", 9));
  ASSERT_EQ(dirs_[0]->cache_size(), 5u);
  const auto resolve = [&] {
    std::optional<ServiceEntry> got;
    dirs_[0]->lookup("gw", "", seconds(1), [&](std::optional<ServiceEntry> e) {
      got = std::move(e);
    });
    sim_->run_for(milliseconds(10));
    return got;
  };
  auto got = resolve();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, "gw");
  EXPECT_EQ(got->key, "b");
  EXPECT_EQ(got->version, 5u);
  // A local registration wins over any cached version.
  dirs_[0]->register_service("gw", "m", "local", minutes(1));
  got = resolve();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key, "m");
  EXPECT_EQ(got->value, "local");
}

INSTANTIATE_TEST_SUITE_P(Plugins, ManetSlpPurgeTest,
                         ::testing::Values(Plugin::kAodv, Plugin::kOlsr),
                         [](const auto& info) {
                           return info.param == Plugin::kAodv ? "Aodv"
                                                              : "Olsr";
                         });

INSTANTIATE_TEST_SUITE_P(Plugins, ManetSlpTest,
                         ::testing::Values(Plugin::kAodv, Plugin::kOlsr),
                         [](const auto& info) {
                           return info.param == Plugin::kAodv ? "Aodv"
                                                              : "Olsr";
                         });

// ---------------------------------------------------------------------------
// Multicast SLP baseline
// ---------------------------------------------------------------------------

class MulticastSlpTest : public ::testing::Test {
 protected:
  void build(std::size_t n) {
    sim_ = std::make_unique<sim::Simulator>(31);
    medium_ = std::make_unique<net::RadioMedium>(*sim_, net::RadioConfig{});
    for (std::size_t i = 0; i < n; ++i) {
      auto host = std::make_unique<net::Host>(
          *sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i));
      host->attach_radio(
          *medium_, Address{net::kManetPrefix.value() +
                            static_cast<std::uint32_t>(i) + 1},
          std::make_shared<net::StaticMobility>(
              net::Position{100.0 * static_cast<double>(i), 0}));
      hosts_.push_back(std::move(host));
      daemons_.push_back(std::make_unique<routing::Aodv>(*hosts_.back()));
      daemons_.back()->start();
      dirs_.push_back(std::make_unique<MulticastSlp>(*hosts_.back()));
    }
    sim_->run_for(seconds(2));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::RadioMedium> medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<routing::Aodv>> daemons_;
  std::vector<std::unique_ptr<MulticastSlp>> dirs_;
};

TEST_F(MulticastSlpTest, FloodedLookupResolvesAcrossHops) {
  build(4);
  dirs_[3]->register_service("sip-contact", "bob@x", "10.0.0.4:5060",
                             minutes(1));
  std::optional<ServiceEntry> result;
  bool done = false;
  dirs_[0]->lookup("sip-contact", "bob@x", seconds(8),
                   [&](std::optional<ServiceEntry> e) {
                     result = std::move(e);
                     done = true;
                   });
  const TimePoint deadline = sim_->now() + seconds(9);
  while (!done && sim_->now() < deadline) sim_->run_for(milliseconds(10));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->value, "10.0.0.4:5060");
  // Dedicated SLP packets were spent (the baseline's cost).
  std::uint64_t packets = 0;
  for (const auto& d : dirs_) packets += d->packets_sent();
  EXPECT_GE(packets, 4u);  // query flood through the chain + reply
}

TEST_F(MulticastSlpTest, MissTimesOutWithoutReply) {
  build(3);
  bool done = false;
  std::optional<ServiceEntry> result;
  dirs_[0]->lookup("sip-contact", "ghost@x", seconds(2),
                   [&](std::optional<ServiceEntry> e) {
                     result = std::move(e);
                     done = true;
                   });
  sim_->run_for(seconds(4));
  EXPECT_TRUE(done);
  EXPECT_FALSE(result);
}

TEST_F(MulticastSlpTest, DuplicateFloodsSuppressed) {
  build(3);
  dirs_[2]->register_service("gateway", "default", "10.0.0.3:5100",
                             minutes(1));
  bool done = false;
  dirs_[0]->lookup("gateway", "", seconds(5),
                   [&](std::optional<ServiceEntry>) { done = true; });
  sim_->run_for(seconds(6));
  EXPECT_TRUE(done);
  // Each node relays a given (origin, xid) flood at most once: with 3 nodes
  // the query appears on air at most 3 times.
  std::uint64_t packets = 0;
  for (const auto& d : dirs_) packets += d->packets_sent();
  EXPECT_LE(packets, 4u);
}

}  // namespace
}  // namespace siphoc::slp
