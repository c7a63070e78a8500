// Tests: registrar binding-store backends (single-map baseline vs the
// consistent-hash sharded store) and the registrar rework riding on them --
// RFC 3261 §10.2.2 wildcard deregistration, the require_outbound_proxy 403
// path, digest-nonce expiry (401 + stale=true) and the bounded nonce table.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.hpp"
#include "sip/auth.hpp"
#include "sip/p2p_resolver.hpp"
#include "sip/registrar.hpp"
#include "sip/registrar_store.hpp"
#include "sip/user_agent.hpp"

namespace siphoc::sip {
namespace {

Uri contact_uri(std::uint32_t octet, const std::string& user) {
  return Uri::from_endpoint({net::Address(192, 0, 2, octet), 5060}, user);
}

TimePoint at(int s) { return TimePoint{} + seconds(s); }

// ---------------------------------------------------------------------------
// Store backends
// ---------------------------------------------------------------------------

template <typename Store>
class BindingStoreTest : public ::testing::Test {
 protected:
  Store store_;
};

using StoreBackends = ::testing::Types<SingleMapStore, ShardedBindingStore>;
TYPED_TEST_SUITE(BindingStoreTest, StoreBackends);

TYPED_TEST(BindingStoreTest, UpsertLookupEraseRoundTrip) {
  auto& store = this->store_;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.lookup("alice@voicehoc.ch", at(0)));

  store.upsert("alice@voicehoc.ch", contact_uri(1, "alice"), at(60));
  EXPECT_EQ(store.size(), 1u);
  const auto found = store.lookup("alice@voicehoc.ch", at(1));
  ASSERT_TRUE(found);
  EXPECT_EQ(found->contact.host, "192.0.2.1");
  EXPECT_EQ(found->expires, at(60));

  // Refresh replaces the contact wholesale.
  store.upsert("alice@voicehoc.ch", contact_uri(2, "alice"), at(120));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup("alice@voicehoc.ch", at(1))->contact.host,
            "192.0.2.2");

  EXPECT_TRUE(store.erase("alice@voicehoc.ch"));
  EXPECT_FALSE(store.erase("alice@voicehoc.ch"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.lookup("alice@voicehoc.ch", at(1)));
}

TYPED_TEST(BindingStoreTest, ExpiredBindingsInvisibleAndPurgeable) {
  auto& store = this->store_;
  store.upsert("a@x", contact_uri(1, "a"), at(10));
  store.upsert("b@x", contact_uri(2, "b"), at(20));
  store.upsert("c@x", contact_uri(3, "c"), at(30));

  // Expiry boundary is inclusive: a binding expiring *at* now is dead.
  EXPECT_FALSE(store.lookup("a@x", at(10)));
  EXPECT_TRUE(store.lookup("b@x", at(10)));

  EXPECT_EQ(store.purge_expired(at(20)), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.lookup("c@x", at(25)));
  EXPECT_EQ(store.purge_expired(at(20)), 0u);  // idempotent
}

TYPED_TEST(BindingStoreTest, RefreshOutlivesOriginalExpiry) {
  auto& store = this->store_;
  store.upsert("a@x", contact_uri(1, "a"), at(10));
  store.upsert("a@x", contact_uri(1, "a"), at(100));  // refreshed
  // Purging past the *original* expiry must not kill the refreshed
  // binding (the sharded store's wheel item for t=10 is lazily
  // invalidated, not trusted).
  EXPECT_EQ(store.purge_expired(at(50)), 0u);
  EXPECT_TRUE(store.lookup("a@x", at(50)));
}

// Differential test: each seed drives both backends through one random
// sequence of upserts, erases, lookups, purges and size reads while time
// moves forward in millisecond steps of up to 1.5 s, and every answer and
// the final contents must agree. Expiries
// land anywhere inside a wheel granule, including the one `now` is in, and
// the small wheel makes them lap it; few AORs and shards, a small initial
// capacity and erases make probe chains, tombstones and growth common.
TEST(BindingStoreDifferential, RandomOpSequencesAgree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SingleMapStore reference;
    ShardedBindingStore::Config config;
    config.shards = 4;
    config.initial_capacity = 4;
    config.wheel_slots = 16;
    ShardedBindingStore sharded(config);
    TimePoint now{};
    for (int op = 0; op < 4000; ++op) {
      const std::string aor =
          "u" + std::to_string(rng.uniform_int(0, 63)) + "@voicehoc.ch";
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2: {
          const TimePoint expires =
              now + milliseconds(rng.uniform_int(0, 40000));
          const Uri contact = contact_uri(rng.uniform_int(1, 250), "u");
          reference.upsert(aor, contact, expires);
          sharded.upsert(aor, contact, expires);
          break;
        }
        case 3:
          ASSERT_EQ(sharded.erase(aor), reference.erase(aor)) << "op " << op;
          break;
        case 4:
        case 5: {
          const auto want = reference.lookup(aor, now);
          const auto got = sharded.lookup(aor, now);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (want) {
            EXPECT_EQ(got->contact, want->contact) << "op " << op;
            EXPECT_EQ(got->expires, want->expires) << "op " << op;
          }
          break;
        }
        case 6:
          ASSERT_EQ(sharded.purge_expired(now), reference.purge_expired(now))
              << "op " << op;
          break;
        case 7:
          ASSERT_EQ(sharded.size(), reference.size()) << "op " << op;
          break;
        default:
          now += milliseconds(rng.uniform_int(0, 1500));
          break;
      }
    }
    std::map<std::string, ContactBinding> want, got;
    reference.for_each([&](const std::string& aor, const ContactBinding& b) {
      want[aor] = b;
    });
    sharded.for_each([&](const std::string& aor, const ContactBinding& b) {
      got[aor] = b;
    });
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [aor, binding] : want) {
      ASSERT_TRUE(got.contains(aor)) << aor;
      EXPECT_EQ(got[aor].contact, binding.contact) << aor;
      EXPECT_EQ(got[aor].expires, binding.expires) << aor;
    }
  }
}

TEST(ShardedStoreTest, SurvivesGrowthWellPastInitialCapacity) {
  ShardedBindingStore::Config config;
  config.shards = 4;
  config.initial_capacity = 8;  // force repeated table growth
  ShardedBindingStore store(config);

  constexpr int kUsers = 5000;
  for (int i = 0; i < kUsers; ++i) {
    store.upsert("user" + std::to_string(i) + "@x",
                 contact_uri(1 + (i % 200), "u"), at(1000 + i));
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kUsers));
  for (int i = 0; i < kUsers; ++i) {
    const auto found = store.lookup("user" + std::to_string(i) + "@x", at(1));
    ASSERT_TRUE(found) << "user" << i;
    EXPECT_EQ(found->expires, at(1000 + i));
  }
  // Tombstone churn: delete every other key, re-insert, everything still
  // resolvable afterwards.
  for (int i = 0; i < kUsers; i += 2) {
    EXPECT_TRUE(store.erase("user" + std::to_string(i) + "@x"));
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kUsers / 2));
  for (int i = 0; i < kUsers; i += 2) {
    store.upsert("user" + std::to_string(i) + "@x", contact_uri(7, "u"),
                 at(9000));
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kUsers));
  EXPECT_EQ(store.lookup("user0@x", at(1))->contact.host, "192.0.2.7");
}

TEST(ShardedStoreTest, ConsistentHashSpreadsAcrossAllShards) {
  ShardedBindingStore::Config config;
  config.shards = 8;
  ShardedBindingStore store(config);
  EXPECT_EQ(store.shard_count(), 8u);

  for (int i = 0; i < 8000; ++i) {
    store.upsert("user" + std::to_string(i) + "@voicehoc.ch",
                 contact_uri(1, "u"), at(100));
  }
  std::size_t total = 0, smallest = 8000, largest = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const std::size_t n = store.shard_size(s);
    total += n;
    smallest = std::min(smallest, n);
    largest = std::max(largest, n);
  }
  EXPECT_EQ(total, 8000u);
  EXPECT_GT(smallest, 0u);        // every shard participates
  EXPECT_LT(largest, 8000u / 2);  // no shard hoards the keyspace
  // shard_of agrees with where the data landed.
  const std::size_t s0 = store.shard_of("user0@voicehoc.ch");
  EXPECT_LT(s0, store.shard_count());
}

TEST(ShardedStoreTest, WheelHandlesHorizonWraparound) {
  ShardedBindingStore::Config config;
  config.shards = 1;
  config.wheel_slots = 4;  // tiny horizon: 4 x 1s
  ShardedBindingStore store(config);
  // Expiry 10 granules out wraps the 4-slot wheel more than twice; the
  // purge pass must re-examine (not drop) it each lap until it is due.
  store.upsert("far@x", contact_uri(1, "far"), at(10));
  EXPECT_EQ(store.purge_expired(at(5)), 0u);
  EXPECT_TRUE(store.lookup("far@x", at(5)));
  EXPECT_EQ(store.purge_expired(at(10)), 1u);
  EXPECT_FALSE(store.lookup("far@x", at(10)));
}

TEST(ShardedStoreTest, HashSharedWithP2pRing) {
  // The store's placement hash and the Chord-lite ring key must be the
  // same function, or a gateway and a provider would disagree on AOR
  // placement.
  EXPECT_EQ(hash_aor("alice@voicehoc.ch"),
            P2pResolver::key_of("alice@voicehoc.ch"));
  EXPECT_NE(hash_aor("alice@voicehoc.ch"), hash_aor("bob@voicehoc.ch"));
}

// ---------------------------------------------------------------------------
// Registrar rework: wildcard deregistration, 403 path, nonce hygiene
// ---------------------------------------------------------------------------

/// Drives a Registrar with hand-crafted SIP messages over a real transport
/// (no user agent in the way), capturing every response.
class RegistrarFixture : public ::testing::Test {
 protected:
  RegistrarFixture()
      : sim_(23),
        internet_(sim_, milliseconds(10)),
        provider_host_(sim_, 100, "provider"),
        client_host_(sim_, 0, "client") {
    provider_host_.attach_wired(internet_, net::Address(192, 0, 2, 10));
    client_host_.attach_wired(internet_, net::Address(192, 0, 2, 1));
    internet_.register_domain("voicehoc.ch", net::Address(192, 0, 2, 10));
  }

  void start_registrar(RegistrarConfig config) {
    config.domain = "voicehoc.ch";
    registrar_.reset();  // release port 5060 before rebinding
    transport_.reset();
    registrar_ = std::make_unique<Registrar>(provider_host_, config);
    transport_ = std::make_unique<Transport>(client_host_, 5060);
    transport_->set_handler([this](Message m, net::Endpoint) {
      responses_.push_back(std::move(m));
    });
  }

  /// Sends a request with our Via on top so the response finds its way
  /// back, then runs the simulation until it does (or 2s pass).
  void send_and_wait(Message request) {
    Via via;
    via.host = client_host_.wired_address().to_string();
    via.port = 5060;
    via.params["branch"] = std::string(kBranchCookie) + "t" +
                           std::to_string(++branch_);
    request.push_via(via);
    const std::size_t had = responses_.size();
    transport_->send(request, {net::Address(192, 0, 2, 10), 5060});
    const TimePoint deadline = sim_.now() + seconds(2);
    while (responses_.size() == had && sim_.now() < deadline) {
      sim_.run_for(milliseconds(10));
    }
  }

  Message make_register(const std::string& user, int expires,
                        const std::string& contact = "") {
    Uri domain;
    domain.host = "voicehoc.ch";
    Message m = Message::request(std::string(kRegister), domain);
    NameAddr aor;
    aor.uri = *Uri::parse("sip:" + user + "@voicehoc.ch");
    m.add_header("from", aor.to_string());
    m.add_header("to", aor.to_string());
    m.add_header("call-id", user + "-reg");
    m.add_header("cseq", std::to_string(++cseq_) + " REGISTER");
    if (contact.empty()) {
      NameAddr c;
      c.uri = contact_uri(1, user);
      m.add_header("contact", c.to_string());
    } else {
      m.add_header("contact", contact);
    }
    m.add_header("expires", std::to_string(expires));
    return m;
  }

  Message make_invite(const std::string& user) {
    Uri target = *Uri::parse("sip:" + user + "@voicehoc.ch");
    Message m = Message::request(std::string(kInvite), target);
    NameAddr from;
    from.uri = *Uri::parse("sip:caller@voicehoc.ch");
    from.set_tag("t1");
    m.add_header("from", from.to_string());
    NameAddr to;
    to.uri = target;
    m.add_header("to", to.to_string());
    m.add_header("call-id", user + "-inv" + std::to_string(cseq_));
    m.add_header("cseq", std::to_string(++cseq_) + " INVITE");
    m.add_header("max-forwards", "70");
    return m;
  }

  int last_status() const {
    return responses_.empty() ? 0 : responses_.back().status();
  }

  sim::Simulator sim_;
  net::Internet internet_;
  net::Host provider_host_, client_host_;
  std::unique_ptr<Registrar> registrar_;
  std::unique_ptr<Transport> transport_;
  std::vector<Message> responses_;
  std::uint64_t branch_ = 0;
  std::uint64_t cseq_ = 0;
};

TEST_F(RegistrarFixture, WildcardContactDeregistersEverything) {
  start_registrar({});
  send_and_wait(make_register("alice", 3600));
  ASSERT_EQ(last_status(), 200);
  ASSERT_TRUE(registrar_->binding("alice@voicehoc.ch"));

  // RFC 3261 §10.2.2: "Contact: *" + "Expires: 0" wipes the bindings.
  send_and_wait(make_register("alice", 0, "*"));
  EXPECT_EQ(last_status(), 200);
  EXPECT_FALSE(registrar_->binding("alice@voicehoc.ch"));

  // A subsequent INVITE for the deregistered user must 404.
  send_and_wait(make_invite("alice"));
  EXPECT_EQ(last_status(), 404);
}

TEST_F(RegistrarFixture, WildcardWithNonzeroExpiresRejected) {
  start_registrar({});
  // "Contact: *" is only valid together with "Expires: 0".
  send_and_wait(make_register("alice", 60, "*"));
  EXPECT_EQ(last_status(), 400);
}

TEST_F(RegistrarFixture, RequireOutboundProxyRejectsDirectRequests) {
  RegistrarConfig config;
  config.require_outbound_proxy = true;
  config.trusted_proxy = net::Address(192, 0, 2, 99);  // not the client
  start_registrar(config);

  const auto rejected_before = registrar_->registers_rejected();
  send_and_wait(make_register("alice", 3600));
  EXPECT_EQ(last_status(), 403);
  EXPECT_FALSE(registrar_->binding("alice@voicehoc.ch"));
  EXPECT_EQ(registrar_->registers_rejected(), rejected_before + 1);

  // Non-REGISTER requests arriving directly are rejected the same way.
  send_and_wait(make_invite("alice"));
  EXPECT_EQ(last_status(), 403);
}

TEST_F(RegistrarFixture, ExpiredNonceGetsStaleRechallenge) {
  RegistrarConfig config;
  config.require_auth = true;
  config.credentials["alice"] = "secret";
  config.nonce_lifetime = seconds(2);
  start_registrar(config);

  // First REGISTER: plain 401 challenge (no stale flag).
  send_and_wait(make_register("alice", 3600));
  ASSERT_EQ(last_status(), 401);
  const auto challenge_hdr = responses_.back().header("www-authenticate");
  ASSERT_TRUE(challenge_hdr);
  const auto challenge = DigestChallenge::parse(*challenge_hdr);
  ASSERT_TRUE(challenge);
  EXPECT_FALSE(challenge->stale);

  // Let the nonce expire (and the maintenance timer purge it).
  sim_.run_for(seconds(5));

  // Correct credentials against the dead nonce: 401 again, but with
  // stale=true so the client retries without re-prompting (RFC 2617
  // §3.2.1).
  Message stale_attempt = make_register("alice", 3600);
  stale_attempt.add_header(
      "authorization",
      answer_challenge(*challenge, "alice", "secret", stale_attempt)
          .to_string());
  send_and_wait(std::move(stale_attempt));
  ASSERT_EQ(last_status(), 401);
  const auto rechallenge =
      DigestChallenge::parse(*responses_.back().header("www-authenticate"));
  ASSERT_TRUE(rechallenge);
  EXPECT_TRUE(rechallenge->stale);
  EXPECT_NE(rechallenge->nonce, challenge->nonce);

  // Answering the fresh nonce succeeds.
  Message good = make_register("alice", 3600);
  good.add_header(
      "authorization",
      answer_challenge(*rechallenge, "alice", "secret", good).to_string());
  send_and_wait(std::move(good));
  EXPECT_EQ(last_status(), 200);
  EXPECT_TRUE(registrar_->binding("alice@voicehoc.ch"));
}

TEST_F(RegistrarFixture, NonceTableStaysBoundedUnderChurn) {
  RegistrarConfig config;
  config.require_auth = true;
  config.credentials["alice"] = "secret";
  config.nonce_lifetime = minutes(30);  // nothing expires during the soak
  config.nonce_cap = 64;
  start_registrar(config);

  // Soak: hundreds of unauthenticated REGISTERs, each minting a nonce.
  // The seed's registrar kept every one forever; the cap must hold.
  for (int i = 0; i < 400; ++i) {
    send_and_wait(make_register("alice", 3600));
    EXPECT_EQ(last_status(), 401);
  }
  sim_.run_for(seconds(2));  // at least one maintenance tick
  EXPECT_LE(registrar_->nonce_count(), config.nonce_cap);

  // And expiry-based purge: with a short lifetime everything drains.
  RegistrarConfig short_lived;
  short_lived.require_auth = true;
  short_lived.credentials["alice"] = "secret";
  short_lived.nonce_lifetime = seconds(1);
  start_registrar(short_lived);
  for (int i = 0; i < 10; ++i) send_and_wait(make_register("alice", 3600));
  EXPECT_GT(registrar_->nonce_count(), 0u);
  sim_.run_for(seconds(3));
  EXPECT_EQ(registrar_->nonce_count(), 0u);
}

TEST_F(RegistrarFixture, ShardedBackendServesRegistersAndInvites) {
  RegistrarConfig config;
  config.store_shards = 4;
  start_registrar(config);
  EXPECT_EQ(registrar_->store().name(), "sharded");

  send_and_wait(make_register("alice", 3600));
  ASSERT_EQ(last_status(), 200);
  const auto binding = registrar_->binding("alice@voicehoc.ch");
  ASSERT_TRUE(binding);
  EXPECT_EQ(binding->contact.host, "192.0.2.1");

  // Expires: 0 with the concrete contact also unbinds (non-wildcard path).
  send_and_wait(make_register("alice", 0));
  EXPECT_EQ(last_status(), 200);
  EXPECT_FALSE(registrar_->binding("alice@voicehoc.ch"));
  send_and_wait(make_invite("alice"));
  EXPECT_EQ(last_status(), 404);
}

TEST_F(RegistrarFixture, ShardedExpiryIsWheelDrivenNotLookupDriven) {
  RegistrarConfig config;
  config.store_shards = 2;
  start_registrar(config);

  send_and_wait(make_register("alice", 2));
  ASSERT_EQ(last_status(), 200);
  EXPECT_EQ(registrar_->binding_count(), 1u);
  // After expiry + a maintenance tick, the wheel purged the binding: the
  // count drops without any lookup having touched it.
  sim_.run_for(seconds(4));
  EXPECT_EQ(registrar_->binding_count(), 0u);
  EXPECT_FALSE(registrar_->binding("alice@voicehoc.ch"));
}

}  // namespace
}  // namespace siphoc::sip
