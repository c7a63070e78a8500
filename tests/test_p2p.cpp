// Tests: the Chord-lite P2P resolution ring (sip/p2p_resolver.hpp) -- key
// placement, finger-table routing, replication, unpublish -- and a
// registrar running in P2P mode end to end (REGISTER publishes into the
// ring, INVITE resolves through it).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/context.hpp"
#include "common/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sip/p2p_resolver.hpp"
#include "sip/registrar.hpp"
#include "sip/user_agent.hpp"

namespace siphoc::sip {
namespace {

class P2pRingFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 8;

  P2pRingFixture() : sim_(31), internet_(sim_, milliseconds(5)) {
    std::vector<net::Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto host = std::make_unique<net::Host>(
          sim_, static_cast<net::NodeId>(100 + i),
          "ring-" + std::to_string(i));
      host->attach_wired(internet_,
                         net::Address(192, 0, 2, 10 + static_cast<int>(i)));
      auto resolver = std::make_unique<P2pResolver>(*host);
      members.push_back(resolver->endpoint());
      hosts_.push_back(std::move(host));
      resolvers_.push_back(std::move(resolver));
    }
    for (auto& r : resolvers_) r->join(members);
  }

  /// Resolves and runs the simulation until the callback fires.
  std::pair<std::optional<ContactBinding>, int> resolve_blocking(
      std::size_t from_node, const std::string& aor) {
    std::optional<ContactBinding> result;
    int hops = -2;
    bool done = false;
    resolvers_[from_node]->resolve(
        aor, [&](std::optional<ContactBinding> b, int h) {
          result = std::move(b);
          hops = h;
          done = true;
        });
    const TimePoint deadline = sim_.now() + seconds(5);
    while (!done && sim_.now() < deadline) sim_.run_for(milliseconds(5));
    EXPECT_TRUE(done);
    return {std::move(result), hops};
  }

  Uri contact(int octet) {
    return Uri::from_endpoint({net::Address(192, 0, 2, octet), 5060}, "u");
  }

  sim::Simulator sim_;
  net::Internet internet_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<P2pResolver>> resolvers_;
};

TEST_F(P2pRingFixture, PublishThenResolveFromEveryNode) {
  resolvers_[0]->publish("alice@voicehoc.ch", contact(1),
                         sim_.now() + seconds(600));
  sim_.run_for(seconds(1));  // let the PUT route to the responsible node

  for (std::size_t n = 0; n < kNodes; ++n) {
    auto [binding, hops] = resolve_blocking(n, "alice@voicehoc.ch");
    ASSERT_TRUE(binding) << "from node " << n;
    EXPECT_EQ(binding->contact.host, "192.0.2.1");
    EXPECT_GE(hops, 0);
    // Chord bound: hops stay logarithmic in the ring size.
    EXPECT_LE(hops, static_cast<int>(kNodes));
  }
}

TEST_F(P2pRingFixture, ExactlyOneOwnerPlusReplicas) {
  resolvers_[0]->publish("alice@voicehoc.ch", contact(1),
                         sim_.now() + seconds(600));
  sim_.run_for(seconds(1));

  // The responsible node holds the record; its successors hold replicas
  // (kSuccessorCount is 2). Nobody else stores anything.
  std::size_t holders = 0;
  for (const auto& r : resolvers_) {
    if (r->stored_records() > 0) ++holders;
  }
  EXPECT_GE(holders, 1u);
  EXPECT_LE(holders, 3u);  // owner + 2 replicas
}

TEST_F(P2pRingFixture, MissForUnknownAor) {
  auto [binding, hops] = resolve_blocking(3, "nobody@voicehoc.ch");
  EXPECT_FALSE(binding);
  EXPECT_GE(hops, 0);  // answered by the responsible node, not a timeout
}

TEST_F(P2pRingFixture, UnpublishRemovesRecordAndReplicas) {
  resolvers_[2]->publish("bob@voicehoc.ch", contact(2),
                         sim_.now() + seconds(600));
  sim_.run_for(seconds(1));
  ASSERT_TRUE(resolve_blocking(5, "bob@voicehoc.ch").first);

  resolvers_[4]->unpublish("bob@voicehoc.ch");
  sim_.run_for(seconds(1));
  EXPECT_FALSE(resolve_blocking(5, "bob@voicehoc.ch").first);
  for (const auto& r : resolvers_) EXPECT_EQ(r->stored_records(), 0u);
}

TEST_F(P2pRingFixture, ExpiredRecordsAreMissesAndGetSwept) {
  resolvers_[0]->publish("carol@voicehoc.ch", contact(3),
                         sim_.now() + seconds(2));
  sim_.run_for(seconds(1));
  ASSERT_TRUE(resolve_blocking(1, "carol@voicehoc.ch").first);

  sim_.run_for(seconds(10));  // past expiry and at least one gc sweep
  EXPECT_FALSE(resolve_blocking(1, "carol@voicehoc.ch").first);
  for (const auto& r : resolvers_) EXPECT_EQ(r->stored_records(), 0u);
}

TEST_F(P2pRingFixture, ManyKeysSpreadOverTheRing) {
  for (int i = 0; i < 200; ++i) {
    resolvers_[i % kNodes]->publish("user" + std::to_string(i) + "@x",
                                    contact(1), sim_.now() + seconds(600));
  }
  sim_.run_for(seconds(2));
  std::size_t total = 0, holders = 0;
  for (const auto& r : resolvers_) {
    total += r->stored_records();
    if (r->stored_records() > 0) ++holders;
  }
  // Every record plus replicas landed somewhere, on several nodes.
  EXPECT_GE(total, 200u);
  EXPECT_GE(holders, kNodes / 2);
  // Spot-check resolvability.
  EXPECT_TRUE(resolve_blocking(7, "user0@x").first);
  EXPECT_TRUE(resolve_blocking(0, "user199@x").first);
}

// ---------------------------------------------------------------------------
// Live overlay: runtime churn, key handoff, repair, retry
// (docs/RESILIENCE.md, "ring faults")
// ---------------------------------------------------------------------------

/// The live member responsible for `aor` under successor placement: the
/// first live node clockwise at-or-after the key (same arithmetic the
/// resolver and the I5 invariant use).
P2pResolver* responsible_member(const std::vector<P2pResolver*>& live,
                                const std::string& aor) {
  const std::uint64_t key = P2pResolver::key_of(aor);
  P2pResolver* owner = nullptr;
  std::uint64_t best = ~0ull;
  for (P2pResolver* r : live) {
    const std::uint64_t d = r->node_id() - key;  // clockwise, wraps
    if (owner == nullptr || d < best) {
      owner = r;
      best = d;
    }
  }
  return owner;
}

class P2pChurnFixture : public P2pRingFixture {
 protected:
  std::vector<std::string> publish_many(std::size_t count) {
    std::vector<std::string> aors;
    for (std::size_t i = 0; i < count; ++i) {
      aors.push_back("churn" + std::to_string(i) + "@voicehoc.ch");
      resolvers_[i % kNodes]->publish(aors.back(),
                                      contact(static_cast<int>(1 + i % 20)),
                                      sim_.now() + seconds(600));
    }
    sim_.run_for(seconds(1));
    return aors;
  }

  std::vector<P2pResolver*> live_members() {
    std::vector<P2pResolver*> live;
    for (auto& r : resolvers_) {
      if (r) live.push_back(r.get());
    }
    return live;
  }
};

TEST_F(P2pChurnFixture, RuntimeJoinThenLeaveKeepsEveryBinding) {
  const auto aors = publish_many(24);

  // A ninth node joins at runtime through node 0. Every member must learn
  // of it, and records in its new arc must be handed off to it.
  auto joiner_host = std::make_unique<net::Host>(
      sim_, static_cast<net::NodeId>(200), "ring-joiner");
  joiner_host->attach_wired(internet_, net::Address(192, 0, 2, 50));
  auto joiner = std::make_unique<P2pResolver>(*joiner_host);
  joiner->join_ring(resolvers_[0]->endpoint());
  sim_.run_for(seconds(5));

  EXPECT_EQ(joiner->view_size(), kNodes + 1);
  for (const auto& r : resolvers_) EXPECT_EQ(r->view_size(), kNodes + 1);

  auto live = live_members();
  live.push_back(joiner.get());
  for (const auto& aor : aors) {
    EXPECT_TRUE(responsible_member(live, aor)->stored(aor))
        << aor << " not held by its post-join owner";
    EXPECT_TRUE(resolve_blocking(3, aor).first) << aor;
  }

  // Graceful departure: records in the joiner's arc are handed to its
  // successor and the ring reverts to the original eight members.
  joiner->leave();
  sim_.run_for(seconds(5));
  EXPECT_EQ(joiner->view_size(), 1u);
  for (const auto& r : resolvers_) EXPECT_EQ(r->view_size(), kNodes);
  live = live_members();
  for (const auto& aor : aors) {
    EXPECT_TRUE(responsible_member(live, aor)->stored(aor))
        << aor << " lost across leave()";
    EXPECT_TRUE(resolve_blocking(0, aor).first) << aor;
  }
}

TEST_F(P2pChurnFixture, CrashedMemberIsDetectedAndRecordsReReplicated) {
  const auto aors = publish_many(24);

  // Hard crash: the resolver is destroyed, its port goes dark, its stored
  // replicas are gone. Stabilization probes must notice within
  // kProbeTolerance intervals, repair every view, and re-replicate until
  // each binding again has kSuccessorCount live replicas.
  resolvers_[5].reset();
  sim_.run_for(seconds(14));

  const auto live = live_members();
  ASSERT_EQ(live.size(), kNodes - 1);
  for (P2pResolver* r : live) EXPECT_EQ(r->view_size(), kNodes - 1);

  for (const auto& aor : aors) {
    EXPECT_TRUE(responsible_member(live, aor)->stored(aor))
        << aor << " lost in the crash";
    std::size_t holders = 0;
    for (P2pResolver* r : live) {
      if (r->stored(aor)) ++holders;
    }
    // Owner plus kSuccessorCount replicas (stale extra copies may linger
    // until expiry; fewer would mean re-replication failed).
    EXPECT_GE(holders, 3u) << aor;
    EXPECT_TRUE(resolve_blocking(0, aor).first) << aor;
  }
}

TEST_F(P2pChurnFixture, LookupsSurviveCrashDuringStabilization) {
  const auto aors = publish_many(24);

  // Crash a member and resolve everything *immediately* -- before any
  // probe has fired. Lookups whose route or owner was the dead node must
  // recover through the per-hop retry ladder (origin retries aim at the
  // owner/replica chain), not wait for ring repair.
  resolvers_[5].reset();

  std::size_t done = 0, hits = 0;
  for (const auto& aor : aors) {
    resolvers_[2]->resolve(aor,
                           [&](std::optional<ContactBinding> b, int) {
                             ++done;
                             if (b) ++hits;
                           });
  }
  const TimePoint deadline = sim_.now() + seconds(5);
  while (done < aors.size() && sim_.now() < deadline) {
    sim_.run_for(milliseconds(10));
  }
  EXPECT_EQ(done, aors.size());
  EXPECT_EQ(hits, aors.size()) << "a single ring-node loss must not fail "
                                  "any in-flight lookup";
  // At least one key was owned by or routed through the dead node, so the
  // retry path must actually have fired.
  const auto* retries = sim_.ctx().metrics().find_counter(
      "p2p.retry_attempts_total", "ring-2", "p2p");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value(), 0.0);
}

TEST(P2pChurnDeterminism, RetryPathIsIdenticalAcrossSimThreads) {
  // The full churn story -- region-sharded testbed, ring-node crash,
  // retries racing stabilization, restart with key handoff -- must be
  // byte-identical for any --sim-threads (the tool-level equivalent is
  // tests/chaos_p2p_identity.cmake).
  auto run = [](unsigned threads) {
    SimContext context;
    scenario::Options o;
    o.context = &context;
    o.seed = 17;
    o.nodes = 1;
    o.sim_regions = 2;
    o.sim_threads = threads;
    scenario::Testbed bed(o);
    scenario::Testbed::ProviderOptions po;
    po.resolution = scenario::Testbed::Resolution::kP2p;
    po.p2p_nodes = 4;
    bed.add_provider("voicehoc.ch", po);
    bed.start();

    const auto ring = bed.p2p_ring("voicehoc.ch");
    std::vector<std::string> aors;
    for (int i = 0; i < 12; ++i) {
      aors.push_back("det" + std::to_string(i) + "@voicehoc.ch");
      ring[0]->publish(aors.back(),
                       Uri::from_endpoint(
                           {net::Address(192, 0, 2, 100 + i), 5060}, "u"),
                       bed.sim().now() + seconds(600));
    }
    bed.run_for(seconds(1));

    bed.crash_ring_node("voicehoc.ch", 2);
    std::string transcript;
    std::size_t done = 0;
    for (const auto& aor : aors) {
      bed.p2p_ring("voicehoc.ch")[0]->resolve(
          aor, [&, aor](std::optional<ContactBinding> b, int hops) {
            ++done;
            transcript += aor + " " + (b ? b->contact.to_string() : "miss") +
                          " hops=" + std::to_string(hops) + "\n";
          });
    }
    while (done < aors.size()) bed.run_for(milliseconds(10));
    bed.run_for(seconds(12));  // repair quiesces
    bed.restart_ring_node("voicehoc.ch", 2);
    bed.run_for(seconds(6));
    bed.finalize_metrics();
    return transcript + bed.ctx().metrics().to_json() + "\n" +
           std::to_string(bed.sim().events_executed());
  };
  const std::string once = run(1);
  EXPECT_EQ(once, run(2));
  EXPECT_EQ(once, run(4));
}

// ---------------------------------------------------------------------------
// Registrar in P2P mode, wired by the Testbed
// ---------------------------------------------------------------------------

TEST(P2pProviderTest, TestbedBuildsRingAndRegistrarPublishesIntoIt) {
  scenario::Options o;
  o.nodes = 1;
  scenario::Testbed bed(o);
  scenario::Testbed::ProviderOptions po;
  po.resolution = scenario::Testbed::Resolution::kP2p;
  po.p2p_nodes = 4;
  auto& provider = bed.add_provider("voicehoc.ch", po);
  EXPECT_TRUE(provider.p2p_mode());
  const auto ring = bed.p2p_ring("voicehoc.ch");
  EXPECT_EQ(ring.size(), 5u);  // front door + 4 ring nodes
  EXPECT_TRUE(bed.p2p_ring("other.ch").empty());

  // An Internet-side phone registers against the front door; the binding
  // must land in the ring, not the registrar's local store.
  auto& phone_host = bed.add_internet_host("alice-pc");
  UserAgentConfig uc;
  uc.aor = *Uri::parse("sip:alice@voicehoc.ch");
  uc.outbound_proxy = {*bed.internet().resolve("voicehoc.ch"), 5060};
  uc.media_address = phone_host.wired_address();
  UserAgent alice(phone_host, uc);
  alice.start_registration();
  bed.run_for(seconds(2));
  EXPECT_TRUE(alice.registered());
  EXPECT_EQ(provider.binding_count(), 0u);  // local store bypassed
  std::size_t ring_records = 0;
  for (const auto* r : ring) ring_records += r->stored_records();
  EXPECT_GE(ring_records, 1u);
}

TEST(P2pProviderTest, CallResolvesThroughTheRing) {
  scenario::Options o;
  o.nodes = 1;
  scenario::Testbed bed(o);
  scenario::Testbed::ProviderOptions po;
  po.resolution = scenario::Testbed::Resolution::kP2p;
  po.p2p_nodes = 4;
  auto& provider = bed.add_provider("voicehoc.ch", po);

  auto& alice_host = bed.add_internet_host("alice-pc");
  auto& bob_host = bed.add_internet_host("bob-pc");
  const net::Endpoint front_door{*bed.internet().resolve("voicehoc.ch"),
                                 5060};

  UserAgentConfig ac;
  ac.aor = *Uri::parse("sip:alice@voicehoc.ch");
  ac.outbound_proxy = front_door;
  ac.media_address = alice_host.wired_address();
  ac.answer_delay = milliseconds(50);
  UserAgent alice(alice_host, ac);

  UserAgentConfig bc;
  bc.aor = *Uri::parse("sip:bob@voicehoc.ch");
  bc.outbound_proxy = front_door;
  bc.media_address = bob_host.wired_address();
  UserAgent bob(bob_host, bc);

  bool established = false;
  UserAgentCallbacks bob_cb;
  bob_cb.on_established = [&](CallId, net::Endpoint) { established = true; };
  bob.set_callbacks(std::move(bob_cb));

  alice.start_registration();
  bed.run_for(seconds(2));
  ASSERT_TRUE(alice.registered());

  // Bob INVITEs through the front door; the registrar resolves alice's
  // contact by hopping the ring, then forwards.
  bob.invite(*Uri::parse("sip:alice@voicehoc.ch"));
  const auto deadline = bed.sim().now() + seconds(10);
  while (!established && bed.sim().now() < deadline) {
    bed.run_for(milliseconds(20));
  }
  EXPECT_TRUE(established);
  (void)provider;
}

}  // namespace
}  // namespace siphoc::sip
