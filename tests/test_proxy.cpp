// Tests: the SIPHoc proxy -- binding storage, SLP advertisement, request
// routing, realm crossing (Contact rewrite + SDP ALG), error responses.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "net/medium.hpp"
#include "routing/aodv.hpp"
#include "siphoc/proxy.hpp"
#include "sip/sdp.hpp"
#include "slp/manet_slp.hpp"

namespace siphoc {
namespace {

using net::Address;
using sip::Message;

/// Two MANET nodes with routing + SLP + proxy; a scripted "phone" socket on
/// the loopback side lets tests inject raw SIP and capture what comes back.
class ProxyFixture : public ::testing::Test {
 protected:
  ProxyFixture() : sim_(19), medium_(sim_, net::RadioConfig{}) {
    for (std::size_t i = 0; i < 2; ++i) {
      hosts_.push_back(std::make_unique<net::Host>(
          sim_, static_cast<net::NodeId>(i), "n" + std::to_string(i)));
      hosts_.back()->attach_radio(
          medium_,
          Address{net::kManetPrefix.value() + static_cast<std::uint32_t>(i) +
                  1},
          std::make_shared<net::StaticMobility>(
              net::Position{50.0 * static_cast<double>(i), 0}));
      daemons_.push_back(std::make_unique<routing::Aodv>(*hosts_.back()));
      dirs_.push_back(std::make_unique<slp::ManetSlp>(
          *hosts_.back(), *daemons_.back()));
      daemons_.back()->start();
      proxies_.push_back(
          std::make_unique<SiphocProxy>(*hosts_.back(), *dirs_.back()));
    }
    sim_.run_for(seconds(2));
  }

  /// Binds a fake phone on node `i` port 5070 capturing inbound messages.
  void attach_phone(std::size_t i, std::vector<Message>& inbox) {
    hosts_[i]->bind(5070, [&inbox](const net::Datagram& d,
                                   const net::RxInfo&) {
      auto m = Message::parse(to_string(d.payload));
      if (m) inbox.push_back(std::move(*m));
    });
  }

  /// Sends raw SIP from the fake phone to the local proxy.
  void phone_send(std::size_t i, const Message& m) {
    hosts_[i]->send_udp(5070, {net::kLoopbackAddress, 5060},
                        to_bytes(m.serialize()));
  }

  Message make_register(const std::string& user) {
    Message reg = Message::request("REGISTER",
                                   *sip::Uri::parse("sip:voicehoc.ch"));
    reg.add_header("via", "SIP/2.0/UDP 127.0.0.1:5070;branch=z9hG4bKr" + user);
    reg.add_header("from", "<sip:" + user + "@voicehoc.ch>;tag=1");
    reg.add_header("to", "<sip:" + user + "@voicehoc.ch>");
    reg.add_header("call-id", user + "-reg@test");
    reg.add_header("cseq", "1 REGISTER");
    reg.add_header("contact", "<sip:" + user + "@127.0.0.1:5070>");
    reg.add_header("expires", "3600");
    return reg;
  }

  Message make_invite(const std::string& from, const std::string& to) {
    Message inv =
        Message::request("INVITE", *sip::Uri::parse("sip:" + to));
    inv.add_header("via", "SIP/2.0/UDP 127.0.0.1:5070;branch=z9hG4bKi" + from);
    inv.add_header("from", "<sip:" + from + ">;tag=2");
    inv.add_header("to", "<sip:" + to + ">");
    inv.add_header("call-id", from + "-call@test");
    inv.add_header("cseq", "1 INVITE");
    // Out-of-the-box phones behind a localhost outbound proxy advertise a
    // loopback contact; the proxy must rewrite it on egress.
    inv.add_header("contact", "<sip:phone@127.0.0.1:5070>");
    const sip::Sdp sdp =
        sip::Sdp::audio(hosts_[0]->manet_address(), 8000, 1);
    inv.set_body(sdp.serialize(), std::string(sip::kSdpContentType));
    return inv;
  }

  /// Node `i`'s proxy counter `name`; 0 while the series does not exist.
  std::uint64_t proxy_count(std::size_t i, std::string_view name) {
    const Counter* c = sim_.ctx().metrics().find_counter(
        name, hosts_[i]->name(), "proxy");
    return c != nullptr ? c->value() : 0;
  }

  sim::Simulator sim_;
  net::RadioMedium medium_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<routing::Aodv>> daemons_;
  std::vector<std::unique_ptr<slp::ManetSlp>> dirs_;
  std::vector<std::unique_ptr<SiphocProxy>> proxies_;
};

TEST_F(ProxyFixture, RegisterStoresBindingAndAdvertises) {
  std::vector<Message> inbox;
  attach_phone(0, inbox);
  phone_send(0, make_register("alice"));
  sim_.run_for(milliseconds(100));

  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].status(), 200);
  const auto binding = proxies_[0]->binding("alice");
  ASSERT_TRUE(binding);
  EXPECT_EQ(binding->aor, "alice@voicehoc.ch");
  EXPECT_TRUE(binding->contact.address.is_loopback());

  // Figure 4: the SLP process now owns the contact advertisement.
  const auto snapshot = dirs_[0]->snapshot();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot[0].type, "sip-contact");
  EXPECT_EQ(snapshot[0].key, "alice@voicehoc.ch");
  EXPECT_EQ(snapshot[0].value, "10.0.0.1:5060");
}

TEST_F(ProxyFixture, ExpiresZeroDeregisters) {
  std::vector<Message> inbox;
  attach_phone(0, inbox);
  phone_send(0, make_register("alice"));
  sim_.run_for(milliseconds(100));
  ASSERT_TRUE(proxies_[0]->binding("alice"));

  Message unreg = make_register("alice");
  unreg.set_header("expires", "0");
  unreg.set_header("cseq", "2 REGISTER");
  phone_send(0, unreg);
  sim_.run_for(milliseconds(100));
  EXPECT_FALSE(proxies_[0]->binding("alice"));
  EXPECT_TRUE(dirs_[0]->snapshot().empty());
}

TEST_F(ProxyFixture, InviteResolvedViaSlpAndDelivered) {
  std::vector<Message> alice_inbox, bob_inbox;
  attach_phone(0, alice_inbox);
  attach_phone(1, bob_inbox);
  phone_send(0, make_register("alice"));
  phone_send(1, make_register("bob"));
  sim_.run_for(milliseconds(200));

  phone_send(0, make_invite("alice@voicehoc.ch", "bob@voicehoc.ch"));
  sim_.run_for(seconds(2));

  // The INVITE crossed the MANET and reached Bob's phone (step 8).
  bool bob_got_invite = false;
  for (const auto& m : bob_inbox) {
    if (m.is_request() && m.method() == "INVITE") {
      bob_got_invite = true;
      // Alice's Contact was rewritten from loopback to her proxy endpoint.
      const auto contact = m.contact();
      ASSERT_TRUE(contact);
      EXPECT_EQ(contact->uri.host, "10.0.0.1");
      EXPECT_EQ(contact->uri.port, 5060);
      // Three Vias: Alice's phone, her proxy, and Bob's proxy (which
      // pushed its own when delivering to the local binding).
      EXPECT_EQ(m.vias().size(), 3u);
    }
  }
  EXPECT_TRUE(bob_got_invite);
  EXPECT_EQ(proxy_count(0, "proxy.slp_hits_total"), 1u);
}

TEST_F(ProxyFixture, ResponseRetracesViaChain) {
  std::vector<Message> alice_inbox, bob_inbox;
  attach_phone(0, alice_inbox);
  attach_phone(1, bob_inbox);
  phone_send(0, make_register("alice"));
  phone_send(1, make_register("bob"));
  sim_.run_for(milliseconds(200));
  phone_send(0, make_invite("alice@voicehoc.ch", "bob@voicehoc.ch"));
  sim_.run_for(seconds(2));
  ASSERT_FALSE(bob_inbox.empty());

  // Bob's phone answers 180; it must reach Alice's phone with both proxy
  // Vias popped.
  Message ringing = Message::response_to(bob_inbox.back(), 180);
  hosts_[1]->send_udp(5070, {net::kLoopbackAddress, 5060},
                      to_bytes(ringing.serialize()));
  sim_.run_for(seconds(1));
  bool alice_got_180 = false;
  for (const auto& m : alice_inbox) {
    if (m.is_response() && m.status() == 180) {
      alice_got_180 = true;
      EXPECT_EQ(m.vias().size(), 1u);  // only the phone's own Via remains
    }
  }
  EXPECT_TRUE(alice_got_180);
}

TEST_F(ProxyFixture, UnknownUserGets404WithoutInternet) {
  std::vector<Message> inbox;
  attach_phone(0, inbox);
  phone_send(0, make_register("alice"));
  sim_.run_for(milliseconds(100));
  inbox.clear();
  phone_send(0, make_invite("alice@voicehoc.ch", "ghost@voicehoc.ch"));
  sim_.run_for(seconds(8));  // SLP lookup must time out first
  bool got_404 = false;
  for (const auto& m : inbox) {
    if (m.is_response() && m.status() == 404) got_404 = true;
  }
  EXPECT_TRUE(got_404);
  EXPECT_EQ(proxy_count(0, "proxy.not_found_total"), 1u);
}

TEST_F(ProxyFixture, NumericRequestUriForwardsDirectly) {
  std::vector<Message> bob_inbox;
  attach_phone(1, bob_inbox);
  phone_send(1, make_register("bob"));
  sim_.run_for(milliseconds(100));

  // In-dialog style request addressed straight to Bob's proxy endpoint.
  Message bye = Message::request(
      "BYE", *sip::Uri::parse("sip:bob@10.0.0.2:5060"));
  bye.add_header("via", "SIP/2.0/UDP 127.0.0.1:5070;branch=z9hG4bKbye1");
  bye.add_header("from", "<sip:alice@voicehoc.ch>;tag=a");
  bye.add_header("to", "<sip:bob@voicehoc.ch>;tag=b");
  bye.add_header("call-id", "dlg@test");
  bye.add_header("cseq", "2 BYE");
  hosts_[0]->send_udp(5070, {net::kLoopbackAddress, 5060},
                      to_bytes(bye.serialize()));
  sim_.run_for(seconds(2));
  bool bob_got_bye = false;
  for (const auto& m : bob_inbox) {
    if (m.is_request() && m.method() == "BYE") bob_got_bye = true;
  }
  EXPECT_TRUE(bob_got_bye);
}

TEST_F(ProxyFixture, MaxForwardsExhaustedRejected) {
  std::vector<Message> inbox;
  attach_phone(0, inbox);
  Message inv = make_invite("alice@voicehoc.ch", "bob@voicehoc.ch");
  inv.set_max_forwards(0);
  phone_send(0, inv);
  sim_.run_for(seconds(1));
  bool got_483 = false;
  for (const auto& m : inbox) {
    if (m.is_response() && m.status() == 483) got_483 = true;
  }
  EXPECT_TRUE(got_483);
}

TEST_F(ProxyFixture, SdpAlgRewritesTowardInternet) {
  // Directly exercise the egress rewriting by faking Internet presence.
  proxies_[0]->set_internet_address_fn([] { return Address(10, 8, 0, 1); });
  proxies_[0]->set_dns_resolver([](const std::string&) {
    return std::optional<Address>(Address(192, 0, 2, 10));
  });
  // Capture what leaves toward the provider via the tunnel route: install a
  // tunnel iface that records datagrams.
  std::vector<net::Datagram> egress;
  hosts_[0]->attach_tunnel(Address(10, 8, 0, 1), [&](net::Datagram d) {
    egress.push_back(std::move(d));
  });
  hosts_[0]->add_route({net::kInternetPrefix, net::kInternetPrefixLen,
                        std::nullopt, net::Interface::kTunnel, 10});

  phone_send(0, make_register("alice"));
  sim_.run_for(seconds(1));
  phone_send(0, make_invite("alice@voicehoc.ch", "friend@provider.net"));
  sim_.run_for(seconds(8));  // SLP miss -> DNS -> forward

  ASSERT_FALSE(egress.empty());
  bool saw_invite = false;
  for (const auto& d : egress) {
    auto m = Message::parse(to_string(d.payload));
    if (!m || !m->is_request() || m->method() != "INVITE") continue;
    saw_invite = true;
    // Contact rewritten to the Internet-visible endpoint.
    EXPECT_EQ(m->contact()->uri.host, "10.8.0.1");
    // SDP connection address rewritten off the MANET prefix.
    auto sdp = sip::Sdp::parse(m->body());
    ASSERT_TRUE(sdp);
    EXPECT_EQ(sdp->connection, Address(10, 8, 0, 1));
  }
  EXPECT_TRUE(saw_invite);
  EXPECT_EQ(proxy_count(0, "proxy.internet_forwards_total"), 1u);
}

TEST_F(ProxyFixture, AckNeverAnswered) {
  std::vector<Message> inbox;
  attach_phone(0, inbox);
  Message ack = Message::request(
      "ACK", *sip::Uri::parse("sip:ghost@voicehoc.ch"));
  ack.add_header("via", "SIP/2.0/UDP 127.0.0.1:5070;branch=z9hG4bKack");
  ack.add_header("from", "<sip:alice@voicehoc.ch>;tag=a");
  ack.add_header("to", "<sip:ghost@voicehoc.ch>;tag=g");
  ack.add_header("call-id", "x@test");
  ack.add_header("cseq", "1 ACK");
  phone_send(0, ack);
  sim_.run_for(seconds(8));
  EXPECT_TRUE(inbox.empty());  // no 404 for ACK
}

}  // namespace
}  // namespace siphoc
