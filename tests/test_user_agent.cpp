// Tests: user agent registration and call control against a real registrar
// (Internet pair: phone <-> provider), plus direct UA <-> UA calls.
#include <gtest/gtest.h>

#include "sip/registrar.hpp"
#include "sip/user_agent.hpp"

namespace siphoc::sip {
namespace {

class UaFixture : public ::testing::Test {
 protected:
  UaFixture()
      : sim_(17),
        internet_(sim_, milliseconds(10)),
        provider_host_(sim_, 100, "provider"),
        alice_host_(sim_, 0, "alice-pc"),
        bob_host_(sim_, 1, "bob-pc") {
    provider_host_.attach_wired(internet_, net::Address(192, 0, 2, 10));
    alice_host_.attach_wired(internet_, net::Address(192, 0, 2, 1));
    bob_host_.attach_wired(internet_, net::Address(192, 0, 2, 2));
    internet_.register_domain("voicehoc.ch", net::Address(192, 0, 2, 10));
    RegistrarConfig rc;
    rc.domain = "voicehoc.ch";
    registrar_ = std::make_unique<Registrar>(provider_host_, rc);
  }

  UserAgentConfig config(const std::string& user, net::Host& host) {
    UserAgentConfig c;
    c.aor = *Uri::parse("sip:" + user + "@voicehoc.ch");
    c.outbound_proxy = {net::Address(192, 0, 2, 10), 5060};
    c.media_address = host.wired_address();
    c.answer_delay = milliseconds(50);
    return c;
  }

  sim::Simulator sim_;
  net::Internet internet_;
  net::Host provider_host_, alice_host_, bob_host_;
  std::unique_ptr<Registrar> registrar_;
};

TEST_F(UaFixture, RegisterWithProvider) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  bool ok = false;
  int status = 0;
  UserAgentCallbacks cb;
  cb.on_register_result = [&](bool success, int s) {
    ok = success;
    status = s;
  };
  alice.set_callbacks(std::move(cb));
  alice.start_registration();
  sim_.run_for(seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(alice.registered());
  const auto binding = registrar_->binding("alice@voicehoc.ch");
  ASSERT_TRUE(binding);
  EXPECT_EQ(binding->contact.host, "192.0.2.1");
}

TEST_F(UaFixture, UnregisterRemovesBinding) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  alice.start_registration();
  sim_.run_for(seconds(1));
  ASSERT_TRUE(registrar_->binding("alice@voicehoc.ch"));
  alice.stop_registration();
  sim_.run_for(seconds(1));
  EXPECT_FALSE(registrar_->binding("alice@voicehoc.ch"));
  EXPECT_FALSE(alice.registered());
}

TEST_F(UaFixture, RegistrationRefreshes) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  alice.start_registration();
  sim_.run_for(seconds(1));
  const auto before = registrar_->registers_accepted();
  // Several half-lifetime refreshes (one every 1,800 s).
  sim_.run_for(2 * UserAgent::kRegisterExpires);
  EXPECT_GT(registrar_->registers_accepted(), before + 2);
  EXPECT_TRUE(alice.registered());
}

struct CallLog {
  std::vector<std::string> events;
  CallId incoming_id = 0;
  net::Endpoint remote_rtp;

  UserAgentCallbacks callbacks() {
    UserAgentCallbacks cb;
    cb.on_incoming = [this](CallId id, const Uri& peer) {
      events.push_back("incoming:" + peer.aor());
      incoming_id = id;
    };
    cb.on_ringing = [this](CallId) { events.push_back("ringing"); };
    cb.on_established = [this](CallId, net::Endpoint rtp) {
      events.push_back("established");
      remote_rtp = rtp;
    };
    cb.on_failed = [this](CallId, int status) {
      events.push_back("failed:" + std::to_string(status));
    };
    cb.on_ended = [this](CallId) { events.push_back("ended"); };
    return cb;
  }
};

TEST_F(UaFixture, FullCallThroughProvider) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  UserAgent bob(bob_host_, config("bob", bob_host_));
  CallLog alice_log, bob_log;
  alice.set_callbacks(alice_log.callbacks());
  bob.set_callbacks(bob_log.callbacks());
  alice.start_registration();
  bob.start_registration();
  sim_.run_for(seconds(1));

  const CallId call = alice.invite(*Uri::parse("sip:bob@voicehoc.ch"));
  sim_.run_for(seconds(2));

  ASSERT_GE(alice_log.events.size(), 2u);
  EXPECT_EQ(alice_log.events[0], "ringing");
  EXPECT_EQ(alice_log.events[1], "established");
  ASSERT_GE(bob_log.events.size(), 2u);
  EXPECT_EQ(bob_log.events[0], "incoming:alice@voicehoc.ch");
  EXPECT_EQ(bob_log.events[1], "established");
  EXPECT_EQ(alice.call_state(call), UserAgent::CallState::kEstablished);
  EXPECT_EQ(alice.active_calls(), 1u);
  // Media endpoints crossed over correctly.
  EXPECT_EQ(alice_log.remote_rtp.address, bob_host_.wired_address());
  EXPECT_EQ(bob_log.remote_rtp.address, alice_host_.wired_address());

  // Hang up: BYE travels directly to the peer contact.
  alice.hangup(call);
  sim_.run_for(seconds(2));
  EXPECT_EQ(alice_log.events.back(), "ended");
  EXPECT_EQ(bob_log.events.back(), "ended");
  EXPECT_EQ(bob.active_calls(), 0u);
}

TEST_F(UaFixture, CalleeHangsUpToo) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  UserAgent bob(bob_host_, config("bob", bob_host_));
  CallLog alice_log, bob_log;
  alice.set_callbacks(alice_log.callbacks());
  bob.set_callbacks(bob_log.callbacks());
  alice.start_registration();
  bob.start_registration();
  sim_.run_for(seconds(1));
  alice.invite(*Uri::parse("sip:bob@voicehoc.ch"));
  sim_.run_for(seconds(2));
  ASSERT_EQ(bob.active_calls(), 1u);
  bob.hangup(bob_log.incoming_id);
  sim_.run_for(seconds(2));
  EXPECT_EQ(alice_log.events.back(), "ended");
  EXPECT_EQ(alice.active_calls(), 0u);
}

TEST_F(UaFixture, CallToUnknownUserFails404) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  CallLog log;
  alice.set_callbacks(log.callbacks());
  alice.start_registration();
  sim_.run_for(seconds(1));
  alice.invite(*Uri::parse("sip:ghost@voicehoc.ch"));
  sim_.run_for(seconds(2));
  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.events.back(), "failed:404");
}

TEST_F(UaFixture, ManualAnswerMode) {
  auto bob_config = config("bob", bob_host_);
  bob_config.auto_answer = false;
  UserAgent alice(alice_host_, config("alice", alice_host_));
  UserAgent bob(bob_host_, bob_config);
  CallLog alice_log, bob_log;
  alice.set_callbacks(alice_log.callbacks());
  bob.set_callbacks(bob_log.callbacks());
  alice.start_registration();
  bob.start_registration();
  sim_.run_for(seconds(1));
  alice.invite(*Uri::parse("sip:bob@voicehoc.ch"));
  sim_.run_for(seconds(3));
  // Still ringing: nobody answered.
  EXPECT_EQ(alice_log.events.back(), "ringing");
  bob.answer(bob_log.incoming_id);
  sim_.run_for(seconds(1));
  EXPECT_EQ(alice_log.events.back(), "established");
}

TEST_F(UaFixture, RejectedCallFails) {
  auto bob_config = config("bob", bob_host_);
  bob_config.auto_answer = false;
  UserAgent alice(alice_host_, config("alice", alice_host_));
  UserAgent bob(bob_host_, bob_config);
  CallLog alice_log, bob_log;
  alice.set_callbacks(alice_log.callbacks());
  bob.set_callbacks(bob_log.callbacks());
  alice.start_registration();
  bob.start_registration();
  sim_.run_for(seconds(1));
  alice.invite(*Uri::parse("sip:bob@voicehoc.ch"));
  sim_.run_for(seconds(1));
  bob.reject(bob_log.incoming_id);
  sim_.run_for(seconds(1));
  EXPECT_EQ(alice_log.events.back(), "failed:486");
  EXPECT_EQ(alice.active_calls(), 0u);
}

TEST_F(UaFixture, LocalRtpPortsDistinctPerCall) {
  UserAgent alice(alice_host_, config("alice", alice_host_));
  const CallId c1 = alice.invite(*Uri::parse("sip:x@voicehoc.ch"));
  const CallId c2 = alice.invite(*Uri::parse("sip:y@voicehoc.ch"));
  EXPECT_NE(alice.local_rtp(c1).port, alice.local_rtp(c2).port);
}

}  // namespace
}  // namespace siphoc::sip
