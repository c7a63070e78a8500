// Tests: softphone-level behavior (the out-of-the-box application surface)
// including caller-side CANCEL of a ringing call.
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/scenario.hpp"

namespace siphoc::voip {
namespace {

class PhonePair : public ::testing::Test {
 protected:
  PhonePair() {
    scenario::Options o;
    o.nodes = 3;
    o.routing = RoutingKind::kAodv;
    bed_ = std::make_unique<scenario::Testbed>(o);
    bed_->start();
    SoftPhoneConfig pc;
    pc.username = "alice";
    pc.domain = "voicehoc.ch";
    alice_ = &bed_->add_phone(0, pc);
    pc.username = "bob";
    pc.auto_answer = false;  // manual control for cancel/reject flows
    bob_ = &bed_->add_phone(2, pc);
    bed_->settle(seconds(2));
    bed_->register_and_wait(*alice_);
    bed_->register_and_wait(*bob_);
  }

  std::unique_ptr<scenario::Testbed> bed_;
  SoftPhone* alice_ = nullptr;
  SoftPhone* bob_ = nullptr;
};

TEST_F(PhonePair, SecondPhoneOnANodeIsRefused) {
  // alice owns node 0's SIP port; a second phone there would take it.
  EXPECT_THROW(bed_->add_phone(0, "carol"), std::invalid_argument);
  EXPECT_EQ(bed_->phone_count(), 2u);
  bool alice_rang = false;
  SoftPhoneEvents ae;
  ae.on_incoming = [&](sip::CallId, const sip::Uri&) { alice_rang = true; };
  alice_->set_events(std::move(ae));
  const auto call = bed_->call_and_wait(*bob_, "alice@voicehoc.ch");
  EXPECT_TRUE(call.established);
  EXPECT_TRUE(alice_rang);
}

TEST_F(PhonePair, CallerCancelsRingingCall) {
  sip::CallId bob_incoming = 0;
  bool bob_ended = false;
  SoftPhoneEvents be;
  be.on_incoming = [&](sip::CallId id, const sip::Uri&) {
    bob_incoming = id;
  };
  be.on_ended = [&](sip::CallId) { bob_ended = true; };
  bob_->set_events(std::move(be));

  bool alice_failed = false;
  int fail_status = 0;
  SoftPhoneEvents ae;
  ae.on_failed = [&](sip::CallId, int status) {
    alice_failed = true;
    fail_status = status;
  };
  alice_->set_events(std::move(ae));

  const auto call = alice_->dial("bob@voicehoc.ch");
  bed_->run_for(seconds(2));  // bob is ringing, nobody answers
  ASSERT_NE(bob_incoming, 0u);
  ASSERT_FALSE(alice_failed);

  alice_->hang_up(call);  // CANCEL
  bed_->run_for(seconds(3));
  EXPECT_TRUE(alice_failed);
  EXPECT_EQ(fail_status, 487);  // Request Terminated
  EXPECT_TRUE(bob_ended);
  EXPECT_EQ(bob_->user_agent().active_calls(), 0u);
  EXPECT_EQ(alice_->user_agent().active_calls(), 0u);
}

TEST_F(PhonePair, DialAcceptsBareAorAndFullUri) {
  EXPECT_NE(alice_->dial("bob@voicehoc.ch"), 0u);
  EXPECT_NE(alice_->dial("sip:bob@voicehoc.ch"), 0u);
  EXPECT_EQ(alice_->dial("not a uri at all:::"), 0u);
}

TEST_F(PhonePair, CallReportLifecycle) {
  sip::CallId bob_incoming = 0;
  SoftPhoneEvents be;
  be.on_incoming = [&](sip::CallId id, const sip::Uri&) {
    bob_incoming = id;
  };
  bob_->set_events(std::move(be));
  const auto call = alice_->dial("bob@voicehoc.ch");
  bed_->run_for(seconds(1));
  EXPECT_FALSE(alice_->call_report(call).has_value());  // not established
  bob_->answer(bob_incoming);
  bed_->run_for(seconds(5));
  ASSERT_TRUE(alice_->call_report(call).has_value());   // live session
  const auto live = alice_->call_report(call)->packets_sent;
  EXPECT_GT(live, 0u);
  alice_->hang_up(call);
  bed_->run_for(seconds(1));
  // Final report survives teardown.
  ASSERT_TRUE(alice_->call_report(call).has_value());
  EXPECT_GE(alice_->call_report(call)->packets_sent, live);
}

TEST_F(PhonePair, PowerOffUnregistersAndStopsMedia) {
  sip::CallId bob_incoming = 0;
  SoftPhoneEvents be;
  be.on_incoming = [&](sip::CallId id, const sip::Uri&) {
    bob_incoming = id;
  };
  bob_->set_events(std::move(be));
  const auto call = alice_->dial("bob@voicehoc.ch");
  bed_->run_for(seconds(1));
  bob_->answer(bob_incoming);
  bed_->run_for(seconds(2));
  ASSERT_TRUE(alice_->in_call(call));

  alice_->power_off();
  bed_->run_for(seconds(2));
  EXPECT_FALSE(alice_->registered());
  // Alice's proxy no longer holds her binding: new calls to her 404.
  bool done = false;
  int status = 0;
  SoftPhoneEvents be2;
  be2.on_failed = [&](sip::CallId, int s) {
    done = true;
    status = s;
  };
  bob_->set_events(std::move(be2));
  bob_->dial("alice@voicehoc.ch");
  const auto deadline = bed_->sim().now() + seconds(12);
  while (!done && bed_->sim().now() < deadline) {
    bed_->run_for(milliseconds(20));
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(status, 404);
}

TEST_F(PhonePair, RemoteRtcpViewAvailableDuringCall) {
  sip::CallId bob_incoming = 0;
  SoftPhoneEvents be;
  be.on_incoming = [&](sip::CallId id, const sip::Uri&) {
    bob_incoming = id;
  };
  bob_->set_events(std::move(be));
  const auto call = alice_->dial("bob@voicehoc.ch");
  bed_->run_for(seconds(1));
  bob_->answer(bob_incoming);
  bed_->run_for(seconds(12));  // a couple of RTCP intervals
  const auto report = alice_->call_report(call);
  ASSERT_TRUE(report);
  ASSERT_TRUE(report->remote_loss_percent.has_value());
  EXPECT_LT(*report->remote_loss_percent, 5.0);
}

}  // namespace
}  // namespace siphoc::voip
