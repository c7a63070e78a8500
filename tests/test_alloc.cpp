// Allocation regression tests for the per-frame receive path.
//
// This binary replaces the global operator new with a counting one, so it
// must stay separate from the other test executables. Each test warms the
// code up first (vectors grow to the sizes the traffic needs), then counts
// the heap allocations of one more call.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "net/host.hpp"
#include "net/medium.hpp"
#include "routing/aodv_codec.hpp"
#include "routing/olsr.hpp"
#include "routing/olsr_codec.hpp"
#include "sim/simulator.hpp"

namespace {

// Plain globals: the tests are single-threaded.
bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace siphoc {
namespace {

using net::Address;

/// Heap allocations made while running `f`.
template <typename F>
std::size_t allocations_in(F&& f) {
  g_allocations = 0;
  g_counting = true;
  f();
  g_counting = false;
  return g_allocations;
}

TEST(AllocationTest, CountingWorks) {
  EXPECT_EQ(allocations_in([] {
              int* p = new int(1);
              asm volatile("" : : "g"(p) : "memory");  // keep the pair
              delete p;
            }),
            1u);
}

TEST(AllocationTest, AodvDecodeAllocatesNothing) {
  routing::aodv::Rreq rreq;
  rreq.rreq_id = 7;
  rreq.orig = Address(10, 0, 0, 1);
  routing::aodv::Rrep rrep;
  rrep.dst = Address(10, 0, 0, 2);
  const Bytes ext(40, 0xab);
  const Bytes rreq_wire = routing::aodv::encode(rreq, ext);
  const SharedBytes rrep_frame(routing::aodv::encode(rrep, ext));
  EXPECT_EQ(allocations_in([&] {
              const auto decoded = routing::aodv::decode(rreq_wire);
              ASSERT_TRUE(decoded);
              EXPECT_EQ(decoded->extension.size(), ext.size());
            }),
            0u);
  for (int pass = 0; pass < 2; ++pass) {  // CRC computed, then cached
    EXPECT_EQ(allocations_in([&] {
                const auto decoded = routing::aodv::decode_frame(rrep_frame);
                ASSERT_TRUE(decoded);
              }),
              0u)
        << "pass " << pass;
  }
}

TEST(AllocationTest, OlsrDuplicateTcAllocatesNothing) {
  sim::Simulator sim(3);
  net::Host host(sim, 0, "n0");
  routing::Olsr olsr(host);
  olsr.start();

  // A TC from a node two hops away, as relayed by two different neighbors:
  // the same message in two frames (two buffers, two packet numbers).
  routing::olsr::Message tc;
  tc.type = routing::olsr::MsgType::kTc;
  tc.originator = Address(10, 0, 0, 9);
  tc.ttl = 254;
  tc.hop_count = 1;
  tc.msg_seq = 40;
  for (std::uint8_t i = 1; i <= 6; ++i) {
    tc.tc.advertised.push_back(
        Address(10, 0, 0, static_cast<std::uint8_t>(20 + i)));
  }
  tc.extension = Bytes(24, 0x5a);
  const auto frame_from = [&](std::uint8_t relay, std::uint16_t pkt_seq) {
    routing::olsr::Packet p;
    p.pkt_seq = pkt_seq;
    p.messages.push_back(tc);
    net::Datagram d;
    d.src = Address(10, 0, 0, relay);
    d.dst = net::kBroadcastAddress;
    d.src_port = net::kOlsrPort;
    d.dst_port = net::kOlsrPort;
    d.ttl = 1;
    d.payload = routing::olsr::encode(p);
    return d;
  };
  const net::Datagram first = frame_from(2, 11);
  const net::Datagram duplicate = frame_from(3, 12);

  host.inject(first, net::Interface::kRadio);  // warms rx_packet_ up
  EXPECT_EQ(allocations_in([&] {
              host.inject(duplicate, net::Interface::kRadio);
            }),
            0u);
}

/// Allocations of the second of two broadcasts from a sender with
/// `receivers` neighbors in range (the first warms the scratch up).
std::size_t broadcast_allocations(std::size_t receivers) {
  sim::Simulator sim(1);
  net::RadioMedium medium(sim, net::RadioConfig{});
  std::size_t delivered = 0;
  for (std::size_t i = 0; i <= receivers; ++i) {
    net::RadioAttachment radio;
    radio.mac = static_cast<net::NodeId>(i);
    radio.address = Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
    const net::Position at{static_cast<double>(i), 0};
    radio.position = [at] { return at; };
    radio.deliver = [&delivered](const net::Frame&) { ++delivered; };
    radio.fixed_position = true;
    medium.attach(std::move(radio));
  }
  net::Datagram d;
  d.src = Address(10, 0, 0, 1);
  d.dst = net::kBroadcastAddress;
  d.payload = Bytes(64, 0x11);
  const net::Frame frame{0, net::kBroadcastMac, d};
  medium.transmit(frame);
  sim.run_to_completion();
  const std::size_t n = allocations_in([&] { medium.transmit(frame); });
  sim.run_to_completion();
  EXPECT_EQ(delivered, 2 * receivers);
  return n;
}

TEST(AllocationTest, BroadcastAllocationsDoNotGrowWithReceivers) {
  const std::size_t one = broadcast_allocations(1);
  EXPECT_GT(one, 0u);  // the delivery event itself
  EXPECT_EQ(broadcast_allocations(12), one);
}

}  // namespace
}  // namespace siphoc
