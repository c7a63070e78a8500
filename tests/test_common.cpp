// Unit tests: common utilities (bytes, strings, result, time, rng).
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/flat_map.hpp"
#include "common/random.hpp"
#include "common/result.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"

namespace siphoc {
namespace {

TEST(BytesTest, RoundTripPrimitives) {
  Bytes buf;
  BufferWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ull);
  w.str("hello");

  BufferReader r(buf);
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0102030405060708ull);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_TRUE(r.empty());
}

TEST(BytesTest, BigEndianLayout) {
  Bytes buf;
  BufferWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(BytesTest, UnderrunIsError) {
  Bytes buf = {0x01};
  BufferReader r(buf);
  EXPECT_FALSE(r.u32());
  // Failed read must not consume.
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.u8());
}

TEST(BytesTest, StringUnderrun) {
  Bytes buf;
  BufferWriter w(buf);
  w.u16(100);  // claims 100 bytes, provides none
  BufferReader r(buf);
  EXPECT_FALSE(r.str());
}

TEST(BytesTest, HexDumpShape) {
  Bytes data(20, 0x41);  // 'A'
  const std::string dump = hex_dump(data);
  EXPECT_NE(dump.find("41 41"), std::string::npos);
  EXPECT_NE(dump.find("|AAAA"), std::string::npos);
  EXPECT_NE(dump.find("0010"), std::string::npos);  // second row offset
}

// Bit-at-a-time CRC-32 straight from the reflected polynomial: the
// reference that crc32's table-driven loops must reproduce.
std::uint32_t bitwise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(BytesTest, Crc32KnownAnswers) {
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(BytesTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-300 cover the empty input, tails of every size and many
  // passes of the 8-byte main loop; offsets 0-7 start those passes at
  // every alignment.
  Rng rng(4);
  Bytes buf(8 + 300);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), bitwise_crc32(data))
          << "offset " << offset << ", length " << len;
    }
  }
}

// verified_head() must give verify_crc32's answer, on the first call and
// on the cached ones after it.
void expect_verified_head_matches(const SharedBytes& frame) {
  const auto want = verify_crc32(frame.bytes());
  for (int call = 0; call < 3; ++call) {
    const auto got = frame.verified_head();
    ASSERT_EQ(got.has_value(), want.has_value())
        << "size " << frame.size() << ", call " << call;
    if (want) {
      EXPECT_EQ(got->data(), want->data());
      EXPECT_EQ(got->size(), want->size());
    }
  }
}

TEST(BytesTest, VerifiedHeadAgreesWithVerifyCrc32) {
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    Bytes body(rng.uniform_int(0, 80));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    SCOPED_TRACE("buffer " + std::to_string(i));
    // Random bytes: a matching trailer is all but impossible.
    expect_verified_head_matches(SharedBytes(body));
    // A valid trailer, then the same frame with one bit flipped.
    append_crc32(body);
    expect_verified_head_matches(SharedBytes(body));
    const auto bit = rng.uniform_int(0u, static_cast<std::uint32_t>(
                                             body.size() * 8 - 1));
    body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_verified_head_matches(SharedBytes(body));
  }
}

TEST(BytesTest, VerifiedHeadRejectsBuffersShorterThanTheTrailer) {
  expect_verified_head_matches(SharedBytes());
  EXPECT_FALSE(SharedBytes().verified_head());
  for (std::size_t n = 1; n < 4; ++n) {
    const SharedBytes frame(Bytes(n, 0));
    EXPECT_FALSE(frame.verified_head()) << "size " << n;
    expect_verified_head_matches(frame);
  }
  // Four bytes are a trailer over nothing: the empty head is valid.
  Bytes trailer_only;
  append_crc32(trailer_only);
  const SharedBytes frame(trailer_only);
  ASSERT_TRUE(frame.verified_head());
  EXPECT_TRUE(frame.verified_head()->empty());
}

TEST(BytesTest, CopiesShareOneVerdict) {
  Bytes body = {1, 2, 3, 4, 5};
  append_crc32(body);
  const SharedBytes frame(body);
  const SharedBytes copy = frame;  // what each broadcast receiver holds
  ASSERT_TRUE(frame.verified_head());
  ASSERT_TRUE(copy.verified_head());
  EXPECT_EQ(copy.verified_head()->data(), frame.data());
}

// Every key finds its own value through growth, the key that marks empty
// slots included, and absent keys stay absent.
TEST(FlatMapTest, FindsEveryKeyThroughGrowth) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_EQ(map.capacity(), 0u);
  const std::uint32_t kMax = 0xffffffffu;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    const auto [value, added] = map.emplace(k * 2654435761u, k);
    ASSERT_TRUE(added);
    EXPECT_EQ(*value, k);
  }
  EXPECT_TRUE(map.emplace(kMax, 5000).second);
  EXPECT_FALSE(map.emplace(kMax, 6000).second);
  EXPECT_FALSE(map.emplace(3 * 2654435761u, 9).second);
  EXPECT_EQ(map.size(), 1001u);
  EXPECT_LE(2 * map.size(), map.capacity());
  for (std::uint32_t k = 0; k < 1000; ++k) {
    const std::uint32_t* value = map.find(k * 2654435761u);
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, k);
  }
  EXPECT_EQ(*map.find(kMax), 5000u);
  EXPECT_EQ(map.find(1000 * 2654435761u), nullptr);
}

// A rebuild keeps exactly the entries its predicate keeps, the one under
// the empty-slot key included, and never shrinks the table.
TEST(FlatMapTest, RebuildDropsWhatThePredicateRejects) {
  FlatMap<std::uint64_t, int> map;
  const auto even = [](std::uint64_t, int v) { return v % 2 == 0; };
  for (int i = 0; i < 7; ++i) map.emplace(std::uint64_t(i), i, even);
  map.emplace(~std::uint64_t{0}, 1, even);
  ASSERT_EQ(map.capacity(), 16u);
  ASSERT_EQ(map.size(), 8u);
  map.emplace(100, 100, even);  // half full: rebuilds first
  EXPECT_EQ(map.capacity(), 16u);
  EXPECT_EQ(map.size(), 5u);  // 0, 2, 4, 6 and 100
  EXPECT_EQ(map.find(~std::uint64_t{0}), nullptr);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(map.find(std::uint64_t(i)) != nullptr, i % 2 == 0) << i;
  }
  EXPECT_EQ(*map.find(100), 100);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\thi"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpty) {
  const auto parts = split_trimmed(" a ; ; b ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, CaseInsensitive) {
  EXPECT_TRUE(iequals("Via", "VIA"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("via", "vi"));
  EXPECT_TRUE(istarts_with("SIP/2.0/UDP", "sip/2.0"));
  EXPECT_EQ(to_lower("CSeq"), "cseq");
}

TEST(StringsTest, SplitKv) {
  const auto [k, v] = split_kv(" branch = z9hG4bK77 ", '=');
  EXPECT_EQ(k, "branch");
  EXPECT_EQ(v, "z9hG4bK77");
  const auto [k2, v2] = split_kv("lr", '=');
  EXPECT_EQ(k2, "lr");
  EXPECT_EQ(v2, "");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok);
  EXPECT_EQ(*ok, 42);
  Result<int> err = fail("boom", 7);
  EXPECT_FALSE(err);
  EXPECT_EQ(err.error().message, "boom");
  EXPECT_EQ(err.error().code, 7);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, VoidResult) {
  Result<void> ok;
  EXPECT_TRUE(ok);
  Result<void> err = fail("nope");
  EXPECT_FALSE(err);
  EXPECT_EQ(err.error().message, "nope");
}

TEST(TimeTest, Formatting) {
  const TimePoint t = TimePoint{} + seconds(12) + microseconds(34567);
  EXPECT_EQ(format_time(t), "12.034567s");
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(seconds(2)), 2000.0);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto n = rng.uniform_int(5, 9);
    EXPECT_GE(n, 5u);
    EXPECT_LE(n, 9u);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(3);
  double total = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    total += to_seconds(rng.exponential(seconds(2)));
  }
  EXPECT_NEAR(total / samples, 2.0, 0.1);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream must differ from the parent's continued stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform() != child.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace siphoc
