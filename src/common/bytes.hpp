// Binary wire-format helpers.
//
// All on-the-wire encodings in this project (AODV, OLSR, SLP extensions,
// RTP, tunnel frames) are big-endian, mirroring the network byte order the
// real protocols use. BufferWriter appends fields; BufferReader consumes
// them with explicit bounds checking so a truncated or hostile packet can
// never read past the end of the buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace siphoc {

using Bytes = std::vector<std::uint8_t>;

/// Immutable, cheaply-copyable byte buffer (shared ownership).
///
/// Datagram payloads use this so that delivering a broadcast frame to k
/// receivers schedules k closures over ONE payload allocation instead of k
/// deep copies; the same applies to multihop forwarding, which copies the
/// datagram once per hop. Construction from `Bytes` takes ownership of the
/// vector; all further copies are a reference-count bump. The buffer is
/// immutable after construction -- to change a payload, build a new one.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<const Buffer>(std::move(bytes))) {}
  SharedBytes(std::initializer_list<std::uint8_t> il)
      : SharedBytes(Bytes(il)) {}

  const Bytes& bytes() const { return data_ ? data_->bytes : empty_bytes(); }
  const std::uint8_t* data() const { return bytes().data(); }
  std::size_t size() const { return data_ ? data_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }
  auto begin() const { return bytes().begin(); }
  auto end() const { return bytes().end(); }

  /// verify_crc32(bytes()), computed once per buffer: every copy of this
  /// SharedBytes (each receiver of a broadcast) shares the verdict. Exact
  /// because the bytes never change after construction; a mangled copy is
  /// a new buffer with a verdict of its own. Safe to call from several
  /// threads at once: racing callers compute and store the same verdict.
  std::optional<std::span<const std::uint8_t>> verified_head() const;

  operator const Bytes&() const {  // NOLINT(google-explicit-constructor)
    return bytes();
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT
    return bytes();
  }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.bytes() == b.bytes();
  }
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.bytes() == b;
  }

 private:
  enum Verdict : std::uint8_t { kUnchecked, kValid, kInvalid };
  struct Buffer {
    explicit Buffer(Bytes b) : bytes(std::move(b)) {}
    Bytes bytes;
    // A Verdict; relaxed is enough, since it is a pure function of `bytes`,
    // which were published together with the shared_ptr.
    mutable std::atomic<std::uint8_t> crc{kUnchecked};
  };
  static const Bytes& empty_bytes() {
    static const Bytes empty;
    return empty;
  }
  std::shared_ptr<const Buffer> data_;
};

/// Appends big-endian encoded primitive fields to a byte vector.
class BufferWriter {
 public:
  explicit BufferWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  /// Length-prefixed (u16) string, the framing used by all our TLVs.
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  std::size_t size() const { return out_.size(); }

 private:
  Bytes& out_;
};

/// Bounds-checked big-endian reader over a byte span.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return fail("u8: buffer underrun");
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() {
    if (remaining() < 2) return fail("u16: buffer underrun");
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (remaining() < 4) return fail("u32: buffer underrun");
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64() {
    auto hi = u32();
    if (!hi) return hi.error();
    auto lo = u32();
    if (!lo) return lo.error();
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }
  Result<std::string> str() {
    auto len = u16();
    if (!len) return len.error();
    if (remaining() < *len) return fail("str: buffer underrun");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
    pos_ += *len;
    return s;
  }
  Result<Bytes> raw(std::size_t n) {
    auto v = view(n);
    if (!v) return v.error();
    return Bytes(v->begin(), v->end());
  }
  /// The next `n` bytes without copying them: valid as long as the buffer
  /// the reader views.
  Result<std::span<const std::uint8_t>> view(std::size_t n) {
    if (remaining() < n) return fail("raw: buffer underrun");
    const auto v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  Result<void> skip(std::size_t n) {
    if (remaining() < n) return fail("skip: buffer underrun");
    pos_ += n;
    return {};
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected). The binary codecs append it
/// as an integrity trailer so frames mangled by the chaos engine's
/// bit-corruption injector are rejected at decode instead of poisoning
/// routing tables or SLP caches (see docs/RESILIENCE.md).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Appends crc32(out) to `out` as a big-endian 4-byte trailer.
void append_crc32(Bytes& out);

/// The bytes a trailer written by append_crc32 covers; nullopt when `data`
/// is shorter than the trailer or the trailer does not match them.
std::optional<std::span<const std::uint8_t>> verify_crc32(
    std::span<const std::uint8_t> data);

/// Converts ASCII text to bytes (SIP messages travel as text over UDP).
Bytes to_bytes(std::string_view text);

/// Interprets bytes as ASCII text.
std::string to_string(std::span<const std::uint8_t> data);

/// Hex dump with 16 bytes per row and an ASCII gutter, in the style of a
/// packet analyzer pane (used by examples/packet_trace to render Figure 5).
std::string hex_dump(std::span<const std::uint8_t> data);

}  // namespace siphoc
