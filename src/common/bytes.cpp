#include "common/bytes.hpp"

#include <array>
#include <cctype>
#include <cstdio>

namespace siphoc {

namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  // Slicing-by-8: t[k][b] is the CRC of byte b followed by k zero bytes,
  // so the main loop folds eight input bytes with eight independent
  // lookups. t[0] is the classic byte-at-a-time table; it finishes the
  // tail. Loads are assembled byte by byte: no alignment assumption.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

void append_crc32(Bytes& out) { BufferWriter(out).u32(crc32(out)); }

std::optional<std::span<const std::uint8_t>> verify_crc32(
    std::span<const std::uint8_t> data) {
  if (data.size() < 4) return std::nullopt;
  const auto head = data.first(data.size() - 4);
  const auto want = BufferReader(data.last(4)).u32();
  if (!want || *want != crc32(head)) return std::nullopt;
  return head;
}

std::optional<std::span<const std::uint8_t>> SharedBytes::verified_head()
    const {
  if (!data_) return std::nullopt;
  const std::span<const std::uint8_t> all = data_->bytes;
  switch (data_->crc.load(std::memory_order_relaxed)) {
    case kValid:
      return all.first(all.size() - 4);
    case kInvalid:
      return std::nullopt;
    default:
      break;
  }
  const auto head = verify_crc32(all);
  data_->crc.store(head ? kValid : kInvalid, std::memory_order_relaxed);
  return head;
}

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_string(std::span<const std::uint8_t> data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

std::string hex_dump(std::span<const std::uint8_t> data) {
  std::string out;
  char line[24];
  for (std::size_t row = 0; row < data.size(); row += 16) {
    std::snprintf(line, sizeof(line), "%04zx  ", row);
    out += line;
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < data.size()) {
        std::snprintf(line, sizeof(line), "%02x ", data[row + i]);
        out += line;
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |";
    for (std::size_t i = 0; i < 16 && row + i < data.size(); ++i) {
      const unsigned char c = data[row + i];
      out += std::isprint(c) ? static_cast<char>(c) : '.';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace siphoc
