#include "fabp/util/crc32.hpp"

#include <array>

namespace fabp::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-16: kTables[0] is the classic bytewise table of the reflected
// polynomial, and kTables[k][b] is the CRC contribution of byte b followed
// by k zero bytes.  Sixteen independent lookups then fold sixteen input
// bytes per step instead of one.
constexpr std::array<Table, 16> make_tables() {
  std::array<Table, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr auto kTables = make_tables();

// Explicit little-endian load: the checksum must not depend on the host's
// byte order (compilers fold the shifts into one 8-byte load).
std::uint64_t load_le64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

std::uint32_t lookup(std::size_t table, std::uint64_t v, int byte) noexcept {
  return kTables[table][(v >> (8 * byte)) & 0xFFu];
}

/// Folds 16 bytes, given as two little-endian words, into the running
/// (pre-inverted) CRC.  Byte j of the block goes through table 15 - j.
std::uint32_t fold16(std::uint32_t c, std::uint64_t lo,
                     std::uint64_t hi) noexcept {
  lo ^= c;
  return lookup(15, lo, 0) ^ lookup(14, lo, 1) ^ lookup(13, lo, 2) ^
         lookup(12, lo, 3) ^ lookup(11, lo, 4) ^ lookup(10, lo, 5) ^
         lookup(9, lo, 6) ^ lookup(8, lo, 7) ^ lookup(7, hi, 0) ^
         lookup(6, hi, 1) ^ lookup(5, hi, 2) ^ lookup(4, hi, 3) ^
         lookup(3, hi, 4) ^ lookup(2, hi, 5) ^ lookup(1, hi, 6) ^
         lookup(0, hi, 7);
}

std::uint32_t fold_byte(std::uint32_t c, std::uint8_t byte) noexcept {
  return kTables[0][(c ^ byte) & 0xFFu] ^ (c >> 8);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 16; p += 16, size -= 16)
    c = fold16(c, load_le64(p), load_le64(p + 8));
  for (; size > 0; ++p, --size) c = fold_byte(c, *p);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_words(std::span<const std::uint64_t> words,
                          std::uint32_t crc) noexcept {
  // Each word is hashed as its little-endian bytes, whatever the host.
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 2 <= words.size(); i += 2) c = fold16(c, words[i], words[i + 1]);
  if (i < words.size())
    for (int b = 0; b < 8; ++b)
      c = fold_byte(c, static_cast<std::uint8_t>(words[i] >> (8 * b)));
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fabp::util
