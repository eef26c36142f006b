#pragma once
// Small bit-manipulation helpers shared by the packed sequence store and the
// hardware (LUT/netlist) model.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace fabp::util {

/// Extract `width` bits of `value` starting at `pos` (LSB-first).
constexpr std::uint64_t bits(std::uint64_t value, unsigned pos,
                             unsigned width) noexcept {
  return (value >> pos) & ((width >= 64) ? ~0ULL : ((1ULL << width) - 1));
}

/// Single bit of `value` at position `pos` (LSB-first).
constexpr bool bit(std::uint64_t value, unsigned pos) noexcept {
  return ((value >> pos) & 1ULL) != 0;
}

/// Set or clear bit `pos` of `value`.
constexpr std::uint64_t with_bit(std::uint64_t value, unsigned pos,
                                 bool on) noexcept {
  return on ? (value | (1ULL << pos)) : (value & ~(1ULL << pos));
}

/// Number of set bits across a span of words.
inline std::size_t popcount(std::span<const std::uint64_t> words) noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

/// Ceiling division for unsigned integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Compacts the 32 even-indexed bits of `x` into the low half of the result
/// (the classic Morton-decode half-shuffle).  Two of these turn a pair of
/// 2-bit packed words into one 64-element code bitplane word — the SWAR
/// bit-compaction step of the portable tile compile (the AVX-512 kernels
/// use PEXT instead).
constexpr std::uint64_t compress_even_bits(std::uint64_t x) noexcept {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
  return x;
}

/// A growable LSB-first bit vector with word-level access; used for match
/// masks and reference bit-streams.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits, bool value = false)
      : size_{nbits},
        words_(ceil_div(nbits, 64), value ? ~0ULL : 0ULL) {
    trim();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool get(std::size_t i) const noexcept {
    return bit(words_[i >> 6], static_cast<unsigned>(i & 63));
  }

  void set(std::size_t i, bool v) noexcept {
    words_[i >> 6] = with_bit(words_[i >> 6], static_cast<unsigned>(i & 63), v);
  }

  void push_back(bool v) {
    if ((size_ & 63) == 0) words_.push_back(0);
    set_raw(size_, v);
    ++size_;
  }

  /// Population count over the whole vector.
  std::size_t count() const noexcept { return popcount(words_); }

  /// Population count over [begin, end).
  std::size_t count_range(std::size_t begin, std::size_t end) const noexcept;

  std::span<const std::uint64_t> words() const noexcept { return words_; }

  bool operator==(const BitVector&) const = default;

 private:
  void set_raw(std::size_t i, bool v) noexcept {
    words_[i >> 6] = with_bit(words_[i >> 6], static_cast<unsigned>(i & 63), v);
  }
  void trim() noexcept {
    const unsigned tail = size_ & 63;
    if (tail != 0 && !words_.empty()) words_.back() &= (1ULL << tail) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace fabp::util
