#pragma once
// The AVX-512 Traits (see bitscan_kernel_impl.hpp) of the avx512 kernel TU,
// which the avx512vbmi2 TU derives from to replace load_bits alone.
// Include it only from a TU compiled with -mavx512f -mbmi2.  The struct
// sits in an anonymous namespace on purpose: each including TU gets its
// own type, so every instantiation over it stays TU-local and no comdat
// built with one TU's flags can be linked into the other's callers.

// GCC 12's AVX-512 shift intrinsics self-initialise an undefined vector,
// which -Wmaybe-uninitialized reports wherever score_block inlines them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "bitscan_kernel_impl.hpp"

namespace fabp::core::detail {

namespace {

struct Avx512Traits {
  using Vec = __m512i;
  static constexpr unsigned kWords = 8;
  static Vec zero() noexcept { return _mm512_setzero_si512(); }
  static Vec broadcast(std::uint64_t x) noexcept {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static Vec load_bits(const std::uint64_t* at, std::uint64_t s) noexcept {
    // lane k = (at[k] >> s) | (at[k+1] << (64-s)); shift counts >= 64
    // yield 0, so s == 0 needs no branch.
    const Vec lo = _mm512_loadu_si512(at);
    const Vec hi = _mm512_loadu_si512(at + 1);
    return _mm512_or_si512(
        _mm512_srli_epi64(lo, static_cast<unsigned>(s)),
        _mm512_slli_epi64(hi, static_cast<unsigned>(64 - s)));
  }
  static Vec and_(Vec a, Vec b) noexcept { return _mm512_and_si512(a, b); }
  static Vec or_(Vec a, Vec b) noexcept { return _mm512_or_si512(a, b); }
  static Vec xor_(Vec a, Vec b) noexcept { return _mm512_xor_si512(a, b); }
  static Vec andnot(Vec a, Vec b) noexcept {
    return _mm512_andnot_si512(a, b);  // (~a) & b
  }
  static Vec not_(Vec a) noexcept {
    return _mm512_ternarylogic_epi64(a, a, a, 0x55);  // ~a
  }
  static bool any(Vec a) noexcept {
    return _mm512_test_epi64_mask(a, a) != 0;
  }
  static void store(std::uint64_t* dst, Vec v) noexcept {
    _mm512_storeu_si512(dst, v);
  }
  static Vec load(const std::uint64_t* src) noexcept {
    return _mm512_loadu_si512(src);
  }
  static Vec shl(Vec a, unsigned n) noexcept { return _mm512_slli_epi64(a, n); }
  static Vec shr(Vec a, unsigned n) noexcept { return _mm512_srli_epi64(a, n); }
  static Vec prev_words(Vec cur, Vec prev) noexcept {
    return _mm512_alignr_epi64(cur, prev, 7);  // [prev7, cur0 .. cur6]
  }
  // One PEXT per half word and plane: even code bits to lsb, odd to msb.
  static CodeWord compact(std::uint64_t lo, std::uint64_t hi) noexcept {
    constexpr std::uint64_t kEven = 0x5555555555555555ULL;
    return {_pext_u64(lo, kEven) | (_pext_u64(hi, kEven) << 32),
            _pext_u64(lo, ~kEven) | (_pext_u64(hi, ~kEven) << 32)};
  }
};

}  // namespace

}  // namespace fabp::core::detail
