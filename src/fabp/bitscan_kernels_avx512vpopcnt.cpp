// AVX-512 VPOPCNTDQ scan kernel: the carry-save scorer at 512 lanes.
//
// Same vector substrate and the same Harley–Seal score_block as the
// AVX-512F kernel; since the lane census behind the feasibility early exit
// became a plain any-bit test, no instruction here needs VPOPCNTDQ, and the
// two kernels differ only in this TU's compile flags.  It stays a separate
// ScanIsa so FABP_FORCE_ISA names and the reported kernel are unchanged.
//
// Compiled with -mavx512f -mavx512vpopcntdq (see src/fabp/CMakeLists.txt);
// same TU-isolation rules as the other wide kernels — reached only through
// the runtime dispatcher after util::cpu_has_avx512vpopcntdq() proves CPU
// + OS support.

#include "bitscan_kernel_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

// GCC 12's AVX-512 shift intrinsics self-initialise an undefined vector,
// which -Wmaybe-uninitialized reports wherever score_block inlines them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace fabp::core::detail {

namespace {

struct Avx512VpopcntTraits {
  using Vec = __m512i;
  static constexpr unsigned kWords = 8;
  static Vec zero() noexcept { return _mm512_setzero_si512(); }
  static Vec broadcast(std::uint64_t x) noexcept {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static Vec load_bits(const std::uint64_t* plane, std::size_t w,
                       unsigned s) noexcept {
    // lane k = (plane[w+k] >> s) | (plane[w+k+1] << (64-s)); shift counts
    // >= 64 yield 0, so s == 0 needs no branch.
    const Vec lo = _mm512_loadu_si512(plane + w);
    const Vec hi = _mm512_loadu_si512(plane + w + 1);
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
};

void avx512vpopcnt_range(const BitScanQuery& query,
                         const PlaneView& reference, std::uint32_t threshold,
                         std::size_t begin, std::size_t end,
                         std::vector<Hit>& out) {
  scan_range_t<Avx512VpopcntTraits>(query, reference, threshold, begin, end,
                                    out);
}

void avx512vpopcnt_batch(const BitScanQuery* queries,
                         const std::uint32_t* thresholds, std::size_t count,
                         const PlaneView& reference, std::size_t begin,
                         std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Avx512VpopcntTraits>(queries, thresholds, count, reference,
                                    begin, end, outs);
}

}  // namespace

const ScanKernel* avx512vpopcnt_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Avx512Vpopcnt, "avx512vpopcnt",
                                     512, &avx512vpopcnt_range,
                                     &avx512vpopcnt_batch};
  return &kernel;
}

}  // namespace fabp::core::detail

#else  // compiler or target cannot emit VPOPCNTDQ: register nothing.

namespace fabp::core::detail {

const ScanKernel* avx512vpopcnt_kernel() noexcept { return nullptr; }

}  // namespace fabp::core::detail

#endif
