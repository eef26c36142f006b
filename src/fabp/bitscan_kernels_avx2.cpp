// AVX2 scan kernel: the vertical-counter block loop at 256 lanes.  This TU
// is compiled with -mavx2 (see src/fabp/CMakeLists.txt) and must therefore
// contain nothing the baseline build could link to accidentally — only the
// Traits instantiation (TU-local via the unique Traits type) and the
// registration function, which is reached solely through the runtime
// dispatcher after util::cpu_has_avx2() proves the host can execute it.

#include "bitscan_kernel_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace fabp::core::detail {

namespace {

struct Avx2Traits {
  using Vec = __m256i;
  static constexpr unsigned kWords = 4;
  static Vec zero() noexcept { return _mm256_setzero_si256(); }
  static Vec broadcast(std::uint64_t x) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static Vec load_bits(const std::uint64_t* at, std::uint64_t s) noexcept {
    // lane k = (at[k] >> s) | (at[k+1] << (64-s)); VPSLLQ with a count
    // >= 64 yields 0, so s == 0 needs no branch (unlike the C++ shift in
    // the SWAR kernel).
    const Vec lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at));
    const Vec hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at + 1));
    return _mm256_or_si256(
        _mm256_srli_epi64(lo, static_cast<int>(s)),
        _mm256_slli_epi64(hi, static_cast<int>(64 - s)));
  }
  static Vec and_(Vec a, Vec b) noexcept { return _mm256_and_si256(a, b); }
  static Vec or_(Vec a, Vec b) noexcept { return _mm256_or_si256(a, b); }
  static Vec xor_(Vec a, Vec b) noexcept { return _mm256_xor_si256(a, b); }
  static Vec andnot(Vec a, Vec b) noexcept {
    return _mm256_andnot_si256(a, b);  // (~a) & b
  }
  static Vec not_(Vec a) noexcept {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(-1));
  }
  static bool any(Vec a) noexcept { return !_mm256_testz_si256(a, a); }
  static void store(std::uint64_t* dst, Vec v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static Vec load(const std::uint64_t* src) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  }
  static Vec shl(Vec a, unsigned n) noexcept {
    return _mm256_slli_epi64(a, static_cast<int>(n));
  }
  static Vec shr(Vec a, unsigned n) noexcept {
    return _mm256_srli_epi64(a, static_cast<int>(n));
  }
  static Vec prev_words(Vec cur, Vec prev) noexcept {
    // [prev3, cur0 | cur1, cur2]: the 128-bit halves {prev.hi, cur.lo},
    // then a byte align within each half.
    const Vec mid = _mm256_permute2x128_si256(prev, cur, 0x21);
    return _mm256_alignr_epi8(cur, mid, 8);
  }
  // PEXT would need BMI2, which AVX2 hosts need not have and pre-Zen 3
  // AMD microcodes: keep the portable compaction.
  static CodeWord compact(std::uint64_t lo, std::uint64_t hi) noexcept {
    return compact_portable(lo, hi);
  }
};

CodeWord avx2_compile(const TileCompileJob& job, std::uint64_t* planes,
                      std::size_t stride) {
  return compile_tile_t<Avx2Traits>(job, planes, stride);
}

void avx2_batch(const BitScanQuery* const* queries,
                const std::uint32_t* thresholds, std::size_t count,
                const PlaneView& reference, std::size_t begin,
                std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Avx2Traits>(queries, thresholds, count, reference, begin, end,
                           outs);
}

}  // namespace

const ScanKernel* avx2_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Avx2, "avx2", 256,
                                     &avx2_compile, &avx2_batch};
  return &kernel;
}

}  // namespace fabp::core::detail

#else  // !__AVX2__ — compiler or target cannot emit AVX2: register nothing.

namespace fabp::core::detail {

const ScanKernel* avx2_kernel() noexcept { return nullptr; }

}  // namespace fabp::core::detail

#endif
