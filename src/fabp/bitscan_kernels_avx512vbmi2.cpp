// AVX-512 VBMI2 scan kernel: the AVX-512F kernel with a one-instruction
// element load.  score_block reads every query element's plane at a bit
// offset that is rarely a word boundary; AVX-512F builds each lane from
// two words with a right shift, a left shift and an OR, while VBMI2's
// VPSHRDVQ funnel-shifts the word pair in one uop.  Everything else — the
// PEXT tile compile and the carry-save scorer — is the AVX-512F kernel's.
//
// Compiled with -mavx512f -mavx512vbmi2 -mbmi2 (see
// src/fabp/CMakeLists.txt); same TU-isolation rules as the other wide
// kernels — reached only through the runtime dispatcher after
// util::cpu_has_avx512vbmi2() and util::cpu_has_bmi2() prove CPU + OS
// support.

#include "bitscan_kernel_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512VBMI2__) && defined(__BMI2__)

#include "bitscan_avx512_traits.hpp"

namespace fabp::core::detail {

namespace {

struct Avx512Vbmi2Traits : Avx512Traits {
  static Vec load_bits(const std::uint64_t* at, std::uint64_t s) noexcept {
    // lane k = low 64 bits of (at[k+1]:at[k]) >> s.
    return _mm512_shrdv_epi64(_mm512_loadu_si512(at),
                              _mm512_loadu_si512(at + 1),
                              _mm512_set1_epi64(static_cast<long long>(s)));
  }
};

CodeWord avx512vbmi2_compile(const TileCompileJob& job, std::uint64_t* planes,
                             std::size_t stride) {
  return compile_tile_t<Avx512Vbmi2Traits>(job, planes, stride);
}

void avx512vbmi2_batch(const BitScanQuery* const* queries,
                       const std::uint32_t* thresholds, std::size_t count,
                       const PlaneView& reference, std::size_t begin,
                       std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Avx512Vbmi2Traits>(queries, thresholds, count, reference,
                                  begin, end, outs);
}

}  // namespace

const ScanKernel* avx512vbmi2_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Avx512Vbmi2, "avx512vbmi2", 512,
                                     &avx512vbmi2_compile,
                                     &avx512vbmi2_batch};
  return &kernel;
}

}  // namespace fabp::core::detail

#else  // compiler or target cannot emit VBMI2 + BMI2: register nothing.

namespace fabp::core::detail {

const ScanKernel* avx512vbmi2_kernel() noexcept { return nullptr; }

}  // namespace fabp::core::detail

#endif
