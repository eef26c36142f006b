// AVX-512 VPOPCNTDQ scan kernel: the carry-save scorer at 512 lanes.
//
// Same Traits (bitscan_avx512_traits.hpp), the same PEXT tile compile and
// the same Harley–Seal score_block as the AVX-512F kernel; since the lane
// census behind the feasibility early exit became a plain any-bit test, no
// instruction here needs VPOPCNTDQ, and the two kernels differ only in
// this TU's compile flags.  It stays a separate ScanIsa so FABP_FORCE_ISA
// names and the reported kernel are unchanged.
//
// Compiled with -mavx512f -mavx512vpopcntdq -mbmi2 (see
// src/fabp/CMakeLists.txt); same TU-isolation rules as the other wide
// kernels — reached only through the runtime dispatcher after
// util::cpu_has_avx512vpopcntdq() and util::cpu_has_bmi2() prove CPU + OS
// support.

#include "bitscan_kernel_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__) && defined(__BMI2__)

#include "bitscan_avx512_traits.hpp"

namespace fabp::core::detail {

namespace {

CodeWord avx512vpopcnt_compile(const TileCompileJob& job,
                               std::uint64_t* planes, std::size_t stride) {
  return compile_tile_t<Avx512Traits>(job, planes, stride);
}

void avx512vpopcnt_batch(const BitScanQuery* const* queries,
                         const std::uint32_t* thresholds, std::size_t count,
                         const PlaneView& reference, std::size_t begin,
                         std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Avx512Traits>(queries, thresholds, count, reference, begin,
                             end, outs);
}

}  // namespace

const ScanKernel* avx512vpopcnt_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Avx512Vpopcnt, "avx512vpopcnt",
                                     512, &avx512vpopcnt_compile,
                                     &avx512vpopcnt_batch};
  return &kernel;
}

}  // namespace fabp::core::detail

#else  // compiler or target cannot emit VPOPCNTDQ + BMI2: register nothing.

namespace fabp::core::detail {

const ScanKernel* avx512vpopcnt_kernel() noexcept { return nullptr; }

}  // namespace fabp::core::detail

#endif
