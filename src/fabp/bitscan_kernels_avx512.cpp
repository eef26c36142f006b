// AVX-512F scan kernel: the vertical-counter block loop at 512 lanes, and
// a tile compile that compacts the 2-bit codes with BMI2 PEXT.  Compiled
// with -mavx512f -mbmi2 (see src/fabp/CMakeLists.txt); same TU-isolation
// rules as the AVX2 kernel — reached only through the runtime dispatcher
// after util::cpu_has_avx512f() and util::cpu_has_bmi2() prove CPU + OS
// support (zmm state).

#include "bitscan_kernel_impl.hpp"

#if defined(__AVX512F__) && defined(__BMI2__)

#include "bitscan_avx512_traits.hpp"

namespace fabp::core::detail {

namespace {

CodeWord avx512_compile(const TileCompileJob& job, std::uint64_t* planes,
                        std::size_t stride) {
  return compile_tile_t<Avx512Traits>(job, planes, stride);
}

void avx512_batch(const BitScanQuery* const* queries,
                  const std::uint32_t* thresholds, std::size_t count,
                  const PlaneView& reference, std::size_t begin,
                  std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Avx512Traits>(queries, thresholds, count, reference, begin,
                             end, outs);
}

}  // namespace

const ScanKernel* avx512_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Avx512, "avx512", 512,
                                     &avx512_compile, &avx512_batch};
  return &kernel;
}

}  // namespace fabp::core::detail

#else  // compiler or target cannot emit AVX-512F + BMI2: register nothing.

namespace fabp::core::detail {

const ScanKernel* avx512_kernel() noexcept { return nullptr; }

}  // namespace fabp::core::detail

#endif
