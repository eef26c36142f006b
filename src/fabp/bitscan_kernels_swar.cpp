// Portable scan kernels: the 64-lane uint64_t SWAR baseline (always
// available, and the reference the SIMD TUs must match bit for bit) plus
// the per-position scalar loop kept reachable for differential testing.
// Both compile tiles with the portable SWAR compaction.

#include "bitscan_kernel_impl.hpp"

namespace fabp::core::detail {

namespace {

struct Swar64Traits {
  using Vec = std::uint64_t;
  static constexpr unsigned kWords = 1;
  static Vec zero() noexcept { return 0; }
  static Vec broadcast(std::uint64_t x) noexcept { return x; }
  static Vec load_bits(const std::uint64_t* at, std::uint64_t s) noexcept {
    std::uint64_t match = at[0] >> s;
    if (s != 0) match |= at[1] << (64 - s);
    return match;
  }
  static Vec and_(Vec a, Vec b) noexcept { return a & b; }
  static Vec or_(Vec a, Vec b) noexcept { return a | b; }
  static Vec xor_(Vec a, Vec b) noexcept { return a ^ b; }
  static Vec andnot(Vec a, Vec b) noexcept { return ~a & b; }
  static Vec not_(Vec a) noexcept { return ~a; }
  static bool any(Vec a) noexcept { return a != 0; }
  static void store(std::uint64_t* dst, Vec v) noexcept { dst[0] = v; }
  static Vec load(const std::uint64_t* src) noexcept { return src[0]; }
  static Vec shl(Vec a, unsigned n) noexcept { return a << n; }
  static Vec shr(Vec a, unsigned n) noexcept { return a >> n; }
  static Vec prev_words(Vec, Vec prev) noexcept { return prev; }
  static CodeWord compact(std::uint64_t lo, std::uint64_t hi) noexcept {
    return compact_portable(lo, hi);
  }
};

CodeWord portable_compile(const TileCompileJob& job, std::uint64_t* planes,
                          std::size_t stride) {
  return compile_tile_t<Swar64Traits>(job, planes, stride);
}

void swar64_batch(const BitScanQuery* const* queries,
                  const std::uint32_t* thresholds, std::size_t count,
                  const PlaneView& reference, std::size_t begin,
                  std::size_t end, std::vector<Hit>* outs) {
  scan_batch_t<Swar64Traits>(queries, thresholds, count, reference, begin,
                             end, outs);
}

// Scalar reference path: one position at a time, one plane-bit test per
// scored element (same order and always-match fold as score_block) — no
// vertical counters, no block structure.  Exists so FABP_FORCE_ISA=scalar
// exercises the dispatch plumbing against the simplest possible
// evaluation of the same planes.
void scalar_position_range(const PreparedQuery& p, std::size_t begin,
                           std::vector<Hit>& out) {
  for (std::size_t pos = begin; pos < p.end; ++pos) {
    std::uint32_t score = 0;
    for (const ElementRef& e : p.elements) {
      const std::size_t bit = e.shift + (pos - begin);
      score += static_cast<std::uint32_t>((e.word[bit >> 6] >> (bit & 63)) &
                                          1u);
    }
    if (score >= p.threshold) out.push_back(Hit{pos, score + p.bias});
  }
}

void scalar_batch(const BitScanQuery* const* queries,
                  const std::uint32_t* thresholds, std::size_t count,
                  const PlaneView& reference, std::size_t begin,
                  std::size_t end, std::vector<Hit>* outs) {
  for (std::size_t q = 0; q < count; ++q)
    scalar_position_range(
        prepare_query(*queries[q], reference, thresholds[q], begin, end),
        begin, outs[q]);
}

}  // namespace

const ScanKernel* swar64_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Swar64, "swar64", 64,
                                     &portable_compile, &swar64_batch};
  return &kernel;
}

const ScanKernel* scalar_kernel() noexcept {
  static constexpr ScanKernel kernel{ScanIsa::Scalar, "scalar", 1,
                                     &portable_compile, &scalar_batch};
  return &kernel;
}

}  // namespace fabp::core::detail
