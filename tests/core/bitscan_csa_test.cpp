// Differential coverage of the carry-save scorer (score_block_csa and the
// kCsa instantiations of scan_range_t / scan_batch_t) — the algorithm
// behind the AVX-512 VPOPCNTDQ kernel — on a portable 64-lane substrate.
//
// The VPOPCNTDQ kernel itself is only reachable on CPUs with the
// instruction (bitscan_kernels_test sweeps it through kAllScanIsas when it
// is), but its algorithm — the VPTERNLOGQ-shaped full-adder accumulate and
// the popcount-census feasibility early exit — is ISA-agnostic.  This
// suite instantiates the exact same templates with plain uint64_t traits,
// so the compressor pairing, the odd-tail path, the reduced-threshold
// borrow compare and the abandon-block decision are all proven bit-exact
// against the scalar golden oracle on every build machine, not just
// Ice-Lake-class hosts.  The instantiations are wrapped as a ScanKernel
// and driven through TileScanner, the same entry every production kernel
// runs behind, at the default tile and at a small one.

#include <bit>
#include <gtest/gtest.h>

#include "../../src/fabp/bitscan_kernel_impl.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "scan_test_util.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using scan_test::kernel_hits;
using scan_test::kTiles;
using scan_test::random_elements;

// The swar64 substrate with the carry-save extensions: csa() is the
// two-instruction portable full adder (the VPTERNLOGQ 0x96/0xE8 pair the
// real kernel emits), popcount_total() the scalar census.
struct CsaSwar64Traits {
  using Vec = std::uint64_t;
  static constexpr unsigned kWords = 1;
  static Vec zero() noexcept { return 0; }
  static Vec broadcast(std::uint64_t x) noexcept { return x; }
  static Vec load_bits(const std::uint64_t* plane, std::size_t w,
                       unsigned s) noexcept {
    const std::uint64_t lo = plane[w] >> s;
    return s == 0 ? lo : lo | (plane[w + 1] << (64 - s));
  }
  static Vec and_(Vec a, Vec b) noexcept { return a & b; }
  static Vec or_(Vec a, Vec b) noexcept { return a | b; }
  static Vec xor_(Vec a, Vec b) noexcept { return a ^ b; }
  static Vec andnot(Vec a, Vec b) noexcept { return ~a & b; }
  static Vec not_(Vec a) noexcept { return ~a; }
  static bool any(Vec a) noexcept { return a != 0; }
  static void store(std::uint64_t* dst, Vec v) noexcept { dst[0] = v; }
  static void csa(Vec& high, Vec& low, Vec a, Vec b, Vec c) noexcept {
    const Vec ab = a ^ b;
    low = ab ^ c;
    high = (a & b) | (c & ab);
  }
  static unsigned popcount_total(Vec v) noexcept {
    return static_cast<unsigned>(std::popcount(v));
  }
};

const ScanKernel kCsa64{ScanIsa::Swar64, "csa64", 64,
                        &detail::scan_range_t<CsaSwar64Traits, true>,
                        &detail::scan_batch_t<CsaSwar64Traits, true>};

// Full scan of `ref` through the CSA kernel at every kTiles size; fails
// the test unless every tile size agrees, and returns the common list.
std::vector<Hit> csa_hits(const BitScanQuery& query,
                          const NucleotideSequence& ref,
                          std::uint32_t threshold) {
  const bio::PackedNucleotides packed{ref};
  std::vector<std::vector<Hit>> per_tile;
  for (std::size_t tile : kTiles)
    per_tile.push_back(kernel_hits(
        kCsa64, TileScanner{packed, {.tile_positions = tile}}, query,
        threshold));
  for (std::size_t i = 1; i < per_tile.size(); ++i)
    EXPECT_EQ(per_tile[i], per_tile[0]) << "tile=" << kTiles[i];
  return per_tile[0];
}

TEST(ScanCsa, MatchesGoldenOnRandomCases) {
  util::Xoshiro256 rng{401};
  for (int trial = 0; trial < 12; ++trial) {
    const auto query = random_elements(1 + rng.next() % 40, rng);
    const NucleotideSequence ref =
        bio::random_dna(query.size() + rng.next() % 1500, rng);
    const BitScanQuery compiled{query};
    for (std::uint32_t t : scan_test::probe_thresholds(query.size())) {
      EXPECT_EQ(csa_hits(compiled, ref, t), golden_hits(query, ref, t))
          << "trial=" << trial << " t=" << t;
    }
  }
}

TEST(ScanCsa, OddAndEvenQueryLengthsAgree) {
  // The compressor consumes elements two at a time; the odd tail takes
  // the plain ripple path.  Cover both parities around the pairing
  // boundary, including qlen 1 (no pair at all) and 2 (one pair, no
  // tail).
  util::Xoshiro256 rng{409};
  const NucleotideSequence ref = bio::random_dna(900, rng);
  for (std::size_t qlen : {1u, 2u, 3u, 4u, 15u, 16u, 17u, 31u, 32u, 33u}) {
    const auto query = random_elements(qlen, rng);
    const BitScanQuery compiled{query};
    for (std::uint32_t t : scan_test::probe_thresholds(qlen)) {
      EXPECT_EQ(csa_hits(compiled, ref, t), golden_hits(query, ref, t))
          << "qlen=" << qlen << " t=" << t;
    }
  }
}

TEST(ScanCsa, HighThresholdsExerciseTheEarlyExit) {
  // Thresholds at or near qlen make most random blocks provably hitless
  // well before the last element, so the feasibility census actually
  // fires; the hit lists must nonetheless stay exact — including the
  // planted perfect-score gene the exit must NOT discard.
  util::Xoshiro256 rng{419};
  const std::size_t qlen = 48;  // three check strides deep
  const auto query = random_elements(qlen, rng);
  NucleotideSequence ref = bio::random_dna(4000, rng);
  // Plant an exact match of the query so a full-score hit survives the
  // exit logic at every threshold.
  std::vector<bio::Nucleotide> exact;
  for (const BackElement& e : query) {
    bio::Nucleotide n = bio::Nucleotide::A;
    for (std::uint8_t c = 0; c < 4; ++c) {
      const bio::Nucleotide cand = bio::nucleotide_from_code(c);
      const std::size_t at = exact.size();
      const bio::Nucleotide p1 = at >= 1 ? exact[at - 1] : bio::Nucleotide::A;
      const bio::Nucleotide p2 = at >= 2 ? exact[at - 2] : bio::Nucleotide::A;
      if (e.matches(cand, p1, p2)) {
        n = cand;
        break;
      }
    }
    exact.push_back(n);
  }
  for (std::size_t i = 0; i < exact.size(); ++i) ref[2000 + i] = exact[i];

  const BitScanQuery compiled{query};
  for (std::uint32_t t :
       {static_cast<std::uint32_t>(qlen * 3 / 4),
        static_cast<std::uint32_t>(qlen - 1),
        static_cast<std::uint32_t>(qlen)}) {
    const auto golden = golden_hits(query, ref, t);
    EXPECT_EQ(csa_hits(compiled, ref, t), golden) << "t=" << t;
    EXPECT_FALSE(golden.empty()) << "planted gene missing at t=" << t;
  }
}

TEST(ScanCsa, BlockBoundaryAndGuardWordSizes) {
  util::Xoshiro256 rng{421};
  const auto query = random_elements(12, rng);
  for (std::size_t size :
       {12u, 13u, 63u, 64u, 65u, 75u, 127u, 128u, 129u, 255u, 256u, 257u,
        320u, 511u, 512u, 513u, 1023u, 1024u, 1025u}) {
    const NucleotideSequence ref = bio::random_dna(size, rng);
    const BitScanQuery compiled{query};
    for (std::uint32_t t : {0u, 6u, 12u}) {
      EXPECT_EQ(csa_hits(compiled, ref, t), golden_hits(query, ref, t))
          << "size=" << size << " t=" << t;
    }
  }
}

TEST(ScanCsa, BatchMatchesPerQueryScans) {
  util::Xoshiro256 rng{431};
  const NucleotideSequence ref = bio::random_dna(3000, rng);
  const bio::PackedNucleotides packed{ref};

  std::vector<BitScanQuery> queries;
  std::vector<std::uint32_t> thresholds;
  std::vector<std::vector<BackElement>> raw;
  for (std::size_t q = 0; q < 9; ++q) {
    raw.push_back(random_elements(1 + rng.next() % 50, rng));
    queries.emplace_back(raw.back());
    thresholds.push_back(
        static_cast<std::uint32_t>(rng.next() % (raw.back().size() + 2)));
  }

  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    std::vector<std::vector<Hit>> outs(queries.size());
    scanner.range_batch(kCsa64, queries.data(), thresholds.data(),
                        queries.size(), 0, ref.size(), outs.data());
    for (std::size_t q = 0; q < queries.size(); ++q)
      EXPECT_EQ(outs[q], golden_hits(raw[q], ref, thresholds[q]))
          << "tile=" << tile << " q=" << q;
  }
}

}  // namespace
}  // namespace fabp::core
