// Differential coverage of the ISA-dispatched scan kernels: every kernel
// reachable on the host (scalar, swar64 and — CPU permitting — avx2,
// avx512, avx512vbmi2) must produce output bit-for-bit identical to the
// golden scalar oracle on the same inputs, for single-query ranges and
// for multi-query batches, including block-boundary, guard-word and
// size < 64 edge cases.  Each kernel runs through TileScanner twice: with
// the default tile (these references fit one tile, so the kernel sees
// whole-reference planes and their guard words) and with a small tile (so
// blocks are cut at tile edges).  tools/check.sh additionally runs the
// whole suite under each forced FABP_FORCE_ISA so the env-override
// dispatch path is exercised end to end.  Each kernel's own tile compile
// (PEXT on the AVX-512 kernels) is pinned word for word to the portable
// compile, and that to the element predicates themselves.

#include <gtest/gtest.h>

#include "fabp/bio/generate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/util/thread_pool.hpp"
#include "scan_test_util.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;
using scan_test::kernel_hits;
using scan_test::kTiles;
using scan_test::pointers;
using scan_test::probe_thresholds;
using scan_test::random_elements;
using scan_test::reachable_kernels;

TEST(ScanKernels, PortableKernelsAlwaysReachable) {
  EXPECT_NE(scan_kernel_for(ScanIsa::Scalar), nullptr);
  EXPECT_NE(scan_kernel_for(ScanIsa::Swar64), nullptr);
}

TEST(ScanKernels, IsaNamesParse) {
  ScanIsa isa;
  EXPECT_TRUE(scan_isa_from_name("scalar", isa));
  EXPECT_EQ(isa, ScanIsa::Scalar);
  EXPECT_TRUE(scan_isa_from_name("swar64", isa));
  EXPECT_EQ(isa, ScanIsa::Swar64);
  EXPECT_TRUE(scan_isa_from_name("avx2", isa));
  EXPECT_EQ(isa, ScanIsa::Avx2);
  EXPECT_TRUE(scan_isa_from_name("avx512", isa));
  EXPECT_EQ(isa, ScanIsa::Avx512);
  EXPECT_TRUE(scan_isa_from_name("avx512vbmi2", isa));
  EXPECT_EQ(isa, ScanIsa::Avx512Vbmi2);
  // The retired VPOPCNTDQ build's name is unknown: auto-detection wins.
  EXPECT_FALSE(scan_isa_from_name("avx512vpopcnt", isa));
  EXPECT_FALSE(scan_isa_from_name("sse9", isa));
  EXPECT_FALSE(scan_isa_from_name("", isa));
}

TEST(ScanKernels, ActiveKernelIsReachable) {
  const ScanKernel& active = active_scan_kernel();
  EXPECT_EQ(scan_kernel_for(active.isa), &active);
  EXPECT_GE(active.lanes, 1u);
}

TEST(ScanKernels, EveryKernelMatchesGoldenOnRandomCases) {
  util::Xoshiro256 rng{307};
  const auto kernels = reachable_kernels();
  ASSERT_GE(kernels.size(), 2u);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = random_elements(1 + rng.next() % 40, rng);
    const NucleotideSequence ref =
        bio::random_dna(query.size() + rng.next() % 1500, rng);
    const BitScanQuery compiled{query};
    const bio::PackedNucleotides packed{ref};
    for (std::uint32_t t : probe_thresholds(query.size())) {
      const auto golden = golden_hits(query, ref, t);
      for (std::size_t tile : kTiles) {
        const TileScanner scanner{packed, {.tile_positions = tile}};
        for (const ScanKernel* kernel : kernels)
          EXPECT_EQ(kernel_hits(*kernel, scanner, compiled, t), golden)
              << kernel->name << " tile=" << tile << " trial=" << trial
              << " t=" << t;
      }
    }
  }
}

TEST(ScanKernels, BlockBoundaryAndGuardWordSizes) {
  // Reference sizes straddling every kernel's block width (64, 256, 512)
  // and the word boundaries where the guard-word padding is what keeps
  // the trailing unaligned fetches in bounds.
  util::Xoshiro256 rng{311};
  const auto kernels = reachable_kernels();
  const auto query = random_elements(12, rng);
  const BitScanQuery compiled{query};
  for (std::size_t size :
       {12u, 13u, 63u, 64u, 65u, 75u, 127u, 128u, 129u, 255u, 256u, 257u,
        320u, 511u, 512u, 513u, 575u, 576u, 1023u, 1024u, 1025u}) {
    const NucleotideSequence ref = bio::random_dna(size, rng);
    const bio::PackedNucleotides packed{ref};
    for (std::uint32_t t : {0u, 6u, 12u}) {
      const auto golden = golden_hits(query, ref, t);
      for (std::size_t tile : kTiles) {
        const TileScanner scanner{packed, {.tile_positions = tile}};
        for (const ScanKernel* kernel : kernels)
          EXPECT_EQ(kernel_hits(*kernel, scanner, compiled, t), golden)
              << kernel->name << " tile=" << tile << " size=" << size
              << " t=" << t;
      }
    }
  }
}

TEST(ScanKernels, TinyReferencesUnderOneWord) {
  // size < 64: a single partial block for every kernel.
  util::Xoshiro256 rng{313};
  for (std::size_t qlen : {1u, 2u, 5u}) {
    const auto query = random_elements(qlen, rng);
    const BitScanQuery compiled{query};
    for (std::size_t size = qlen; size < 64; size += 7) {
      const NucleotideSequence ref = bio::random_dna(size, rng);
      const bio::PackedNucleotides packed{ref};
      const TileScanner scanner{packed};
      for (std::uint32_t t : {0u, static_cast<std::uint32_t>(qlen)}) {
        const auto golden = golden_hits(query, ref, t);
        for (const ScanKernel* kernel : reachable_kernels())
          EXPECT_EQ(kernel_hits(*kernel, scanner, compiled, t), golden)
              << kernel->name << " qlen=" << qlen << " size=" << size
              << " t=" << t;
      }
    }
  }
}

TEST(ScanKernels, RangeSplitsAgreeAcrossKernels) {
  // Chunked scans (the threaded path) must stitch identically whatever
  // the kernel's block width — splits land mid-block for the wide ones.
  util::Xoshiro256 rng{317};
  const auto query = random_elements(10, rng);
  const NucleotideSequence ref = bio::random_dna(1400, rng);
  const BitScanQuery compiled{query};
  const bio::PackedNucleotides packed{ref};
  const auto golden = golden_hits(query, ref, 5);
  const std::size_t positions = ref.size() - query.size() + 1;
  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    for (const ScanKernel* kernel : reachable_kernels()) {
      for (std::size_t split : {1u, 63u, 64u, 255u, 257u, 512u, 700u}) {
        std::vector<Hit> stitched;
        scanner.range(*kernel, compiled, 5, 0, split, stitched);
        scanner.range(*kernel, compiled, 5, split, positions, stitched);
        EXPECT_EQ(stitched, golden)
            << kernel->name << " tile=" << tile << " split=" << split;
      }
    }
  }
}

TEST(ScanKernels, BatchMatchesPerQueryScans) {
  util::Xoshiro256 rng{331};
  const auto kernels = reachable_kernels();
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
    for (const ScanKernel* kernel : kernels) {
      std::vector<std::vector<Hit>> outs(queries.size());
      scanner.range_batch(*kernel, pointers(queries).data(), thresholds.data(),
                          queries.size(), 0, ref.size(), outs.data());
      for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(outs[q], golden_hits(raw[q], ref, thresholds[q]))
            << kernel->name << " tile=" << tile << " q=" << q;
    }
  }
}

TEST(ScanKernels, BatchDispatchSerialAndPooledAreIdentical) {
  util::Xoshiro256 rng{337};
  const NucleotideSequence ref = bio::random_dna(4000, rng);
  const bio::PackedNucleotides packed{ref};
  const TileScanner scanner{packed, {.tile_positions = 256}};

  std::vector<BitScanQuery> queries;
  std::vector<std::uint32_t> thresholds;
  std::vector<std::vector<Hit>> expected;
  for (std::size_t q = 0; q < 8; ++q) {
    const ProteinSequence protein =
        bio::random_protein(4 + rng.next() % 25, rng);
    const auto elements = back_translate(protein);
    const auto threshold =
        static_cast<std::uint32_t>(elements.size() * 3 / 4);
    queries.emplace_back(elements);
    thresholds.push_back(threshold);
    expected.push_back(golden_hits(elements, ref, threshold));
  }

  EXPECT_EQ(scanner.hits_batch(pointers(queries), thresholds), expected);
  for (std::size_t threads : {1u, 2u, 5u}) {
    util::ThreadPool pool{threads};
    EXPECT_EQ(scanner.hits_batch(pointers(queries), thresholds, &pool),
              expected)
        << threads;
  }
}

TEST(ScanKernels, BatchHandlesDegenerateQueries) {
  util::Xoshiro256 rng{347};
  const NucleotideSequence ref = bio::random_dna(200, rng);
  const bio::PackedNucleotides packed{ref};
  const TileScanner scanner{packed};

  const auto longq = random_elements(ref.size() + 10, rng);  // > reference
  const auto shortq = random_elements(8, rng);
  std::vector<BitScanQuery> queries;
  queries.emplace_back();        // empty query
  queries.emplace_back(longq);   // longer than the reference
  queries.emplace_back(shortq);  // threshold above qlen (below)
  queries.emplace_back(shortq);  // normal
  const std::vector<std::uint32_t> thresholds{0, 0, 9, 4};

  for (const ScanKernel* kernel : reachable_kernels()) {
    std::vector<std::vector<Hit>> outs(queries.size());
    scanner.range_batch(*kernel, pointers(queries).data(), thresholds.data(),
                        queries.size(), 0, ref.size(), outs.data());
    EXPECT_TRUE(outs[0].empty()) << kernel->name;
    EXPECT_TRUE(outs[1].empty()) << kernel->name;
    EXPECT_TRUE(outs[2].empty()) << kernel->name;
    EXPECT_EQ(outs[3], golden_hits(shortq, ref, 4)) << kernel->name;
  }

  EXPECT_THROW(
      scanner.hits_batch(pointers(queries), std::vector<std::uint32_t>{0, 0}),
      std::invalid_argument);
  EXPECT_TRUE(scanner.hits_batch({}, {}).empty());
}

// Runs `kernel`'s compile over [first_word, first_word + data_words) into
// a buffer pre-filled with a pattern the compile must overwrite.
struct CompiledTile {
  std::vector<std::uint64_t> planes;
  CodeWord captured;
};

CompiledTile compile_with(const ScanKernel& kernel,
                          const bio::PackedNucleotides& packed,
                          std::size_t first_word, std::size_t data_words,
                          std::size_t capture_w, const CodeWord* entry,
                          std::size_t stride) {
  CompiledTile out;
  out.planes.assign(kElementKindCount * stride, 0xA5A5A5A5A5A5A5A5ULL);
  const TileCompileJob job{.packed = packed.words().data(),
                           .packed_words = packed.words().size(),
                           .ref_size = packed.size(),
                           .first_word = first_word,
                           .data_words = data_words,
                           .capture_w = capture_w,
                           .entry = entry};
  out.captured = kernel.compile_tile(job, out.planes.data(), stride);
  return out;
}

TEST(ScanKernels, CompileTileMatchesPortableWordForWord) {
  // Random packed words (garbage past the last element included) of a
  // reference whose last word is partial.  Three compiles per kernel: the
  // whole reference plus an overhang past its end; the same split into
  // two tiles at a word edge, the second seeded with the first's capture;
  // and a run that starts mid-reference, deriving its entry history from
  // the packed store.  Each must equal the portable (swar64) compile word
  // for word — slack and guard words included — and the portable compile
  // must equal the element predicates bit for bit.
  util::Xoshiro256 rng{353};
  std::vector<std::uint64_t> words(75);
  for (std::uint64_t& w : words) w = rng.next();
  const std::size_t size = 64 * 37 + 13;  // 38 plane words, last partial
  const auto packed = bio::PackedNucleotides::from_words(words, size);
  const std::size_t plane_words = (size + 63) / 64;
  const std::size_t data_words = plane_words + 3;  // overhang past the end
  const std::size_t stride = data_words + kScanGuardWords + 5;
  const ScanKernel& portable = *scan_kernel_for(ScanIsa::Swar64);
  const std::size_t split = 21;  // second tile starts at plane word 21

  const CompiledTile whole =
      compile_with(portable, packed, 0, data_words, split - 1, nullptr,
                   stride);
  // The element predicates: one representative element per kind, missing
  // history read as A.  Positions past the reference are never inside a
  // scored window; there only the zeroed slack is pinned.
  const std::array<BackElement, kElementKindCount> kinds{
      BackElement::make_exact(bio::Nucleotide::A),
      BackElement::make_exact(bio::Nucleotide::C),
      BackElement::make_exact(bio::Nucleotide::G),
      BackElement::make_exact(bio::Nucleotide::U),
      BackElement::make_conditional(Condition::UorC),
      BackElement::make_conditional(Condition::AorG),
      BackElement::make_conditional(Condition::NotG),
      BackElement::make_conditional(Condition::AorC),
      BackElement::make_dependent(Function::Stop3),
      BackElement::make_dependent(Function::Leu3),
      BackElement::make_dependent(Function::Arg3),
      BackElement::make_dependent(Function::AnyD)};
  for (std::size_t k = 0; k < kElementKindCount; ++k) {
    ASSERT_EQ(element_kind(kinds[k]), k);
    for (std::size_t j = 0; j < size; ++j) {
      const bio::Nucleotide p1 =
          j >= 1 ? packed.get(j - 1) : bio::Nucleotide::A;
      const bio::Nucleotide p2 =
          j >= 2 ? packed.get(j - 2) : bio::Nucleotide::A;
      const bool bit = (whole.planes[k * stride + j / 64] >> (j % 64)) & 1u;
      ASSERT_EQ(bit, kinds[k].matches(packed.get(j), p1, p2))
          << "kind=" << k << " j=" << j;
    }
    for (std::size_t i = data_words; i < stride; ++i)
      ASSERT_EQ(whole.planes[k * stride + i], 0u) << "kind=" << k;
  }

  const CompiledTile mid =
      compile_with(portable, packed, 9, 17, static_cast<std::size_t>(-1),
                   nullptr, stride);
  for (const ScanKernel* kernel : reachable_kernels()) {
    const CompiledTile k_whole = compile_with(
        *kernel, packed, 0, data_words, split - 1, nullptr, stride);
    EXPECT_EQ(k_whole.planes, whole.planes) << kernel->name;
    EXPECT_EQ(k_whole.captured.lsb, whole.captured.lsb) << kernel->name;
    EXPECT_EQ(k_whole.captured.msb, whole.captured.msb) << kernel->name;

    // Tile edge: [0, split) then [split, data_words) from the capture.
    const CompiledTile first = compile_with(*kernel, packed, 0, split,
                                            split - 1, nullptr, stride);
    const CompiledTile second =
        compile_with(*kernel, packed, split, data_words - split,
                     static_cast<std::size_t>(-1), &first.captured, stride);
    for (std::size_t k = 0; k < kElementKindCount; ++k)
      for (std::size_t i = 0; i < data_words; ++i)
        EXPECT_EQ(i < split ? first.planes[k * stride + i]
                            : second.planes[k * stride + i - split],
                  whole.planes[k * stride + i])
            << kernel->name << " kind=" << k << " word=" << i;

    // A run starting mid-reference derives its own entry history.
    EXPECT_EQ(compile_with(*kernel, packed, 9, 17,
                           static_cast<std::size_t>(-1), nullptr, stride)
                  .planes,
              mid.planes)
        << kernel->name;
  }
  for (std::size_t k = 0; k < kElementKindCount; ++k)
    for (std::size_t i = 0; i < 17; ++i)
      ASSERT_EQ(mid.planes[k * stride + i], whole.planes[k * stride + 9 + i])
          << "kind=" << k << " word=" << i;
}

TEST(ScanKernels, WideKernelsImplyCpuSupport) {
  // scan_kernel_for must never hand out a kernel the host cannot run.
  if (const ScanKernel* kernel = scan_kernel_for(ScanIsa::Avx2)) {
    EXPECT_EQ(kernel->lanes, 256u);
  }
  if (const ScanKernel* kernel = scan_kernel_for(ScanIsa::Avx512)) {
    EXPECT_EQ(kernel->lanes, 512u);
  }
  if (const ScanKernel* kernel = scan_kernel_for(ScanIsa::Avx512Vbmi2)) {
    // Implies the plain AVX-512 path too: VBMI2 is a superset.
    EXPECT_EQ(kernel->lanes, 512u);
    EXPECT_NE(scan_kernel_for(ScanIsa::Avx512), nullptr);
  }
}

}  // namespace
}  // namespace fabp::core
