// The bit-sliced scan through its production entry points — TileScanner
// and align_protein — held to the scalar golden oracle, the encoded-query
// oracle and the cycle-level accelerator's LUT path.  tools/check.sh runs
// this suite once per forced ISA, so every kernel the host can reach
// answers to all three.

#include "fabp/core/bitscan.hpp"

#include <gtest/gtest.h>

#include "fabp/core/accelerator.hpp"
#include "fabp/bio/generate.hpp"
#include "scan_test_util.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;
using scan_test::probe_thresholds;
using scan_test::random_elements;

// One-shot scan: pack the reference and run the tiled scan over it.
std::vector<Hit> tiled_hits(const std::vector<BackElement>& query,
                            const NucleotideSequence& ref,
                            std::uint32_t threshold) {
  const bio::PackedNucleotides packed{ref};
  return TileScanner{packed}.hits(BitScanQuery{query}, threshold);
}

TEST(BitScan, DifferentialVsGoldenOnProteinQueries) {
  util::Xoshiro256 rng{211};
  for (int trial = 0; trial < 12; ++trial) {
    const ProteinSequence protein =
        bio::random_protein(5 + rng.next() % 30, rng);
    const NucleotideSequence ref =
        bio::random_dna(100 + rng.next() % 2000, rng);
    const auto elements = back_translate(protein);
    if (ref.size() < elements.size()) continue;
    for (std::uint32_t t : probe_thresholds(elements.size())) {
      EXPECT_EQ(align_protein(protein, ref, t),
                golden_hits(elements, ref, t))
          << trial << " t=" << t;
    }
  }
}

TEST(BitScan, DifferentialVsGoldenOnArbitraryElementMixes) {
  // Includes Type III elements at offsets 0 and 1, where the oracle
  // substitutes A for the missing history.
  util::Xoshiro256 rng{223};
  for (int trial = 0; trial < 20; ++trial) {
    const auto query = random_elements(1 + rng.next() % 40, rng);
    const NucleotideSequence ref =
        bio::random_dna(query.size() + rng.next() % 600, rng);
    for (std::uint32_t t : probe_thresholds(query.size())) {
      EXPECT_EQ(tiled_hits(query, ref, t), golden_hits(query, ref, t))
          << trial << " t=" << t;
    }
  }
}

TEST(BitScan, DifferentialVsEncodedOracle) {
  util::Xoshiro256 rng{227};
  for (int trial = 0; trial < 8; ++trial) {
    const ProteinSequence protein = bio::random_protein(18, rng);
    const NucleotideSequence ref = bio::random_dna(700, rng);
    const EncodedQuery encoded = encode_query(protein);
    const BitScanQuery compiled{encoded};
    const bio::PackedNucleotides packed{ref};
    const TileScanner scanner{packed};
    for (std::uint32_t t : probe_thresholds(encoded.size())) {
      EXPECT_EQ(scanner.hits(compiled, t),
                golden_hits_encoded(encoded, ref, t))
          << trial << " t=" << t;
    }
  }
}

TEST(BitScan, DifferentialVsCycleLevelAccelerator) {
  util::Xoshiro256 rng{229};
  for (int trial = 0; trial < 6; ++trial) {
    const ProteinSequence protein = bio::random_protein(15, rng);
    const bio::PackedNucleotides packed{bio::random_dna(3000, rng)};
    const auto elements = back_translate(protein);
    for (std::uint32_t t : probe_thresholds(elements.size())) {
      AcceleratorConfig config;
      config.threshold = t;
      // The LUT path evaluates element-by-element through the generated
      // comparator LUTs — fully independent of the bit-sliced planes.
      config.use_lut_path = true;
      Accelerator accelerator{config};
      accelerator.load_query(protein);
      EXPECT_EQ(TileScanner{packed}.hits(BitScanQuery{elements}, t),
                accelerator.run(packed).hits)
          << trial << " t=" << t;
    }
  }
}

TEST(BitScan, EdgeCases) {
  util::Xoshiro256 rng{233};

  // Query length == reference length: exactly one position.
  const ProteinSequence protein = bio::random_protein(10, rng);
  const auto elements = back_translate(protein);
  const NucleotideSequence exact = bio::random_dna(elements.size(), rng);
  for (std::uint32_t t : probe_thresholds(elements.size()))
    EXPECT_EQ(tiled_hits(elements, exact, t),
              golden_hits(elements, exact, t))
        << t;

  // Empty query: no hits, like the oracle.
  const std::vector<BackElement> empty;
  const NucleotideSequence ref = bio::random_dna(100, rng);
  EXPECT_TRUE(tiled_hits(empty, ref, 0).empty());

  // Reference shorter than the query: no hits.
  const NucleotideSequence tiny = bio::random_dna(elements.size() - 1, rng);
  EXPECT_TRUE(tiled_hits(elements, tiny, 0).empty());

  // Threshold above the query length: no hits (scores are capped at qlen).
  EXPECT_TRUE(tiled_hits(elements, exact,
                         static_cast<std::uint32_t>(elements.size()) + 1)
                  .empty());

  // Empty reference.
  EXPECT_TRUE(tiled_hits(elements, NucleotideSequence{}, 0).empty());
}

TEST(BitScan, RangeScanCoversArbitrarySplits) {
  util::Xoshiro256 rng{239};
  const auto query = random_elements(12, rng);
  const NucleotideSequence ref = bio::random_dna(500, rng);
  const BitScanQuery compiled{query};
  const bio::PackedNucleotides packed{ref};
  const TileScanner scanner{packed};
  const auto whole = scanner.hits(compiled, 6);

  for (std::size_t split : {1u, 63u, 64u, 65u, 200u, 488u, 489u, 1000u}) {
    std::vector<Hit> stitched;
    scanner.range(compiled, 6, 0, split, stitched);
    scanner.range(compiled, 6, split, ref.size(), stitched);
    EXPECT_EQ(stitched, whole) << split;
  }
}

TEST(BitScan, ParallelIdenticalToSerialIncludingOrder) {
  util::Xoshiro256 rng{241};
  const ProteinSequence protein = bio::random_protein(14, rng);
  const NucleotideSequence ref = bio::random_dna(5000, rng);
  const BitScanQuery compiled{back_translate(protein)};
  const bio::PackedNucleotides packed{ref};
  // 20 tiles, so every pool width below splits the scan into runs.
  const TileScanner scanner{packed, {.tile_positions = 256}};
  for (std::size_t threads : {1u, 2u, 3u, 7u}) {
    util::ThreadPool pool{threads};
    for (std::uint32_t t : {0u, 20u, 42u}) {
      const auto serial = scanner.hits(compiled, t);
      const auto parallel = scanner.hits(compiled, t, &pool);
      EXPECT_EQ(parallel, serial) << threads << " t=" << t;
    }
  }
}

TEST(BitScan, PlantedGeneScoresFullLength) {
  util::Xoshiro256 rng{251};
  const ProteinSequence protein = bio::random_protein(20, rng);
  const NucleotideSequence coding = random_template_coding(protein, rng);
  NucleotideSequence ref = bio::random_dna(2000, rng);
  for (std::size_t i = 0; i < coding.size(); ++i) ref[777 + i] = coding[i];

  const auto elements = back_translate(protein);
  const auto hits = align_protein(
      protein, ref, static_cast<std::uint32_t>(elements.size()));
  bool found = false;
  for (const Hit& h : hits)
    if (h.position == 777 &&
        h.score == static_cast<std::uint32_t>(elements.size()))
      found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace fabp::core
