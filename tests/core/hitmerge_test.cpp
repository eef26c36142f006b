#include "fabp/core/hitmerge.hpp"

#include <gtest/gtest.h>

#include "fabp/bio/generate.hpp"
#include "fabp/core/backtranslate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/golden.hpp"

namespace fabp::core {
namespace {

// The deterministic-merge contract every parallel scan relies on: chunk
// slots are concatenated in chunk index order, nothing is re-sorted or
// deduplicated.  Because each chunk covers a disjoint ascending position
// range, concatenation in chunk order IS position order — but only as
// long as the helper never reorders.  This test pins that by feeding
// chunks whose concatenation is NOT globally sorted: a sorting (or
// stable-sorting) implementation would produce a different sequence and
// fail.
TEST(HitMerge, ConcatenatesInChunkOrderWithoutSorting) {
  const std::vector<std::vector<Hit>> chunks{
      {{100, 7}, {101, 9}},
      {},                       // empty chunks contribute nothing
      {{50, 3}},                // out of global position order on purpose
      {{60, 1}, {200, 2}},
  };
  const std::vector<Hit> merged = merge_hit_chunks(chunks);
  const std::vector<Hit> expected{
      {100, 7}, {101, 9}, {50, 3}, {60, 1}, {200, 2}};
  EXPECT_EQ(merged, expected);

  // The appending form matches and preserves what was already in `out`.
  std::vector<Hit> out{{1, 1}};
  merge_hit_chunks_into(chunks, out);
  std::vector<Hit> expected_with_prefix{{1, 1}};
  expected_with_prefix.insert(expected_with_prefix.end(), expected.begin(),
                              expected.end());
  EXPECT_EQ(out, expected_with_prefix);
}

TEST(HitMerge, EmptyInputs) {
  EXPECT_TRUE(merge_hit_chunks({}).empty());
}

// The parallel scans (golden through the helper, tiled through its
// per-run slots) must produce exactly the serial scan's output —
// contents AND order.
TEST(HitMerge, ParallelScansStillMatchSerialOrder) {
  util::Xoshiro256 rng{814};
  const bio::NucleotideSequence ref = bio::random_dna(40000, rng);
  const bio::ProteinSequence protein = bio::random_protein(9, rng);
  const std::vector<BackElement> query = back_translate(protein);
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(query.size() / 2);
  util::ThreadPool pool{4};

  const std::vector<Hit> serial = golden_hits(query, ref, threshold);
  EXPECT_EQ(golden_hits_parallel(query, ref, threshold, pool), serial);

  const bio::PackedNucleotides packed{ref};
  const BitScanQuery compiled{query};
  const TileScanner scanner{packed, {.tile_positions = 1024}};
  EXPECT_EQ(scanner.hits(compiled, threshold, &pool), serial);
}

}  // namespace
}  // namespace fabp::core
