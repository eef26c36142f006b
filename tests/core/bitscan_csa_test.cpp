// Differential coverage of the carry-save scorer (score_block in
// src/fabp/bitscan_kernel_impl.hpp) that every SIMD kernel — swar64, avx2,
// avx512, avx512vbmi2 — instantiates: 16 query elements per Harley–Seal
// group through a tree of 15 full adders into the four low counter planes,
// the sixteens carry rippled into the planes above, a pairwise tail, and a
// feasibility early exit at every group boundary that does not end the
// query.  Each case runs every kernel the host can reach through
// TileScanner, at the default tile and at a small one, and holds it to the
// scalar golden oracle: group edges (qlen 1..65 around multiples of 16), a
// 240-element query whose sixteens carry reaches counters[4..7], the early
// exit with and without a check after the last group, and block-boundary
// and batch cases.  The selective-first order (score_order) and the
// always-match fold (AnyD elements never loaded, threshold and scores
// shifted by their count) are pinned at their edges: all-AnyD queries,
// thresholds at or below the fold, thresholds 0 and qlen, Type III
// elements at offsets 0 and 1, and rare elements at the query's tail —
// each alone and in mixed-length batches.  Every counter width the scorer
// is instantiated at is reached from both sides of its edge, with scans
// that begin mid-word.

#include <gtest/gtest.h>

#include <string>

#include "fabp/bio/generate.hpp"
#include "fabp/core/backtranslate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "scan_test_util.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using scan_test::expect_solo_and_batch_match_golden;
using scan_test::kernel_hits;
using scan_test::kTiles;
using scan_test::pointers;
using scan_test::probe_thresholds;
using scan_test::random_elements;
using scan_test::reachable_kernels;

// Full scan of `ref` through every reachable kernel at every kTiles size;
// each must equal the golden hit list.
void expect_kernels_match_golden(const std::vector<BackElement>& query,
                                 const NucleotideSequence& ref,
                                 std::uint32_t threshold,
                                 const std::string& context) {
  const auto golden = golden_hits(query, ref, threshold);
  const BitScanQuery compiled{query};
  const bio::PackedNucleotides packed{ref};
  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    for (const ScanKernel* kernel : reachable_kernels())
      EXPECT_EQ(kernel_hits(*kernel, scanner, compiled, threshold), golden)
          << kernel->name << " tile=" << tile << " t=" << threshold << " "
          << context;
  }
}

// Writes a reference stretch every element of `query` matches into `ref`
// at `at`, so a full-score hit exists there.
void plant_exact_match(const std::vector<BackElement>& query,
                       NucleotideSequence& ref, std::size_t at) {
  std::vector<bio::Nucleotide> exact;
  for (const BackElement& e : query) {
    bio::Nucleotide n = bio::Nucleotide::A;
    for (std::uint8_t c = 0; c < 4; ++c) {
      const bio::Nucleotide cand = bio::nucleotide_from_code(c);
      const std::size_t k = exact.size();
      const bio::Nucleotide p1 = k >= 1 ? exact[k - 1] : bio::Nucleotide::A;
      const bio::Nucleotide p2 = k >= 2 ? exact[k - 2] : bio::Nucleotide::A;
      if (e.matches(cand, p1, p2)) {
        n = cand;
        break;
      }
    }
    exact.push_back(n);
  }
  for (std::size_t i = 0; i < exact.size(); ++i) ref[at + i] = exact[i];
}

TEST(ScanCsa, MatchesGoldenOnRandomCases) {
  // Lengths up to 100 span up to six groups plus every tail length.
  util::Xoshiro256 rng{401};
  for (int trial = 0; trial < 12; ++trial) {
    const auto query = random_elements(1 + rng.next() % 100, rng);
    const NucleotideSequence ref =
        bio::random_dna(query.size() + rng.next() % 1500, rng);
    for (std::uint32_t t : probe_thresholds(query.size()))
      expect_kernels_match_golden(query, ref, t,
                                  "trial=" + std::to_string(trial));
  }
}

TEST(ScanCsa, OddAndEvenQueryLengthsAgree) {
  // Every group edge: no group at all (1..15, pairs plus an odd element),
  // exactly one to four groups with no tail (16, 32, 48, 64), and one
  // element either side of each.
  util::Xoshiro256 rng{409};
  const NucleotideSequence ref = bio::random_dna(900, rng);
  for (std::size_t qlen : {1u, 2u, 3u, 15u, 16u, 17u, 31u, 32u, 33u, 47u,
                           48u, 49u, 63u, 64u, 65u}) {
    const auto query = random_elements(qlen, rng);
    for (std::uint32_t t : probe_thresholds(qlen))
      expect_kernels_match_golden(query, ref, t,
                                  "qlen=" + std::to_string(qlen));
  }
}

TEST(ScanCsa, SixteensCarryReachesTheHighCounters) {
  // An 80 aa query back-translates to 240 elements: 15 groups, nbits 8.
  // The planted exact match scores 240 = 0b11110000, so its score lives
  // entirely in counters[4..7], which only the rippled sixteens carry
  // writes; threshold 0 reads every lane's score back out.
  util::Xoshiro256 rng{413};
  const auto query = back_translate(bio::random_protein(80, rng));
  ASSERT_EQ(query.size(), 240u);
  NucleotideSequence ref = bio::random_dna(1800, rng);
  plant_exact_match(query, ref, 700);
  for (std::uint32_t t : {0u, 120u, 239u, 240u})
    expect_kernels_match_golden(query, ref, t, "qlen=240");
  EXPECT_FALSE(golden_hits(query, ref, 240).empty());
}

TEST(ScanCsa, HighThresholdsExerciseTheEarlyExit) {
  // Thresholds at or near qlen make most random blocks provably hitless
  // well before the last element, so the feasibility check actually
  // fires; the hit lists must nonetheless stay exact — including the
  // planted perfect-score gene the exit must NOT discard.  qlen 48 checks
  // after groups 1 and 2, qlen 64 after groups 1 to 3; in both the last
  // group ends exactly at qlen, where no check runs and the final compare
  // alone decides.
  util::Xoshiro256 rng{419};
  for (std::size_t qlen : {48u, 64u}) {
    const auto query = random_elements(qlen, rng);
    NucleotideSequence ref = bio::random_dna(4000, rng);
    plant_exact_match(query, ref, 2000);
    for (std::uint32_t t : {static_cast<std::uint32_t>(qlen * 3 / 4),
                            static_cast<std::uint32_t>(qlen - 1),
                            static_cast<std::uint32_t>(qlen)}) {
      expect_kernels_match_golden(query, ref, t,
                                  "qlen=" + std::to_string(qlen));
      EXPECT_FALSE(golden_hits(query, ref, t).empty())
          << "planted gene missing at qlen=" << qlen << " t=" << t;
    }
  }
}

TEST(ScanCsa, BlockBoundaryAndGuardWordSizes) {
  util::Xoshiro256 rng{421};
  const auto query = random_elements(20, rng);
  for (std::size_t size :
       {20u, 21u, 63u, 64u, 65u, 75u, 127u, 128u, 129u, 255u, 256u, 257u,
        320u, 511u, 512u, 513u, 1023u, 1024u, 1025u}) {
    const NucleotideSequence ref = bio::random_dna(size, rng);
    for (std::uint32_t t : {0u, 10u, 20u})
      expect_kernels_match_golden(query, ref, t,
                                  "size=" + std::to_string(size));
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
    raw.push_back(random_elements(1 + rng.next() % 80, rng));
    queries.emplace_back(raw.back());
    thresholds.push_back(
        static_cast<std::uint32_t>(rng.next() % (raw.back().size() + 2)));
  }

  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    for (const ScanKernel* kernel : reachable_kernels()) {
      std::vector<std::vector<Hit>> outs(queries.size());
      scanner.range_batch(*kernel, pointers(queries).data(), thresholds.data(),
                          queries.size(), 0, ref.size(), outs.data());
      for (std::size_t q = 0; q < queries.size(); ++q)
        EXPECT_EQ(outs[q], golden_hits(raw[q], ref, thresholds[q]))
            << kernel->name << " tile=" << tile << " q=" << q;
    }
  }
}

BackElement any_d() { return BackElement::make_dependent(Function::AnyD); }

BackElement exact(std::uint8_t code) {
  return BackElement::make_exact(bio::nucleotide_from_code(code));
}

TEST(ScanCsa, ScoreOrderIsRarestKindFirstAndStable) {
  // Match probabilities: exact 1/4, Stop3 3/8, AorG 1/2, NotG and Leu3
  // 3/4; AnyD is folded, not ordered.  Equal ranks keep query order.
  const std::vector<BackElement> query{
      any_d(),                                               // 0: folded
      BackElement::make_conditional(Condition::NotG),        // 1: 3/4
      exact(1),                                              // 2: 1/4
      BackElement::make_dependent(Function::Stop3),          // 3: 3/8
      BackElement::make_conditional(Condition::AorG),        // 4: 1/2
      exact(0),                                              // 5: 1/4
      BackElement::make_dependent(Function::Leu3),           // 6: 3/4
      any_d()};                                              // 7: folded
  const BitScanQuery compiled{query};
  EXPECT_EQ(compiled.always_matching(), 2u);
  EXPECT_EQ(compiled.score_order(),
            (std::vector<std::uint32_t>{2, 5, 3, 4, 1, 6}));
}

TEST(ScanCsa, AllAnyDQueryHitsEveryPosition) {
  // qlen - nD = 0: no element is loaded, no counter plane exists, and
  // every position scores nD — at any threshold up to qlen.
  util::Xoshiro256 rng{433};
  const NucleotideSequence ref = bio::random_dna(1300, rng);
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t n : {1u, 5u, 16u, 40u}) {
    for (std::uint32_t t : probe_thresholds(n)) {
      raw.emplace_back(n, any_d());
      thresholds.push_back(t);
      const auto golden = golden_hits(raw.back(), ref, t);
      ASSERT_EQ(golden.size(), ref.size() - n + 1) << "n=" << n;
      for (const Hit& hit : golden) ASSERT_EQ(hit.score, n);
    }
  }
  raw.push_back(random_elements(30, rng));  // a loaded query in the batch
  thresholds.push_back(15);
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "all-AnyD");
}

TEST(ScanCsa, ThresholdAtOrBelowTheFoldHitsEveryPosition) {
  // threshold <= nD: the scored elements face threshold 0, so every
  // position hits with score nD + its counter value.
  util::Xoshiro256 rng{439};
  const NucleotideSequence ref = bio::random_dna(1100, rng);
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t loaded : {3u, 16u, 37u}) {
    std::vector<BackElement> query = random_elements(loaded, rng);
    for (std::size_t k = 0; k < 6; ++k)
      query.insert(query.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next() % (query.size() + 1)),
                   any_d());
    const BitScanQuery compiled{query};
    const auto nd = static_cast<std::uint32_t>(compiled.always_matching());
    ASSERT_GE(nd, 6u);
    for (std::uint32_t t : {0u, nd / 2, nd}) {
      const auto golden = golden_hits(query, ref, t);
      ASSERT_EQ(golden.size(), ref.size() - query.size() + 1);
      for (const Hit& hit : golden) ASSERT_GE(hit.score, nd);
      raw.push_back(query);
      thresholds.push_back(t);
    }
  }
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "t<=nD");
}

TEST(ScanCsa, ThresholdZeroAndQlen) {
  // Threshold 0 reads every position's score back out; threshold qlen
  // exits every block after its first group but must keep the planted
  // perfect match.
  util::Xoshiro256 rng{443};
  NucleotideSequence ref = bio::random_dna(2600, rng);
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  std::size_t at = 100;
  for (std::size_t qlen : {7u, 16u, 33u, 60u, 240u}) {
    const auto query = random_elements(qlen, rng);
    plant_exact_match(query, ref, at);
    at += qlen + 200;
    for (std::uint32_t t : {0u, static_cast<std::uint32_t>(qlen)}) {
      raw.push_back(query);
      thresholds.push_back(t);
    }
  }
  for (std::size_t q = 1; q < raw.size(); q += 2)
    EXPECT_FALSE(golden_hits(raw[q], ref, thresholds[q]).empty()) << q;
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "t=0|qlen");
}

TEST(ScanCsa, TypeIIIAtQueryStartFoldsOrOrders) {
  // Before offset 2 the oracle reads missing history as A: Leu3 at 0 or 1
  // compiles to AnyD (folded), Stop3 at 0 and Arg3 at 0 or 1 to AorG
  // (ordered as a 1/2 kind), Stop3 at 1 stays Stop3.  Every pair of
  // functions at offsets 0 and 1 ahead of a random body.
  util::Xoshiro256 rng{449};
  const NucleotideSequence ref = bio::random_dna(900, rng);
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  for (std::uint8_t f0 = 0; f0 < 4; ++f0) {
    for (std::uint8_t f1 = 0; f1 < 4; ++f1) {
      std::vector<BackElement> query{
          BackElement::make_dependent(static_cast<Function>(f0)),
          BackElement::make_dependent(static_cast<Function>(f1))};
      const auto body = random_elements(4 + rng.next() % 30, rng);
      query.insert(query.end(), body.begin(), body.end());
      for (std::uint32_t t : probe_thresholds(query.size())) {
        raw.push_back(query);
        thresholds.push_back(t);
      }
    }
  }
  const BackElement leu3 = BackElement::make_dependent(Function::Leu3);
  const BackElement stop3 = BackElement::make_dependent(Function::Stop3);
  const BitScanQuery leu{std::vector<BackElement>{leu3, leu3, exact(2)}};
  EXPECT_EQ(leu.always_matching(), 2u);
  EXPECT_EQ(leu.score_order(), (std::vector<std::uint32_t>{2}));
  // Stop3 at 0 is AorG (1/2), at 1 still Stop3 (3/8): offset 1 first.
  const BitScanQuery stop{std::vector<BackElement>{stop3, stop3}};
  EXPECT_EQ(stop.always_matching(), 0u);
  EXPECT_EQ(stop.score_order(), (std::vector<std::uint32_t>{1, 0}));
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "typeIII@0,1");
}

TEST(ScanCsa, RareElementsAtTheTail) {
  // Common kinds (3/4) and AnyD up front, Type I exacts at the tail: the
  // order must move the tail first, and the early exit must still keep
  // every hit, the planted full match included.
  util::Xoshiro256 rng{457};
  const std::vector<BackElement> common{
      BackElement::make_conditional(Condition::NotG),
      BackElement::make_dependent(Function::Leu3),
      BackElement::make_dependent(Function::Arg3), any_d()};
  std::vector<BackElement> query;
  for (std::size_t i = 0; i < 48; ++i)
    query.push_back(common[rng.next() % common.size()]);
  for (std::size_t i = 0; i < 20; ++i)
    query.push_back(exact(static_cast<std::uint8_t>(rng.next() % 4)));
  const BitScanQuery compiled{query};
  ASSERT_GE(compiled.score_order().size(), 20u);
  for (std::size_t j = 0; j < 20; ++j)
    EXPECT_EQ(compiled.score_order()[j], 48 + j);

  NucleotideSequence ref = bio::random_dna(3000, rng);
  plant_exact_match(query, ref, 1500);
  const auto qlen = static_cast<std::uint32_t>(query.size());
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  for (std::uint32_t t : {0u, qlen / 2, qlen * 3 / 4, qlen - 1, qlen}) {
    raw.push_back(query);
    thresholds.push_back(t);
  }
  raw.push_back(random_elements(9, rng));  // a short query in the batch
  thresholds.push_back(5);
  EXPECT_FALSE(golden_hits(query, ref, qlen).empty());
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "rare tail");
}

// n elements of every kind but AnyD, with no Type III element at offset 0
// or 1 (where it may compile to AnyD): all n are scored.
std::vector<BackElement> scored_elements(std::size_t n,
                                         util::Xoshiro256& rng) {
  std::vector<BackElement> query = random_elements(n, rng);
  for (std::size_t i = 0; i < n; ++i)
    if (query[i].type == ElementType::DependentIII &&
        (i < 2 || query[i].func == Function::AnyD))
      query[i] = exact(static_cast<std::uint8_t>(rng.next() % 4));
  return query;
}

TEST(ScanCsa, EveryCounterWidthClass) {
  // score_block keeps its counters in registers at a fixed width per
  // query: 6 or 8 planes, the narrowest holding bit_width(scored); one
  // runtime-width instance takes counts above 255.  Scored counts below a
  // full 16-element group, on both sides of every class edge and past
  // the largest, each scanned alone and all in one mixed-width batch.
  // Threshold 0 reads every lane's counters back; threshold qlen keeps
  // only the planted full match.  Splitting the scan at a mid-word
  // position (1, 63, 257) starts a tile off the word grid, so every
  // element's precomputed plane word and shift must account for the
  // scan's begin.
  util::Xoshiro256 rng{461};
  NucleotideSequence ref = bio::random_dna(4000, rng);
  std::vector<std::vector<BackElement>> raw;
  std::vector<std::uint32_t> thresholds;
  std::size_t at = 0;
  for (std::size_t n : {1u, 15u, 16u, 63u, 64u, 255u, 256u, 1024u}) {
    const auto query = scored_elements(n, rng);
    ASSERT_EQ(BitScanQuery{query}.score_order().size(), n);
    plant_exact_match(query, ref, at);
    at += n + 20;
    for (std::uint32_t t : probe_thresholds(n)) {
      raw.push_back(query);
      thresholds.push_back(t);
    }
  }
  ASSERT_LE(at, ref.size());
  for (std::size_t q = 2; q < raw.size(); q += 3)
    EXPECT_FALSE(golden_hits(raw[q], ref, thresholds[q]).empty()) << q;
  expect_solo_and_batch_match_golden(raw, thresholds, ref, "width classes");

  std::vector<BitScanQuery> queries;
  std::vector<std::vector<Hit>> golden;
  for (std::size_t q = 0; q < raw.size(); ++q) {
    queries.emplace_back(raw[q]);
    golden.push_back(golden_hits(raw[q], ref, thresholds[q]));
  }
  const bio::PackedNucleotides packed{ref};
  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    for (const ScanKernel* kernel : reachable_kernels()) {
      for (std::size_t split : {1u, 63u, 257u}) {
        const std::string where = std::string{kernel->name} +
                                  " tile=" + std::to_string(tile) +
                                  " split=" + std::to_string(split);
        for (std::size_t q = 0; q < raw.size(); ++q) {
          std::vector<Hit> hits;
          scanner.range(*kernel, queries[q], thresholds[q], 0, split, hits);
          scanner.range(*kernel, queries[q], thresholds[q], split,
                        ref.size(), hits);
          EXPECT_EQ(hits, golden[q]) << where << " solo q=" << q;
        }
        std::vector<std::vector<Hit>> outs(raw.size());
        for (const auto& [lo, hi] :
             {std::pair{std::size_t{0}, split}, {split, ref.size()}})
          scanner.range_batch(*kernel, pointers(queries).data(),
                              thresholds.data(), raw.size(), lo, hi,
                              outs.data());
        for (std::size_t q = 0; q < raw.size(); ++q)
          EXPECT_EQ(outs[q], golden[q]) << where << " batch q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace fabp::core
