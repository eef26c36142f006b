// Differential coverage of the tile-fused compile+scan path: TileScanner
// must produce output bit-for-bit identical (contents AND order) to the
// golden scalar oracle under every kernel reachable on the host, at
// tile-boundary sizes, with Type III history spanning tile edges, over
// multi-record databases, and with the pooled tile-parallel merge in both
// run layouts.  All tests are named TileScan* so the thread-sanitizer leg
// of tools/check.sh can select them by filter.

#include <gtest/gtest.h>

#include "fabp/bio/database.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/util/thread_pool.hpp"
#include "scan_test_util.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using scan_test::kernel_hits;
using scan_test::pointers;
using scan_test::probe_thresholds;
using scan_test::random_elements;
using scan_test::reachable_kernels;

TEST(TileScan, MatchesGoldenOnRandomCases) {
  util::Xoshiro256 rng{401};
  const auto kernels = reachable_kernels();
  ASSERT_GE(kernels.size(), 2u);
  for (int trial = 0; trial < 8; ++trial) {
    const auto raw = random_elements(1 + rng.next() % 40, rng);
    const NucleotideSequence ref =
        bio::random_dna(raw.size() + rng.next() % 2000, rng);
    const bio::PackedNucleotides packed{ref};
    const BitScanQuery query{raw};
    // Small tiles so even these references span several tile edges.
    const TileScanner scanner{packed, {.tile_positions = 256}};
    for (std::uint32_t t : probe_thresholds(raw.size())) {
      const auto golden = golden_hits(raw, ref, t);
      for (const ScanKernel* kernel : kernels)
        EXPECT_EQ(kernel_hits(*kernel, scanner, query, t), golden)
            << kernel->name << " trial=" << trial << " t=" << t;
    }
  }
}

TEST(TileScan, TileBoundarySizes) {
  // Reference sizes straddling the tile edge for sub-word, one-word and
  // multi-word tiles: tile-1, tile, tile+1, plus sub-tile references.
  util::Xoshiro256 rng{409};
  const auto kernels = reachable_kernels();
  const auto raw = random_elements(11, rng);
  const BitScanQuery query{raw};
  for (std::size_t tile : {64u, 128u, 320u}) {
    for (std::size_t size : {std::size_t{11}, std::size_t{40},
                             std::size_t{63}, std::size_t{64},
                             std::size_t{65}, tile - 1, tile, tile + 1,
                             2 * tile - 1, 2 * tile, 2 * tile + 1,
                             3 * tile + 17}) {
      const NucleotideSequence ref = bio::random_dna(size, rng);
      const bio::PackedNucleotides packed{ref};
      const TileScanner scanner{packed, {.tile_positions = tile}};
      for (std::uint32_t t : {0u, 5u, 11u}) {
        const auto golden = golden_hits(raw, ref, t);
        for (const ScanKernel* kernel : kernels)
          EXPECT_EQ(kernel_hits(*kernel, scanner, query, t), golden)
              << kernel->name << " tile=" << tile << " size=" << size
              << " t=" << t;
      }
    }
  }
}

TEST(TileScan, HistoryCarriesAcrossTileEdges) {
  // All-Type-III queries score every position through the prev1/prev2
  // history planes; with 64-position tiles every word edge is also a tile
  // edge, so any history-seeding bug at compile_tile's first word shows up
  // as a diff against the oracle.
  util::Xoshiro256 rng{419};
  std::vector<BackElement> raw;
  for (Function f : {Function::Stop3, Function::Leu3, Function::Arg3,
                     Function::AnyD, Function::Stop3, Function::Arg3})
    raw.push_back(BackElement::make_dependent(f));
  const BitScanQuery query{raw};
  for (int trial = 0; trial < 4; ++trial) {
    const NucleotideSequence ref = bio::random_dna(800 + trial * 37, rng);
    const bio::PackedNucleotides packed{ref};
    const TileScanner scanner{packed, {.tile_positions = 64}};
    EXPECT_EQ(scanner.tile_positions(), 64u);
    for (std::uint32_t t : {3u, 6u}) {
      const auto golden = golden_hits(raw, ref, t);
      EXPECT_EQ(scanner.hits(query, t), golden) << "trial=" << trial;
    }
  }
}

TEST(TileScan, RangeClampsAndSplitsLikeKernelRange) {
  util::Xoshiro256 rng{421};
  const auto raw = random_elements(9, rng);
  const NucleotideSequence ref = bio::random_dna(1500, rng);
  const bio::PackedNucleotides packed{ref};
  const BitScanQuery query{raw};
  const TileScanner scanner{packed, {.tile_positions = 128}};
  const auto golden = golden_hits(raw, ref, 4);
  // Out-of-range and inverted ranges are clamped/empty, and a scan split
  // at arbitrary cut points concatenates to the full scan.
  std::vector<Hit> whole;
  scanner.range(query, 4, 0, ref.size() + 999, whole);
  EXPECT_EQ(whole, golden);
  std::vector<Hit> none;
  scanner.range(query, 4, 900, 900, none);
  scanner.range(query, 4, 1200, 700, none);
  EXPECT_TRUE(none.empty());
  for (std::size_t cut : {1u, 64u, 127u, 128u, 129u, 777u, 1490u}) {
    std::vector<Hit> split;
    scanner.range(query, 4, 0, cut, split);
    scanner.range(query, 4, cut, ref.size(), split);
    EXPECT_EQ(split, golden) << "cut=" << cut;
  }
}

TEST(TileScan, MultiRecordDatabaseMatchesGolden) {
  // A multi-record database concatenates records with guard separators in
  // one packed store; the tiled scan over that store must equal the oracle
  // over the same store, so record mapping (locate/annotate) sees exact
  // global hit positions.
  util::Xoshiro256 rng{431};
  bio::ReferenceDatabase db;
  db.add("r0", bio::random_dna(700, rng));
  db.add("r1", bio::random_dna(90, rng));
  db.add("r2", bio::random_dna(1300, rng));
  const auto raw = random_elements(14, rng);
  const BitScanQuery query{raw};
  const NucleotideSequence store = db.concatenated();
  const TileScanner scanner{db, {.tile_positions = 256}};
  EXPECT_EQ(scanner.size(), db.packed().size());
  for (std::uint32_t t : {0u, 7u, 14u})
    EXPECT_EQ(scanner.hits(query, t), golden_hits(raw, store, t))
        << "t=" << t;
}

TEST(TileScan, ParallelMergeMatchesSerial) {
  util::Xoshiro256 rng{433};
  const auto raw = random_elements(10, rng);
  const NucleotideSequence ref = bio::random_dna(20'000, rng);
  const bio::PackedNucleotides packed{ref};
  const BitScanQuery query{raw};
  const TileScanner scanner{packed, {.tile_positions = 512}};
  const auto serial = scanner.hits(query, 5);
  EXPECT_EQ(serial, golden_hits(raw, ref, 5));
  for (std::size_t width : {1u, 2u, 5u}) {
    util::ThreadPool pool{width};
    EXPECT_EQ(scanner.hits(query, 5, &pool), serial) << "width=" << width;
  }
}

TEST(TileScan, BatchMatchesPerQueryIncludingDegenerates) {
  util::Xoshiro256 rng{439};
  const NucleotideSequence ref = bio::random_dna(5000, rng);
  const bio::PackedNucleotides packed{ref};
  const TileScanner scanner{packed, {.tile_positions = 512}};

  std::vector<std::vector<BackElement>> raw;
  raw.push_back(random_elements(8, rng));
  raw.push_back({});                          // empty query: no hits
  raw.push_back(random_elements(6000, rng));  // longer than ref: no hits
  raw.push_back(random_elements(21, rng));
  raw.push_back(random_elements(3, rng));
  std::vector<BitScanQuery> queries;
  for (const auto& q : raw) queries.emplace_back(q);
  const std::vector<std::uint32_t> thresholds{4, 0, 10, 22, 1};  // 22 > 21

  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr)}) {
    const auto outs = scanner.hits_batch(pointers(queries), thresholds, pool);
    ASSERT_EQ(outs.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
      EXPECT_EQ(outs[q], golden_hits(raw[q], ref, thresholds[q]))
          << "q=" << q;
  }
  util::ThreadPool pool{3};
  const auto pooled = scanner.hits_batch(pointers(queries), thresholds, &pool);
  const auto serial = scanner.hits_batch(pointers(queries), thresholds);
  EXPECT_EQ(pooled, serial);
  EXPECT_THROW(scanner.hits_batch(pointers(queries), {thresholds.data(), 2}),
               std::invalid_argument);
}

TEST(TileScan, RunLayoutsAgreeWithSerial) {
  // Both pooled run layouts must stitch to the serial scan's exact hit
  // list, single-query and batch.  scan_runs picks the static layout once
  // every worker owns at least 8 whole tiles and the stealing layout
  // otherwise, so the tile count decides which one each width reaches:
  // 79 tiles are static at widths 2 and 5, 10 tiles steal at both, and
  // widths 2 and 5 divide neither tile count evenly.
  util::Xoshiro256 rng{457};
  const auto raw = random_elements(10, rng);
  const NucleotideSequence ref = bio::random_dna(40'000, rng);
  const bio::PackedNucleotides packed{ref};
  const BitScanQuery query{raw};
  const std::size_t positions = ref.size() - raw.size() + 1;

  std::vector<BitScanQuery> queries;
  std::vector<std::vector<BackElement>> raws;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t q = 0; q < 4; ++q) {
    raws.push_back(random_elements(5 + 7 * q, rng));
    queries.emplace_back(raws.back());
    thresholds.push_back(static_cast<std::uint32_t>(raws.back().size() / 2));
  }

  for (const bool stealing : {false, true}) {
    const TileScanner scanner{
        packed, {.tile_positions = stealing ? 4096u : 512u}};
    const auto serial = scanner.hits(query, 5);
    EXPECT_EQ(serial, golden_hits(raw, ref, 5));
    const auto serial_batch = scanner.hits_batch(pointers(queries), thresholds);
    for (std::size_t width : {2u, 5u}) {
      const std::size_t runs = scanner.scan_runs(positions, width);
      if (stealing)
        EXPECT_GT(runs, width) << "width=" << width;
      else
        EXPECT_EQ(runs, width) << "width=" << width;
      util::ThreadPool pool{width};
      EXPECT_EQ(scanner.hits(query, 5, &pool), serial)
          << "runs=" << runs << " width=" << width;
      EXPECT_EQ(scanner.hits_batch(pointers(queries), thresholds, &pool),
                serial_batch)
          << "runs=" << runs << " width=" << width;
    }
  }
}

TEST(TileScan, ScanRunsPickLayoutFromTilesPerWorker) {
  util::Xoshiro256 rng{461};
  const bio::PackedNucleotides packed{bio::random_dna(64 * 100, rng)};
  const std::size_t positions = packed.size();  // 100 tiles of 64
  const TileScanner scanner{packed, {.tile_positions = 64}};
  // Serial or empty scans are always one run.
  EXPECT_EQ(scanner.scan_runs(positions, 1), 1u);
  EXPECT_EQ(scanner.scan_runs(positions, 0), 1u);
  EXPECT_EQ(scanner.scan_runs(0, 4), 1u);
  // Static — one run per worker — while every worker owns at least 8
  // whole tiles: 100 tiles over 4 workers, and over 12 (8.3 each).
  EXPECT_EQ(scanner.scan_runs(positions, 4), 4u);
  EXPECT_EQ(scanner.scan_runs(positions, 12), 12u);
  // Stealing — 4 runs per worker, capped by the tile count — once the
  // workers are tile-starved: 13 workers own 7.7 tiles each.
  EXPECT_EQ(scanner.scan_runs(positions, 13), 52u);
  EXPECT_EQ(scanner.scan_runs(positions, 32), 100u);
  // Never more runs than tiles, even for sub-tile scans.
  EXPECT_EQ(scanner.scan_runs(30, 8), 1u);
}

TEST(TileScan, RunLayoutIdentityAcrossBackends) {
  // HostConfig::tile rides into every backend; both kinds must return
  // identical hits in either run layout, pooled or not.  With a 4-wide
  // pool, 49 tiles of 512 run static and 25 tiles of 1024 steal.
  util::Xoshiro256 rng{463};
  const NucleotideSequence ref = bio::random_dna(25'000, rng);
  const bio::ProteinSequence protein = bio::random_protein(9, rng);
  const CompiledQueryPtr query = compile_query(protein);
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(query->size() / 2);
  const std::vector<Hit> expected =
      golden_hits(query->elements, ref, threshold);
  const std::size_t positions = ref.size() - query->size() + 1;

  util::ThreadPool pool{4};
  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    for (const std::size_t tile : {512u, 1024u}) {
      HostConfig config;
      config.tile.tile_positions = tile;
      ReferenceStore store;
      store.upload(bio::PackedNucleotides{ref}, config.search_both_strands);
      EXPECT_EQ(TileScanner(store.strand(false), config.tile)
                    .scan_runs(positions, pool.size()),
                tile == 512 ? 4u : 16u);
      const std::unique_ptr<ScanBackend> backend =
          make_backend(kind, config, store);
      EXPECT_EQ(
          backend->scan_batch({&query, 1}, {&threshold, 1}, false, &pool)
              .front(),
          expected)
          << to_string(kind) << " tile=" << tile;
      BackendRequest request;
      request.query = query.get();
      request.threshold = threshold;
      Expected<BackendRun> run = backend->run_many({&request, 1}).front();
      ASSERT_TRUE(run.has_value()) << to_string(kind);
      EXPECT_EQ(run->hits, expected) << to_string(kind) << " tile=" << tile;
    }
  }
}

TEST(TileScan, ScratchFootprintIsIndependentOfReferenceSize) {
  util::Xoshiro256 rng{443};
  const bio::PackedNucleotides small{bio::random_dna(10'000, rng)};
  const bio::PackedNucleotides large{bio::random_dna(1'000'000, rng)};
  const TileScanConfig config{.tile_positions = 128 * 1024};
  const TileScanner a{small, config};
  const TileScanner b{large, config};
  // O(tile + query), not O(reference): same tile, same scratch.
  EXPECT_EQ(a.scratch_bytes(40), b.scratch_bytes(40));
  // 12 planes over ~tile/64 words plus query spill and guards — the whole
  // per-thread working set stays a small multiple of the tile itself.
  EXPECT_LE(b.scratch_bytes(40),
            12 * (config.tile_positions / 64 + 64) * sizeof(std::uint64_t));
  EXPECT_GE(b.scratch_bytes(40),
            12 * (config.tile_positions / 64) * sizeof(std::uint64_t));
  // Tile geometry: rounded up to whole words, covers the reference.
  EXPECT_EQ(b.tile_count(),
            (large.size() + b.tile_positions() - 1) / b.tile_positions());
  const TileScanner tiny{small, {.tile_positions = 1}};
  EXPECT_EQ(tiny.tile_positions(), 64u);  // minimum one word
}

}  // namespace
}  // namespace fabp::core
