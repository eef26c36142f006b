// Differential coverage of the tile-fused compile+scan path: TileScanner
// must produce output bit-for-bit identical (contents AND order) to the
// golden scalar oracle and to the precompiled-plane path, under every
// kernel reachable on the host, at tile-boundary sizes, with Type III
// history spanning tile edges, over multi-record databases, and with the
// pooled tile-parallel merge.  All tests are named TileScan* so the
// thread-sanitizer leg of tools/check.sh can select them by filter.

#include <gtest/gtest.h>

#include "fabp/bio/database.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/util/thread_pool.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;

std::vector<BackElement> random_elements(std::size_t n,
                                         util::Xoshiro256& rng) {
  std::vector<BackElement> q;
  q.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.next() % 3) {
      case 0:
        q.push_back(BackElement::make_exact(bio::nucleotide_from_code(
            static_cast<std::uint8_t>(rng.next() % 4))));
        break;
      case 1:
        q.push_back(BackElement::make_conditional(
            static_cast<Condition>(rng.next() % 4)));
        break;
      default:
        q.push_back(BackElement::make_dependent(
            static_cast<Function>(rng.next() % 4)));
        break;
    }
  }
  return q;
}

std::vector<const ScanKernel*> reachable_kernels() {
  std::vector<const ScanKernel*> kernels;
  for (ScanIsa isa : kAllScanIsas)
    if (const ScanKernel* kernel = scan_kernel_for(isa))
      kernels.push_back(kernel);
  return kernels;
}

std::vector<Hit> plane_hits(const ScanKernel& kernel,
                            const BitScanQuery& query,
                            const BitScanReference& reference,
                            std::uint32_t threshold) {
  std::vector<Hit> hits;
  if (query.empty() || reference.size() < query.size()) return hits;
  kernel.range(query, reference, threshold, 0,
               reference.size() - query.size() + 1, hits);
  return hits;
}

std::vector<Hit> tiled_hits(const ScanKernel& kernel,
                            const TileScanner& scanner,
                            const BitScanQuery& query,
                            std::uint32_t threshold) {
  std::vector<Hit> hits;
  if (query.empty() || scanner.size() < query.size()) return hits;
  scanner.range(kernel, query, threshold, 0,
                scanner.size() - query.size() + 1, hits);
  return hits;
}

TEST(TileScan, MatchesGoldenAndPlanesOnRandomCases) {
  util::Xoshiro256 rng{401};
  const auto kernels = reachable_kernels();
  ASSERT_GE(kernels.size(), 2u);
  for (int trial = 0; trial < 8; ++trial) {
    const auto raw = random_elements(1 + rng.next() % 40, rng);
    const NucleotideSequence ref =
        bio::random_dna(raw.size() + rng.next() % 2000, rng);
    const bio::PackedNucleotides packed{ref};
    const BitScanQuery query{raw};
    const BitScanReference reference{packed};
    // Small tiles so even these references span several tile edges.
    const TileScanner scanner{packed, {.tile_positions = 256}};
    for (std::uint32_t t :
         {0u, static_cast<std::uint32_t>(raw.size() / 2),
          static_cast<std::uint32_t>(raw.size())}) {
      const auto golden = golden_hits(raw, ref, t);
      for (const ScanKernel* kernel : kernels) {
        EXPECT_EQ(plane_hits(*kernel, query, reference, t), golden)
            << kernel->name << " trial=" << trial << " t=" << t;
        EXPECT_EQ(tiled_hits(*kernel, scanner, query, t), golden)
            << kernel->name << " trial=" << trial << " t=" << t;
      }
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
          EXPECT_EQ(tiled_hits(*kernel, scanner, query, t), golden)
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

TEST(TileScan, MultiRecordDatabaseMatchesPlanesPath) {
  // A multi-record database concatenates records with guard separators in
  // one packed store; the tiled scan over that store must equal the
  // precompiled-plane scan over the same store, so record mapping
  // (locate/annotate) sees identical global hit positions.
  util::Xoshiro256 rng{431};
  bio::ReferenceDatabase db;
  db.add("r0", bio::random_dna(700, rng));
  db.add("r1", bio::random_dna(90, rng));
  db.add("r2", bio::random_dna(1300, rng));
  const auto raw = random_elements(14, rng);
  const BitScanQuery query{raw};
  const BitScanReference reference{db.packed()};
  const TileScanner scanner{db, {.tile_positions = 256}};
  EXPECT_EQ(scanner.size(), db.packed().size());
  for (std::uint32_t t : {0u, 7u, 14u}) {
    const auto planes = bitscan_hits(query, reference, t);
    EXPECT_EQ(scanner.hits(query, t), planes) << "t=" << t;
  }
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
    const auto outs = scanner.hits_batch(queries, thresholds, pool);
    ASSERT_EQ(outs.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
      EXPECT_EQ(outs[q], golden_hits(raw[q], ref, thresholds[q]))
          << "q=" << q;
  }
  util::ThreadPool pool{3};
  const auto pooled = scanner.hits_batch(queries, thresholds, &pool);
  const auto serial = scanner.hits_batch(queries, thresholds);
  EXPECT_EQ(pooled, serial);
  EXPECT_THROW(scanner.hits_batch(queries, {thresholds.data(), 2}),
               std::invalid_argument);
}

TEST(TileScan, PrefetchDistanceNeverChangesHits) {
  // Prefetching is a pure latency hint: every distance — off, shorter than
  // a tile, the default, and far past the next tile — must yield the exact
  // serial and pooled hit lists.
  util::Xoshiro256 rng{449};
  const auto raw = random_elements(13, rng);
  const NucleotideSequence ref = bio::random_dna(30'000, rng);
  const bio::PackedNucleotides packed{ref};
  const BitScanQuery query{raw};
  const auto golden = golden_hits(raw, ref, 6);
  util::ThreadPool pool{3};
  for (std::size_t distance : {0u, 8u, 64u, 1024u}) {
    const TileScanner scanner{
        packed, {.tile_positions = 512, .prefetch_distance = distance}};
    EXPECT_EQ(scanner.hits(query, 6), golden) << "distance=" << distance;
    EXPECT_EQ(scanner.hits(query, 6, &pool), golden)
        << "distance=" << distance;
  }
}

TEST(TileScan, PartitionPoliciesAgreeWithSerial) {
  // Static, Stealing and Auto runs must all stitch to the serial scan's
  // exact hit list, single-query and batch, at pool widths that divide the
  // tile count unevenly.
  util::Xoshiro256 rng{457};
  const auto raw = random_elements(10, rng);
  const NucleotideSequence ref = bio::random_dna(40'000, rng);
  const bio::PackedNucleotides packed{ref};
  const BitScanQuery query{raw};

  std::vector<BitScanQuery> queries;
  std::vector<std::vector<BackElement>> raws;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t q = 0; q < 4; ++q) {
    raws.push_back(random_elements(5 + 7 * q, rng));
    queries.emplace_back(raws.back());
    thresholds.push_back(static_cast<std::uint32_t>(raws.back().size() / 2));
  }

  for (TilePartition partition :
       {TilePartition::Auto, TilePartition::Static, TilePartition::Stealing}) {
    const TileScanner scanner{
        packed, {.tile_positions = 512, .partition = partition}};
    const auto serial = scanner.hits(query, 5);
    EXPECT_EQ(serial, golden_hits(raw, ref, 5));
    const auto serial_batch = scanner.hits_batch(queries, thresholds);
    for (std::size_t width : {2u, 5u}) {
      util::ThreadPool pool{width};
      EXPECT_EQ(scanner.hits(query, 5, &pool), serial)
          << "partition=" << static_cast<int>(partition)
          << " width=" << width;
      EXPECT_EQ(scanner.hits_batch(queries, thresholds, &pool), serial_batch)
          << "partition=" << static_cast<int>(partition)
          << " width=" << width;
    }
  }
}

TEST(TileScan, ScanRunsFollowPartitionPolicy) {
  util::Xoshiro256 rng{461};
  const bio::PackedNucleotides packed{bio::random_dna(64 * 100, rng)};
  const std::size_t positions = packed.size();  // 100 tiles of 64
  auto runs = [&](TilePartition p, std::size_t workers) {
    const TileScanner scanner{packed,
                              {.tile_positions = 64, .partition = p}};
    return scanner.scan_runs(positions, workers);
  };
  // Serial or empty scans are always one run.
  EXPECT_EQ(runs(TilePartition::Static, 1), 1u);
  EXPECT_EQ(runs(TilePartition::Stealing, 0), 1u);
  // Static: one run per worker, capped by the tile count.
  EXPECT_EQ(runs(TilePartition::Static, 4), 4u);
  EXPECT_EQ(runs(TilePartition::Static, 300), 100u);
  // Stealing: a few runs per worker, capped by the tile count.
  EXPECT_EQ(runs(TilePartition::Stealing, 4), 16u);
  EXPECT_EQ(runs(TilePartition::Stealing, 64), 100u);
  // Auto: static once every worker owns many whole tiles (100 tiles over
  // 4 workers = 25 each), stealing-grained when workers are tile-starved.
  EXPECT_EQ(runs(TilePartition::Auto, 4), 4u);
  EXPECT_EQ(runs(TilePartition::Auto, 32), 100u);
  // Never more runs than tiles, even for sub-tile scans.
  const TileScanner scanner{
      packed, {.tile_positions = 64, .partition = TilePartition::Stealing}};
  EXPECT_EQ(scanner.scan_runs(30, 8), 1u);
}

TEST(TileScan, PartitionIdentityAcrossBackends) {
  // The partition knob rides HostConfig::tile into every backend; both
  // kinds must return identical hits whichever policy is set,
  // pooled or not.
  util::Xoshiro256 rng{463};
  const NucleotideSequence ref = bio::random_dna(25'000, rng);
  const bio::ProteinSequence protein = bio::random_protein(9, rng);
  const CompiledQueryPtr query = compile_query(protein);
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(query->size() / 2);
  const std::vector<Hit> expected =
      golden_hits(query->elements, ref, threshold);

  util::ThreadPool pool{4};
  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    for (TilePartition partition :
         {TilePartition::Static, TilePartition::Stealing}) {
      HostConfig config;
      config.tile.tile_positions = 1024;
      config.tile.partition = partition;
      ReferenceStore store;
      store.upload(bio::PackedNucleotides{ref}, config.search_both_strands);
      const std::unique_ptr<ScanBackend> backend =
          make_backend(kind, config, store);
      EXPECT_EQ(
          backend->scan_batch({&query, 1}, {&threshold, 1}, false, &pool)
              .front(),
          expected)
          << to_string(kind) << " partition=" << static_cast<int>(partition);
      BackendRequest request;
      request.query = query.get();
      request.threshold = threshold;
      Expected<BackendRun> run = backend->run(request);
      ASSERT_TRUE(run.has_value()) << to_string(kind);
      EXPECT_EQ(run->hits, expected)
          << to_string(kind) << " partition=" << static_cast<int>(partition);
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
