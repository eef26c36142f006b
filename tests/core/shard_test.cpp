// Shard router differential suite (DESIGN.md §4e): the sharded backend
// must be hit-for-hit identical to the unsharded backend for every shard
// count, backend kind and strand — with exact-match windows planted
// *straddling every shard boundary* so the halo/rebase math is actually
// exercised, not just the easy interior.  Plus fault isolation: one bad
// card must not perturb its peers, and a degraded card's window is served
// in software with correct global offsets.

#include "fabp/core/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabp/bio/codon.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

// One concrete DNA realization of the query: the first codon of every
// residue.  By the back-translation wildcard construction every position's
// element class contains this base, so the planted window scores the full
// 3 x residues elements.
std::vector<bio::Nucleotide> realization(const ProteinSequence& query) {
  std::vector<bio::Nucleotide> bases;
  bases.reserve(query.size() * 3);
  for (const bio::AminoAcid aa : query) {
    const bio::Codon codon = bio::codons_for(aa)[0];
    bases.push_back(codon.first);
    bases.push_back(codon.second);
    bases.push_back(codon.third);
  }
  return bases;
}

void plant(NucleotideSequence& ref, const std::vector<bio::Nucleotide>& dna,
           std::size_t position) {
  for (std::size_t i = 0; i < dna.size(); ++i)
    ref.bases()[position + i] = dna[i];
}

void plant_reverse(NucleotideSequence& ref,
                   const std::vector<bio::Nucleotide>& dna,
                   std::size_t position) {
  // Writing RC(dna) at forward position p puts `dna` on the RC strand with
  // mapped forward window coordinate exactly p.
  const NucleotideSequence rc =
      NucleotideSequence{bio::SeqKind::Dna, dna}.reverse_complement();
  for (std::size_t i = 0; i < rc.size(); ++i)
    ref.bases()[position + i] = rc[i];
}

// A reference with exact-match windows planted around every boundary of an
// N-shard partition: windows starting just before a boundary (straddling
// into the next shard's slice via the halo), exactly at it, and mid-window
// across it — plus the very first and very last window of the reference.
// Returns the forward planted positions that survived overlap dropping.
std::vector<std::size_t> plant_boundaries(NucleotideSequence& ref,
                                          const ProteinSequence& query,
                                          std::size_t shard_count) {
  const std::vector<bio::Nucleotide> dna = realization(query);
  const std::size_t window = dna.size();
  const std::size_t total = ref.size();
  std::vector<std::size_t> wanted{0, total - window};
  for (std::size_t s = 1; s < shard_count; ++s) {
    const std::size_t boundary = s * total / shard_count;
    if (boundary >= window) wanted.push_back(boundary - 1);
    if (boundary >= window / 2) wanted.push_back(boundary - window / 2);
    if (boundary + window <= total) wanted.push_back(boundary);
  }
  std::sort(wanted.begin(), wanted.end());
  std::vector<std::size_t> planted;
  for (const std::size_t position : wanted) {
    if (!planted.empty() && position < planted.back() + window)
      continue;  // overlapping plantings would clobber each other
    plant(ref, dna, position);
    planted.push_back(position);
  }
  return planted;
}

std::uint32_t exactish_threshold(const ProteinSequence& query) {
  // 90% of elements: planted exact windows (full score) always clear it,
  // random background rarely does — both engines see the same reference,
  // so equality is exact either way.
  return static_cast<std::uint32_t>(query.size() * 3 * 9 / 10);
}

EngineConfig sharded_config(BackendKind kind, std::size_t shard_count) {
  EngineConfig config;
  config.backend = kind;
  config.host.search_both_strands = true;
  config.shard.shard_count = shard_count;
  config.shard.max_query_elements = 64;  // small halo: boundaries matter
  return config;
}

// --- halo/rebase differential -------------------------------------------

TEST(Shard, BoundaryStraddlingAllBackendsAllCounts) {
  util::Xoshiro256 rng{4242};
  const ProteinSequence query = bio::random_protein(10, rng);  // 30 elements
  const ProteinSequence other = bio::random_protein(7, rng);

  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{8}}) {
    // 6007 elements: every shard slice is ragged, the last one short.
    NucleotideSequence ref = bio::random_dna(6007, rng);
    const std::vector<std::size_t> planted =
        plant_boundaries(ref, query, shard_count);
    // Reverse-strand boundary coverage: an RC window straddling the middle
    // boundary (away from the forward plantings).
    const std::size_t rc_position = 6007 / 2 + 211;
    plant_reverse(ref, realization(query), rc_position);

    for (const BackendKind kind :
         {BackendKind::HwSim, BackendKind::Tiled}) {
      EngineConfig unsharded = sharded_config(kind, 1);
      unsharded.shard.shard_count = 1;
      Engine truth{unsharded};
      truth.upload_reference(NucleotideSequence{ref});

      Engine engine{sharded_config(kind, shard_count)};
      engine.upload_reference(NucleotideSequence{ref});
      EXPECT_EQ(engine.shard_count(), shard_count);

      for (const ProteinSequence& q : {query, other}) {
        Expected<HostRunReport> expected =
            truth.align_sync(q, exactish_threshold(q));
        Expected<HostRunReport> actual =
            engine.align_sync(q, exactish_threshold(q));
        ASSERT_TRUE(expected.has_value());
        ASSERT_TRUE(actual.has_value())
            << to_string(kind) << " shards=" << shard_count;
        EXPECT_EQ(actual->hits, expected->hits)
            << to_string(kind) << " shards=" << shard_count;
        EXPECT_EQ(actual->reverse_hits, expected->reverse_hits)
            << to_string(kind) << " shards=" << shard_count;
      }

      // The planted boundary windows actually surfaced (halo coverage).
      Expected<HostRunReport> report =
          engine.align_sync(query, exactish_threshold(query));
      ASSERT_TRUE(report.has_value());
      for (const std::size_t position : planted)
        EXPECT_TRUE(std::any_of(report->hits.begin(), report->hits.end(),
                                [&](const Hit& hit) {
                                  return hit.position == position;
                                }))
            << "missing planted hit at " << position << " kind "
            << to_string(kind) << " shards=" << shard_count;
      EXPECT_TRUE(std::any_of(report->reverse_hits.begin(),
                              report->reverse_hits.end(), [&](const Hit& hit) {
                                return hit.position == rc_position;
                              }))
          << "missing planted RC hit, kind " << to_string(kind)
          << " shards=" << shard_count;
    }
  }
}

TEST(Shard, BatchPrecomputePathsMatchUnsharded) {
  util::Xoshiro256 rng{515};
  NucleotideSequence ref = bio::random_dna(8192, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 6; ++i)
    queries.push_back(bio::random_protein(6 + i, rng));
  plant_boundaries(ref, queries[0], 3);

  for (const BackendKind kind : {BackendKind::Tiled, BackendKind::HwSim}) {
    Engine truth{sharded_config(kind, 1)};
    truth.upload_reference(NucleotideSequence{ref});
    Engine engine{sharded_config(kind, 3)};
    engine.upload_reference(NucleotideSequence{ref});

    // align_batch_sync: scan_batch precompute + scattered precomputed
    // lists through run().
    Expected<BatchReport> expected = truth.align_batch_sync(queries, 0.5);
    Expected<BatchReport> actual = engine.align_batch_sync(queries, 0.5);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(actual.has_value()) << to_string(kind);
    ASSERT_EQ(actual->per_query.size(), expected->per_query.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(actual->per_query[i].hits, expected->per_query[i].hits)
          << to_string(kind) << " query " << i;
      EXPECT_EQ(actual->per_query[i].reverse_hits,
                expected->per_query[i].reverse_hits)
          << to_string(kind) << " query " << i;
    }

    // software_hits / software_hits_batch (both a forward scan_batch).
    std::vector<std::uint32_t> thresholds;
    for (const ProteinSequence& q : queries)
      thresholds.push_back(static_cast<std::uint32_t>(q.size() * 3 / 2));
    EXPECT_EQ(engine.software_hits_batch(queries, thresholds),
              truth.software_hits_batch(queries, thresholds))
        << to_string(kind);
    EXPECT_EQ(engine.software_hits(queries[0], thresholds[0]),
              truth.software_hits(queries[0], thresholds[0]))
        << to_string(kind);
  }
}

// Raw RC coordinates (the precompute contract): the sharded scan_batch
// must reproduce the unsharded raw lists of both strands at every shard
// count.
TEST(Shard, RawReverseScanBatchMatchesUnsharded) {
  util::Xoshiro256 rng{616};
  const NucleotideSequence ref = bio::random_dna(5000, rng);
  const bio::PackedNucleotides packed{ref};

  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t i = 0; i < 4; ++i) {
    queries.push_back(compile_query(bio::random_protein(5 + i, rng)));
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back()->size() / 2));
  }

  HostConfig config;
  config.search_both_strands = true;
  ReferenceStore store;
  store.upload(packed, true);
  std::unique_ptr<ScanBackend> unsharded =
      make_backend(BackendKind::Tiled, config, store);

  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{8}}) {
    ShardConfig shard;
    shard.shard_count = shard_count;
    shard.max_query_elements = 64;
    ReferenceStore sharded_store;
    sharded_store.upload(packed, true);
    std::unique_ptr<ShardedBackend> sharded = make_sharded_backend(
        BackendKind::Tiled, config, sharded_store, shard);

    for (const bool reverse : {false, true})
      EXPECT_EQ(sharded->scan_batch(queries, thresholds, reverse, nullptr),
                unsharded->scan_batch(queries, thresholds, reverse, nullptr))
          << "shards=" << shard_count << " reverse=" << reverse;
  }
}

// A throw from inside the router's one scan (the whole-store TileScanner
// rejects mismatched spans) reaches the caller, and the router stays
// usable for the next batch.
TEST(Shard, ThrowingCardDrainsAndRouterRecovers) {
  util::Xoshiro256 rng{919};
  const NucleotideSequence ref = bio::random_dna(5000, rng);
  const bio::PackedNucleotides packed{ref};

  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t i = 0; i < 4; ++i) {
    queries.push_back(compile_query(bio::random_protein(5 + i, rng)));
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back()->size() / 2));
  }

  HostConfig config;
  config.search_both_strands = true;
  ReferenceStore store;
  store.upload(packed, true);
  std::unique_ptr<ScanBackend> unsharded =
      make_backend(BackendKind::Tiled, config, store);

  for (const std::size_t shard_count :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    ShardConfig shard;
    shard.shard_count = shard_count;
    shard.max_query_elements = 64;
    ReferenceStore sharded_store;
    sharded_store.upload(packed, true);
    std::unique_ptr<ShardedBackend> sharded = make_sharded_backend(
        BackendKind::Tiled, config, sharded_store, shard);

    // Two thresholds for four queries: the scan rejects the mismatched
    // spans.
    EXPECT_THROW(sharded->scan_batch(queries, {thresholds.data(), 2}, false,
                                     nullptr),
                 std::invalid_argument)
        << "shards=" << shard_count;
    for (const bool reverse : {false, true})
      EXPECT_EQ(sharded->scan_batch(queries, thresholds, reverse, nullptr),
                unsharded->scan_batch(queries, thresholds, reverse, nullptr))
          << "shards=" << shard_count << " reverse=" << reverse;
  }
}

// scan_batch is const and takes no lock: two scanning threads and one
// run_many caller share a 4-card hw-sim router at once — a tsan leg
// target for the scan-outside-the-lock contract.  The scans touch no
// card, so each card counts only the kRounds batches it accounted.
TEST(Shard, ConcurrentScanBatchWithRunMany) {
  util::Xoshiro256 rng{626};
  const bio::PackedNucleotides packed{bio::random_dna(12000, rng)};
  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t i = 0; i < 4; ++i) {
    queries.push_back(compile_query(bio::random_protein(6 + i, rng)));
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back()->size() / 2));
  }

  HostConfig config;
  config.search_both_strands = true;
  ReferenceStore store;
  store.upload(packed, true);
  const std::unique_ptr<ScanBackend> unsharded =
      make_backend(BackendKind::HwSim, config, store);
  const auto forward = unsharded->scan_batch(queries, thresholds, false, nullptr);
  const auto reverse = unsharded->scan_batch(queries, thresholds, true, nullptr);
  std::vector<BackendRequest> requests;
  for (std::size_t q = 0; q < queries.size(); ++q)
    requests.push_back(BackendRequest{queries[q].get(), thresholds[q],
                                      &forward[q], &reverse[q]});
  const auto expected = unsharded->run_many(requests);

  ShardConfig shard;
  shard.shard_count = 4;
  shard.max_query_elements = 64;
  ReferenceStore sharded_store;
  sharded_store.upload(packed, true);
  const std::unique_ptr<ShardedBackend> sharded = make_sharded_backend(
      BackendKind::HwSim, config, sharded_store, shard);

  constexpr std::size_t kRounds = 20;
  std::vector<std::thread> scanners;
  for (const bool rc : {false, true})
    scanners.emplace_back([&, rc] {
      for (std::size_t r = 0; r < kRounds; ++r)
        EXPECT_EQ(sharded->scan_batch(queries, thresholds, rc, nullptr),
                  rc ? reverse : forward);
    });
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto runs = sharded->run_many(requests);
    EXPECT_EQ(runs.size(), expected.size());
    for (std::size_t q = 0; q < runs.size() && q < expected.size(); ++q) {
      EXPECT_TRUE(runs[q].has_value()) << "query " << q;
      if (!runs[q]) continue;
      EXPECT_EQ(runs[q]->hits, expected[q]->hits) << "query " << q;
      EXPECT_EQ(runs[q]->reverse_hits, expected[q]->reverse_hits)
          << "query " << q;
    }
  }
  for (std::thread& scanner : scanners) scanner.join();
  for (const ShardStatus& status : sharded->shard_status())
    EXPECT_EQ(status.batches_executed, kRounds) << "shard " << status.index;
}

// Concurrent coalesced serving through the router — the tsan leg target,
// and the sharded twin of Engine.CoalescedEqualsSequentialAllBackends:
// both strands, HwSim, Tiled and the LUT path, held hit-for-hit to the
// unsharded align_sync truth.  The router's one scan runs on the engine's
// scan pool; the 20 kbp store is one default tile, 10 tiles at 2048
// positions and 79 at 256, so the small tiles make the pooled scan split.
TEST(Shard, CoalescedConcurrentSubmitMatchesSequential) {
  util::Xoshiro256 rng{717};
  const NucleotideSequence ref = bio::random_dna(20000, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 8; ++i)
    queries.push_back(bio::random_protein(6 + i % 5, rng));
  const auto threshold = [](const ProteinSequence& q) {
    return static_cast<std::uint32_t>(q.size() * 3 / 2);
  };

  struct Case {
    BackendKind kind;
    bool lut;
  };
  for (const std::size_t tile :
       {TileScanConfig{}.tile_positions, std::size_t{2048}, std::size_t{256}}) {
    for (const auto [kind, lut] :
         {Case{BackendKind::HwSim, false}, Case{BackendKind::Tiled, false},
          Case{BackendKind::HwSim, true}}) {
      const std::string label = std::string{to_string(kind)} +
                                (lut ? "/lut" : "") +
                                " tile=" + std::to_string(tile);
      EngineConfig config = sharded_config(kind, 1);
      config.host.accelerator.use_lut_path = lut;
      config.host.tile.tile_positions = tile;
      Engine truth{config};
      truth.upload_reference(NucleotideSequence{ref});
      std::vector<std::vector<Hit>> expected_fwd, expected_rev;
      for (const ProteinSequence& q : queries) {
        Expected<HostRunReport> report = truth.align_sync(q, threshold(q));
        ASSERT_TRUE(report.has_value()) << label;
        expected_fwd.push_back(report->hits);
        expected_rev.push_back(report->reverse_hits);
      }

      config.shard.shard_count = 3;
      Engine engine{config};
      engine.upload_reference(NucleotideSequence{ref});
      constexpr std::size_t kRequests = 48;
      std::vector<Ticket> tickets;
      tickets.reserve(kRequests);
      for (std::size_t i = 0; i < kRequests; ++i) {
        const ProteinSequence& q = queries[i % queries.size()];
        tickets.push_back(engine.submit(q, threshold(q)));
      }
      for (std::size_t i = 0; i < kRequests; ++i) {
        Expected<HostRunReport> outcome = tickets[i].wait();
        ASSERT_TRUE(outcome.has_value()) << label << " request " << i;
        EXPECT_EQ(outcome->hits, expected_fwd[i % queries.size()])
            << label << " request " << i;
        EXPECT_EQ(outcome->reverse_hits, expected_rev[i % queries.size()])
            << label << " request " << i;
      }
      EXPECT_EQ(engine.stats().completed, kRequests) << label;

      // Router status after draining: every shard executed work.
      const std::vector<ShardStatus> status = engine.shard_status();
      ASSERT_EQ(status.size(), 3u) << label;
      for (const ShardStatus& shard : status)
        EXPECT_GT(shard.batches_executed, 0u)
            << label << " shard " << shard.index;
    }
  }
}

// shard_overhead_seconds() reads two relaxed atomics and takes no
// execution lock: a stats thread scrapes it in a loop while a 16-request
// sharded burst runs (a tsan leg target).  Each clock only grows, so one
// reader never sees the sum fall.  A fast scan can finish a burst before
// the scraper thread runs, so the burst repeats (a bounded number of
// times) until a scrape lands inside one.
TEST(Shard, OverheadScrapeDuringBurstIsLockFree) {
  util::Xoshiro256 rng{838};
  const NucleotideSequence ref = bio::random_dna(20000, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 4; ++i)
    queries.push_back(bio::random_protein(6 + i, rng));

  EngineConfig config = sharded_config(BackendKind::HwSim, 4);
  config.host.tile.tile_positions = 1024;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  std::atomic<bool> done{false};
  std::atomic<std::size_t> scrapes{0};
  bool monotonic = true;
  std::thread scraper{[&] {
    double last = 0.0;
    while (!done.load()) {
      const double now = engine.shard_overhead_seconds();
      monotonic = monotonic && now >= last;
      last = now;
      ++scrapes;
    }
  }};
  constexpr std::size_t kRequests = 16;
  bool overlapped = false;
  for (int burst = 0; burst < 1000 && !overlapped; ++burst) {
    const std::size_t before = scrapes.load();
    std::vector<Ticket> tickets;
    tickets.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const ProteinSequence& q = queries[i % queries.size()];
      tickets.push_back(engine.submit(q, exactish_threshold(q)));
    }
    for (Ticket& ticket : tickets) EXPECT_TRUE(ticket.wait().has_value());
    overlapped = scrapes.load() > before;
  }
  done.store(true);
  scraper.join();

  EXPECT_TRUE(overlapped);
  EXPECT_TRUE(monotonic);
  EXPECT_GT(engine.shard_overhead_seconds(), 0.0);
}

// --- typed errors --------------------------------------------------------

TEST(Shard, OversizedQueryIsTypedBadArgument) {
  util::Xoshiro256 rng{818};
  const NucleotideSequence ref = bio::random_dna(4000, rng);
  EngineConfig config = sharded_config(BackendKind::Tiled, 2);
  config.shard.max_query_elements = 30;  // 10 residues
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  const ProteinSequence big = bio::random_protein(20, rng);  // 60 elements
  Expected<HostRunReport> outcome = engine.align_sync(big, 10);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::BadArgument);
  EXPECT_THROW(engine.software_hits(big, 10), std::invalid_argument);

  // A query that fits still works.
  const ProteinSequence small = bio::random_protein(8, rng);
  EXPECT_TRUE(engine.align_sync(small, 10).has_value());
}

// An oversized query in a coalesced burst fails alone, typed at submit,
// so the burst's lock-free scan never meets a query the router refuses;
// every other request matches align_sync.
TEST(Shard, OversizedQueryInCoalescedBurstFailsAlone) {
  util::Xoshiro256 rng{819};
  const NucleotideSequence ref = bio::random_dna(8000, rng);
  EngineConfig config = sharded_config(BackendKind::HwSim, 3);
  config.autostart = false;  // queue the whole burst, then coalesce it
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  constexpr std::size_t kOversized = 3;
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 8; ++i)
    queries.push_back(bio::random_protein(i == kOversized ? 30 : 6 + i, rng));
  const auto threshold = [](const ProteinSequence& q) {
    return static_cast<std::uint32_t>(q.size() * 3 / 2);
  };
  std::vector<Ticket> tickets;
  for (const ProteinSequence& q : queries)
    tickets.push_back(engine.submit(q, threshold(q)));
  engine.start();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    Expected<HostRunReport> outcome = tickets[i].wait();
    if (i == kOversized) {
      ASSERT_FALSE(outcome.has_value());
      EXPECT_EQ(outcome.error().code, ErrorCode::BadArgument);
      continue;
    }
    ASSERT_TRUE(outcome.has_value()) << "request " << i;
    Expected<HostRunReport> expected =
        engine.align_sync(queries[i], threshold(queries[i]));
    ASSERT_TRUE(expected.has_value()) << "request " << i;
    EXPECT_EQ(outcome->hits, expected->hits) << "request " << i;
    EXPECT_EQ(outcome->reverse_hits, expected->reverse_hits)
        << "request " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, queries.size() - 1);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.largest_batch, 2u);
}

TEST(Shard, ConfigValidation) {
  EXPECT_EQ(validate_shard_config(ShardConfig{}).code, ErrorCode::None);
  ShardConfig zero;
  zero.shard_count = 0;
  EXPECT_EQ(validate_shard_config(zero).code, ErrorCode::InvalidConfig);
  ShardConfig absurd;
  absurd.shard_count = 65;
  EXPECT_EQ(validate_shard_config(absurd).code, ErrorCode::InvalidConfig);
  ShardConfig bad_halo;
  bad_halo.max_query_elements = 0;
  EXPECT_EQ(validate_shard_config(bad_halo).code, ErrorCode::InvalidConfig);
  ShardConfig bad_chaos;
  bad_chaos.shard_count = 2;
  bad_chaos.fault_only_shard = 2;
  EXPECT_EQ(validate_shard_config(bad_chaos).code, ErrorCode::InvalidConfig);

  EngineConfig config;
  config.shard.shard_count = 0;
  EXPECT_THROW(Engine{config}, FaultError);
}

TEST(Shard, UnshardedEngineHasNoRouter) {
  Engine engine{EngineConfig{}};
  EXPECT_EQ(engine.shard_count(), 1u);
  EXPECT_TRUE(engine.shard_status().empty());
  EXPECT_EQ(engine.shard_overhead_seconds(), 0.0);
}

/// Threads of this process (Threads: in /proc/self/status).
std::size_t thread_count() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// The router accounts inline on its caller: building, republishing and
// serving sharded generations starts no thread of its own (align_sync
// scans on its caller, and no submit starts the engine's workers).
TEST(Shard, RouterStartsNoThreads) {
  util::Xoshiro256 rng{1424};
  const ProteinSequence query = bio::random_protein(8, rng);
  const std::size_t before = thread_count();
  ASSERT_GT(before, 0u);
  {
    Engine engine{sharded_config(BackendKind::HwSim, 8)};
    for (std::size_t generation = 0; generation < 3; ++generation) {
      engine.upload_reference(bio::random_dna(6000, rng));
      ASSERT_TRUE(
          engine.align_sync(query, exactish_threshold(query)).has_value());
    }
    EXPECT_LE(thread_count(), before);
  }
}

// --- chaos ---------------------------------------------------------------

// Faults injected into ONE shard's stream: results stay golden (recovery
// repairs them) and the other shards' cards log zero fault events.
TEST(ShardChaos, FaultIsolationSingleShard) {
  util::Xoshiro256 rng{919};
  const NucleotideSequence ref = bio::random_dna(12000, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 4; ++i)
    queries.push_back(bio::random_protein(8, rng));

  Engine truth{sharded_config(BackendKind::Tiled, 1)};
  truth.upload_reference(NucleotideSequence{ref});

  EngineConfig config = sharded_config(BackendKind::HwSim, 3);
  config.host.fault.flip_rate = 3e-4;
  config.host.fault.drop_rate = 1e-3;
  config.shard.fault_only_shard = 1;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  for (const ProteinSequence& q : queries) {
    const std::uint32_t threshold =
        static_cast<std::uint32_t>(q.size() * 3 / 2);
    Expected<HostRunReport> expected = truth.align_sync(q, threshold);
    Expected<HostRunReport> actual = engine.align_sync(q, threshold);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(actual.has_value());
    EXPECT_EQ(actual->hits, expected->hits);
    EXPECT_EQ(actual->reverse_hits, expected->reverse_hits);
  }

  const std::vector<ShardStatus> status = engine.shard_status();
  ASSERT_EQ(status.size(), 3u);
  EXPECT_GT(status[1].fault_events, 0u) << "chaos shard saw no faults";
  EXPECT_EQ(status[0].fault_events, 0u) << "fault leaked to shard 0";
  EXPECT_EQ(status[2].fault_events, 0u) << "fault leaked to shard 2";
  EXPECT_GT(status[1].recovery.retries + status[1].recovery.crc_faults +
                status[1].recovery.rescanned_tiles,
            0u);
  EXPECT_EQ(status[0].health, HealthState::Healthy);
  EXPECT_EQ(status[2].health, HealthState::Healthy);
}

// A shard whose card dies degrades and its window is served in software
// (its hw-sim backend's degraded branch hands back the scanned lists):
// requests keep succeeding with correct *global* offsets (a hit planted
// inside the degraded shard's owned range must surface), while the healthy
// shards keep accounting their windows on the card.
TEST(ShardChaos, DegradedShardFallsBackToSoftware) {
  util::Xoshiro256 rng{1020};
  const ProteinSequence query = bio::random_protein(10, rng);
  NucleotideSequence ref = bio::random_dna(9000, rng);
  // Inside shard 1 of 3's owned range [3000, 6000).
  const std::size_t planted_position = 4444;
  plant(ref, realization(query), planted_position);

  Engine truth{sharded_config(BackendKind::Tiled, 1)};
  truth.upload_reference(NucleotideSequence{ref});

  EngineConfig config = sharded_config(BackendKind::HwSim, 3);
  config.host.fault.transfer_fail_rate = 1.0;  // the card never transfers
  config.shard.fault_only_shard = 1;
  config.host.recovery.max_attempts = 2;
  config.host.recovery.degrade_after = 1;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  for (std::size_t round = 0; round < 3; ++round) {
    Expected<HostRunReport> expected =
        truth.align_sync(query, exactish_threshold(query));
    Expected<HostRunReport> actual =
        engine.align_sync(query, exactish_threshold(query));
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(actual.has_value()) << "round " << round;
    EXPECT_EQ(actual->hits, expected->hits) << "round " << round;
    EXPECT_EQ(actual->reverse_hits, expected->reverse_hits)
        << "round " << round;
    EXPECT_TRUE(std::any_of(
        actual->hits.begin(), actual->hits.end(),
        [&](const Hit& hit) { return hit.position == planted_position; }))
        << "round " << round;
    if (round > 0) {
      EXPECT_GT(actual->recovery.fallbacks, 0u);
    }
  }

  const std::vector<ShardStatus> status = engine.shard_status();
  ASSERT_EQ(status.size(), 3u);
  EXPECT_EQ(status[1].health, HealthState::Degraded);
  EXPECT_GT(status[1].recovery.fallbacks, 0u);
  EXPECT_EQ(status[0].health, HealthState::Healthy);
  EXPECT_EQ(status[2].health, HealthState::Healthy);
  EXPECT_EQ(status[0].recovery.fallbacks, 0u);
  EXPECT_EQ(status[2].recovery.fallbacks, 0u);
  EXPECT_EQ(engine.health(), HealthState::Degraded);
}

TEST(ShardChaos, DegradedWithoutFallbackIsDeviceLost) {
  util::Xoshiro256 rng{1121};
  const NucleotideSequence ref = bio::random_dna(6000, rng);
  EngineConfig config = sharded_config(BackendKind::HwSim, 2);
  config.host.fault.transfer_fail_rate = 1.0;
  config.shard.fault_only_shard = 0;
  config.host.recovery.allow_software_fallback = false;
  config.host.recovery.max_attempts = 2;
  config.host.recovery.degrade_after = 1;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  const ProteinSequence query = bio::random_protein(8, rng);
  Expected<HostRunReport> first = engine.align_sync(query, 12);
  ASSERT_FALSE(first.has_value());
  Expected<HostRunReport> second = engine.align_sync(query, 12);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::DeviceLost);
}

// Card s draws its fault stream from the configured seed plus s + 1
// golden-ratio strides (the router's per-card seed rule, restated here).
constexpr std::uint64_t kCardSeedStride = 0x9e3779b97f4a7c15ull;

void expect_same_recovery(const RecoveryStats& actual,
                          const RecoveryStats& expected,
                          const std::string& label) {
  EXPECT_EQ(actual.attempts, expected.attempts) << label;
  EXPECT_EQ(actual.retries, expected.retries) << label;
  EXPECT_EQ(actual.transfer_faults, expected.transfer_faults) << label;
  EXPECT_EQ(actual.timeouts, expected.timeouts) << label;
  EXPECT_EQ(actual.crc_faults, expected.crc_faults) << label;
  EXPECT_EQ(actual.readback_faults, expected.readback_faults) << label;
  EXPECT_EQ(actual.rescanned_tiles, expected.rescanned_tiles) << label;
  EXPECT_EQ(actual.spot_checks, expected.spot_checks) << label;
  EXPECT_EQ(actual.spot_check_faults, expected.spot_check_faults) << label;
  EXPECT_EQ(actual.fallbacks, expected.fallbacks) << label;
  EXPECT_EQ(actual.degraded, expected.degraded) << label;
  EXPECT_EQ(actual.recovery_s, expected.recovery_s) << label;
}

void expect_same_pipeline(const DevicePipelineStats& actual,
                          const DevicePipelineStats& expected,
                          const std::string& label) {
  EXPECT_EQ(actual.invocations, expected.invocations) << label;
  EXPECT_EQ(actual.tasks, expected.tasks) << label;
  EXPECT_EQ(actual.retried_invocations, expected.retried_invocations)
      << label;
  EXPECT_EQ(actual.pe_count, expected.pe_count) << label;
  EXPECT_EQ(actual.buffer_depth, expected.buffer_depth) << label;
  EXPECT_EQ(actual.largest_invocation, expected.largest_invocation) << label;
  EXPECT_EQ(actual.transfer_s, expected.transfer_s) << label;
  EXPECT_EQ(actual.compute_s, expected.compute_s) << label;
  EXPECT_EQ(actual.serial_s, expected.serial_s) << label;
  EXPECT_EQ(actual.pipelined_s, expected.pipelined_s) << label;
  EXPECT_EQ(actual.pe_busy_s, expected.pe_busy_s) << label;
}

// Each card's accounting is exactly a standalone hw-sim backend's over a
// store uploaded from that card's slice (owned range + halo), with that
// card's seed, fed that slice's own scan: every fault schedule, CRC
// verdict, splice, spot check, cycle count and recovery figure matches
// bit for bit, per request and per card, with integrity checks on and
// off, and on a fleet whose every card is lost after its first failed
// transfer (a lost card is still its own hw-sim backend, degraded).
// Pins what a card holds as its DRAM image, whatever the router keeps
// resident.
TEST(ShardChaos, CardAccountingMatchesSliceBackend) {
  util::Xoshiro256 rng{1323};
  const bio::PackedNucleotides packed{bio::random_dna(9001, rng)};
  const std::size_t total = packed.size();
  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t i = 0; i < 5; ++i) {
    queries.push_back(compile_query(bio::random_protein(6 + i, rng)));
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back()->size() * 2 / 3));
  }
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kRounds = 4;

  enum class Input { Verify, NoVerify, LostCards };
  for (const Input input : {Input::Verify, Input::NoVerify, Input::LostCards}) {
    const bool verify = input != Input::NoVerify;
    const bool lost = input == Input::LostCards;
    const std::string mode =
        lost ? "lost-cards" : (verify ? "verify" : "no-verify");
    HostConfig config;
    config.search_both_strands = true;
    config.tile.tile_positions = 256;  // several integrity tiles per slice
    config.device_batch.invocation_tasks = 2;
    config.fault.flip_rate = 2e-4;
    config.fault.drop_rate = 0.05;
    config.fault.dup_rate = 0.05;
    config.fault.stall_rate = 0.05;
    config.fault.transfer_fail_rate = 0.05;
    config.fault.readback_flip_rate = 0.5;
    config.recovery.spot_check_samples = 2;
    config.recovery.verify_integrity = verify;
    if (lost) {
      config.fault.transfer_fail_rate = 1.0;
      config.recovery.max_attempts = 1;
      config.recovery.degrade_after = 1;
    }
    ShardConfig shard;
    shard.shard_count = kShards;
    shard.max_query_elements = 64;
    ReferenceStore store;
    store.upload(packed, true);
    const std::unique_ptr<ShardedBackend> router =
        make_sharded_backend(BackendKind::HwSim, config, store, shard);

    struct Card {
      std::size_t begin = 0;
      std::size_t owned = 0;
      HostConfig config;
      ReferenceStore store;
      std::unique_ptr<ScanBackend> backend;
      RecoveryStats recovery;
      std::size_t fault_log_consumed = 0;
    };
    std::vector<std::unique_ptr<Card>> cards;
    for (std::size_t s = 0; s < kShards; ++s) {
      auto card = std::make_unique<Card>();
      card->begin = s * total / kShards;
      card->owned = (s + 1) * total / kShards - card->begin;
      const std::size_t end = std::min(
          total, card->begin + card->owned + shard.max_query_elements - 1);
      card->config = config;
      card->config.fault.seed += kCardSeedStride * (s + 1);
      card->store.upload(packed.slice(card->begin, end - card->begin), true);
      card->backend =
          make_backend(BackendKind::HwSim, card->config, card->store);
      cards.push_back(std::move(card));
    }

    std::vector<hw::FaultEvent> merged_log;
    for (std::size_t round = 0; round < kRounds; ++round) {
      // A different batch shape each round: rotating subsets of 2..5.
      std::vector<CompiledQueryPtr> batch;
      std::vector<std::uint32_t> batch_thresholds;
      for (std::size_t j = 0; j < 2 + round; ++j) {
        batch.push_back(queries[(round + j) % queries.size()]);
        batch_thresholds.push_back(thresholds[(round + j) % queries.size()]);
      }
      const auto lists = [&](const ScanBackend& backend) {
        std::vector<std::vector<Hit>> out[2];
        for (const bool rc : {false, true})
          out[rc] = backend.scan_batch(batch, batch_thresholds, rc, nullptr);
        return std::pair{std::move(out[0]), std::move(out[1])};
      };
      const auto requests_over =
          [&](const std::pair<std::vector<std::vector<Hit>>,
                              std::vector<std::vector<Hit>>>& scanned) {
            std::vector<BackendRequest> out;
            for (std::size_t j = 0; j < batch.size(); ++j)
              out.push_back(BackendRequest{batch[j].get(), batch_thresholds[j],
                                           &scanned.first[j],
                                           &scanned.second[j]});
            return out;
          };

      const auto global = lists(*router);
      const std::vector<Expected<BackendRun>> actual =
          router->run_many(requests_over(global));

      std::vector<std::vector<Expected<BackendRun>>> per_card;
      for (const auto& card : cards) {
        const auto local = lists(*card->backend);
        per_card.push_back(card->backend->run_many(requests_over(local)));
        const std::vector<hw::FaultEvent>& log = card->backend->fault_log();
        merged_log.insert(merged_log.end(),
                          log.begin() + static_cast<std::ptrdiff_t>(
                                            card->fault_log_consumed),
                          log.end());
        card->fault_log_consumed = log.size();
      }

      ASSERT_EQ(actual.size(), batch.size()) << mode;
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const std::string label =
            mode + " round " + std::to_string(round) + " request " +
            std::to_string(j);
        BackendRun want;
        for (std::size_t s = 0; s < kShards; ++s) {
          ASSERT_TRUE(per_card[s][j].has_value()) << label;
          const BackendRun& part = per_card[s][j].value();
          Card& card = *cards[s];
          for (const Hit& hit : part.hits)
            if (hit.position < card.owned)
              want.hits.push_back(Hit{hit.position + card.begin, hit.score});
          for (const Hit& hit : part.reverse_hits)
            if (hit.position < card.owned)
              want.reverse_hits.push_back(
                  Hit{hit.position + card.begin, hit.score});
          want.cycles = std::max(want.cycles, part.cycles);
          want.kernel_seconds =
              std::max(want.kernel_seconds, part.kernel_seconds);
          want.recovery.merge(part.recovery);
          card.recovery.merge(part.recovery);
        }
        ASSERT_TRUE(actual[j].has_value()) << label;
        EXPECT_EQ(actual[j]->hits, want.hits) << label;
        EXPECT_EQ(actual[j]->reverse_hits, want.reverse_hits) << label;
        EXPECT_EQ(actual[j]->cycles, want.cycles) << label;
        EXPECT_EQ(actual[j]->kernel_seconds, want.kernel_seconds) << label;
        expect_same_recovery(actual[j]->recovery, want.recovery, label);
      }
    }

    const std::vector<ShardStatus> status = router->shard_status();
    ASSERT_EQ(status.size(), kShards) << mode;
    std::size_t events = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string label = mode + " card " + std::to_string(s);
      const Card& card = *cards[s];
      EXPECT_EQ(status[s].fault_events, card.backend->fault_log().size())
          << label;
      expect_same_recovery(status[s].recovery, card.recovery, label);
      expect_same_pipeline(status[s].pipeline,
                           card.backend->pipeline_stats(), label);
      EXPECT_EQ(status[s].health,
                lost ? HealthState::Degraded : HealthState::Healthy)
          << label;
      events += status[s].fault_events;
    }
    EXPECT_EQ(router->fault_log(), merged_log) << mode;
    // The faults were real: injected, and (with checks on) detected.
    EXPECT_GT(events, 0u) << mode;
    RecoveryStats fleet;
    for (const ShardStatus& card : status) fleet.merge(card.recovery);
    if (lost) {
      EXPECT_GT(fleet.fallbacks, 0u) << mode;
    } else {
      EXPECT_GT(fleet.spot_checks, 0u) << mode;
      if (verify) {
        EXPECT_GT(fleet.crc_faults, 0u) << mode;
      }
    }
  }

  // A backend over a card's window accounts only: the router scans.
  HostConfig config;
  ReferenceStore store;
  store.upload(packed, false);
  const std::unique_ptr<ScanBackend> card =
      make_backend(BackendKind::HwSim, config, store, StoreWindow{0, 3000});
  EXPECT_THROW(card->scan_batch(queries, thresholds, false, nullptr),
               std::logic_error);
}

// --- stats aggregation ---------------------------------------------------

TEST(ShardStats, PipelineAggregatesAcrossShards) {
  util::Xoshiro256 rng{1222};
  const NucleotideSequence ref = bio::random_dna(16000, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t i = 0; i < 8; ++i)
    queries.push_back(bio::random_protein(6 + i % 4, rng));

  Engine engine{sharded_config(BackendKind::HwSim, 4)};
  engine.upload_reference(NucleotideSequence{ref});
  Expected<BatchReport> batch = engine.align_batch_sync(queries, 0.5);
  ASSERT_TRUE(batch.has_value());

  const DevicePipelineStats merged = engine.pipeline_stats();
  const std::vector<ShardStatus> status = engine.shard_status();
  ASSERT_EQ(status.size(), 4u);

  std::size_t invocations = 0, tasks = 0, pe = 0;
  double serial = 0.0, pipelined = 0.0, transfer = 0.0;
  for (const ShardStatus& shard : status) {
    invocations += shard.pipeline.invocations;
    tasks = std::max(tasks, shard.pipeline.tasks);
    pe += shard.pipeline.pe_count;
    serial += shard.pipeline.serial_s;
    transfer += shard.pipeline.transfer_s;
    pipelined = std::max(pipelined, shard.pipeline.pipelined_s);
    EXPECT_GT(shard.pipeline.invocations, 0u) << "shard " << shard.index;
  }
  EXPECT_EQ(merged.invocations, invocations);
  EXPECT_EQ(merged.tasks, tasks);
  EXPECT_EQ(merged.tasks, queries.size());
  EXPECT_EQ(merged.pe_count, pe);
  EXPECT_DOUBLE_EQ(merged.serial_s, serial);
  EXPECT_DOUBLE_EQ(merged.transfer_s, transfer);
  EXPECT_DOUBLE_EQ(merged.pipelined_s, pipelined);
  EXPECT_GT(merged.modeled_qps(), 0.0);
  EXPECT_GE(engine.shard_overhead_seconds(), 0.0);
}

}  // namespace
}  // namespace fabp::core
