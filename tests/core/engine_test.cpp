#include "fabp/core/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/util/benchenv.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

std::vector<ProteinSequence> make_queries(std::size_t count,
                                          util::Xoshiro256& rng) {
  std::vector<ProteinSequence> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    queries.push_back(bio::random_protein(6 + i % 6, rng));
  return queries;
}

std::uint32_t half_threshold(const ProteinSequence& query) {
  return static_cast<std::uint32_t>(query.size() * 3 / 2);
}

// The engine's core determinism contract: results of coalesced concurrent
// submission are hit-for-hit identical to sequential align_sync of the
// same queries — for every backend kind and the hw-sim LUT oracle, both
// strands on.  Submitted batches scan on the engine's scan pool, the
// sequential truth in place.  The 30 kbp reference is one default tile,
// so the pool would never split it; 2048- and 256-position tiles give 15
// and 118 tiles, which on 4 CPUs reach the stealing and the static run
// layouts of TileScanner::scan_runs.
TEST(Engine, CoalescedEqualsSequentialAllBackends) {
  util::Xoshiro256 rng{911};
  const NucleotideSequence ref = bio::random_dna(30000, rng);
  const std::vector<ProteinSequence> queries = make_queries(48, rng);
  const bio::PackedNucleotides packed{ref};
  const std::size_t cpus = util::schedulable_cpus();

  struct Case {
    BackendKind kind;
    bool lut;
  };
  for (const std::size_t tile : {std::size_t{2048}, std::size_t{256}}) {
    SCOPED_TRACE("tile_positions=" + std::to_string(tile));
    if (cpus > 1) {
      EXPECT_GT(
          TileScanner(packed, TileScanConfig{tile}).scan_runs(ref.size(), cpus),
          1u);
    }
    for (const auto [kind, lut] :
         {Case{BackendKind::HwSim, false}, Case{BackendKind::Tiled, false},
          Case{BackendKind::HwSim, true}}) {
      EngineConfig config;
      config.host.search_both_strands = true;
      config.host.accelerator.use_lut_path = lut;
      config.host.tile.tile_positions = tile;
      config.backend = kind;
      config.workers = 2;

      // Sequential truth through the same backend kind.
      Engine sequential{config};
      sequential.upload_reference(NucleotideSequence{ref});
      std::vector<std::vector<Hit>> expected_fwd, expected_rev;
      for (const ProteinSequence& query : queries) {
        Expected<HostRunReport> report =
            sequential.align_sync(query, half_threshold(query));
        ASSERT_TRUE(report.has_value()) << to_string(kind);
        expected_fwd.push_back(report->hits);
        expected_rev.push_back(report->reverse_hits);
      }

      // Concurrent submission; the workers coalesce whatever queues up.
      Engine engine{config};
      engine.upload_reference(NucleotideSequence{ref});
      std::vector<Ticket> tickets;
      tickets.reserve(queries.size());
      for (const ProteinSequence& query : queries)
        tickets.push_back(engine.submit(query, half_threshold(query)));
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        Expected<HostRunReport> report = tickets[i].wait();
        ASSERT_TRUE(report.has_value()) << to_string(kind) << " query " << i;
        EXPECT_EQ(report->hits, expected_fwd[i])
            << to_string(kind) << " query " << i;
        EXPECT_EQ(report->reverse_hits, expected_rev[i])
            << to_string(kind) << " query " << i;
      }

      const EngineStats stats = engine.stats();
      EXPECT_EQ(stats.submitted, queries.size()) << to_string(kind);
      EXPECT_EQ(stats.completed, queries.size()) << to_string(kind);
      EXPECT_EQ(stats.failed + stats.cancelled + stats.expired, 0u)
          << to_string(kind);
    }
  }
}

// Holding the workers off (autostart=false) makes queue behavior exact:
// capacity bounds admissions and the overflow is rejected with QueueFull.
TEST(Engine, QueueFullRejectsWithTypedError) {
  util::Xoshiro256 rng{912};
  EngineConfig config;
  config.queue_capacity = 2;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  Ticket a = engine.submit(query, half_threshold(query));
  Ticket b = engine.submit(query, half_threshold(query));
  Ticket rejected = engine.submit(query, half_threshold(query));

  ASSERT_TRUE(rejected.ready());
  const Expected<HostRunReport> outcome = rejected.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::QueueFull);
  EXPECT_EQ(engine.stats().rejected, 1u);
  // A bounded wait times out while no worker runs, and returns as soon as
  // the request settles once one does.
  EXPECT_FALSE(a.ready(std::chrono::milliseconds{20}));

  engine.start();
  EXPECT_TRUE(a.ready(std::chrono::seconds{60}));
  EXPECT_TRUE(a.wait().has_value());
  EXPECT_TRUE(b.wait().has_value());
}

TEST(Engine, CancelWhileQueuedWinsDeterministically) {
  util::Xoshiro256 rng{913};
  EngineConfig config;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  Ticket ticket = engine.submit(query, half_threshold(query));
  EXPECT_TRUE(ticket.cancel());
  EXPECT_FALSE(ticket.cancel());  // second cancel loses
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::Cancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);

  // A cancelled entry must not poison the queue for later requests.
  engine.start();
  Ticket live = engine.submit(query, half_threshold(query));
  EXPECT_TRUE(live.wait().has_value());
}

TEST(Engine, DeadlinePassedWhileQueuedExpires) {
  util::Xoshiro256 rng{914};
  EngineConfig config;
  config.autostart = false;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  RequestOptions options;
  options.timeout_s = 1e-4;
  Ticket ticket = engine.submit(query, half_threshold(query), options);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  engine.start();
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(engine.stats().expired, 1u);
}

// Unit test for the second deadline checkpoint: drop_expired runs at
// device-dispatch time (after the batch won the execution lock) and must
// fail exactly the at-or-past-deadline entries, compact the batch in
// order, and bump the expired counter.
TEST(Engine, DropExpiredCompactsClaimedBatchAtDispatch) {
  const auto now = std::chrono::steady_clock::now();
  auto counters = std::make_shared<detail::EngineCounters>();
  auto make_state = [&](double offset_s, bool has_deadline) {
    auto state = std::make_shared<detail::RequestState>();
    state->counters = counters;
    state->has_deadline = has_deadline;
    if (has_deadline)
      state->deadline =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(offset_s));
    return state;
  };

  std::vector<std::shared_ptr<detail::RequestState>> batch;
  batch.push_back(make_state(-0.5, true));  // budget burned while claimed
  batch.push_back(make_state(60.0, true));  // live deadline
  batch.push_back(make_state(0.0, false));  // no deadline at all
  batch.push_back(make_state(0.0, true));   // exactly `now` counts as past
  const auto expired_a = batch[0];
  const auto live = batch[1];
  const auto unbounded = batch[2];
  const auto expired_b = batch[3];

  detail::drop_expired(batch, now);

  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], live);       // survivors keep their order
  EXPECT_EQ(batch[1], unbounded);
  EXPECT_EQ(counters->expired.load(), 2u);
  for (const auto& gone : {expired_a, expired_b}) {
    Expected<HostRunReport> outcome = gone->promise.get_future().get();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().code, ErrorCode::DeadlineExceeded);
  }
}

TEST(Engine, ShutdownFailsQueuedRequests) {
  util::Xoshiro256 rng{915};
  std::vector<Ticket> tickets;
  {
    EngineConfig config;
    config.autostart = false;
    Engine engine{config};
    engine.upload_reference(bio::random_dna(5000, rng));
    const ProteinSequence query = bio::random_protein(8, rng);
    tickets.push_back(engine.submit(query, half_threshold(query)));
    tickets.push_back(engine.submit(query, half_threshold(query)));
  }  // destroyed with both requests still queued
  for (Ticket& ticket : tickets) {
    const Expected<HostRunReport> outcome = ticket.wait();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().code, ErrorCode::ShuttingDown);
  }
}

TEST(Engine, SubmitWithoutReferenceFailsTyped) {
  Engine engine;
  const ProteinSequence query = ProteinSequence::parse("MFSRW");
  Ticket ticket = engine.submit(query, 1);
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::NoReference);
}

TEST(Engine, InvalidEngineConfigRejected) {
  EngineConfig config;
  config.workers = 0;
  EXPECT_EQ(validate_engine_config(config).code, ErrorCode::InvalidConfig);
  try {
    Engine engine{config};
    FAIL() << "invalid engine config must throw at construction";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
  }
}

// The software scans check their inputs before any backend runs: no
// reference is a logic_error, and a threshold list that does not match
// the queries is an invalid_argument even on the LUT path, which would
// otherwise read one threshold per query past the list's end.
TEST(Engine, SoftwareHitsRequireUploadedReference) {
  Engine engine;
  const ProteinSequence query = ProteinSequence::parse("MFSRW");
  const std::uint32_t threshold = 1;
  EXPECT_THROW(engine.software_hits(query, threshold), std::logic_error);
  EXPECT_THROW(engine.software_hits_batch({&query, 1}, {&threshold, 1}),
               std::logic_error);
}

TEST(Engine, SoftwareHitsBatchRejectsMismatchedThresholdsOnLutPath) {
  util::Xoshiro256 rng{917};
  EngineConfig config;
  config.host.accelerator.use_lut_path = true;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(2000, rng));
  const std::vector<ProteinSequence> queries = make_queries(3, rng);
  const std::vector<std::uint32_t> thresholds{4};  // two short
  EXPECT_THROW(engine.software_hits_batch(queries, thresholds),
               std::invalid_argument);
}

/// Threads of this process (Threads: in /proc/self/status).
std::size_t thread_count() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// Synchronous use runs on its caller: an unsharded engine serving
// align_sync, align_batch_sync without a pool and software_hits starts no
// thread (the workers and the scan pool start on the first submit).
TEST(Engine, SyncOnlyStartsNoThreads) {
  util::Xoshiro256 rng{918};
  const std::vector<ProteinSequence> queries = make_queries(4, rng);
  const std::size_t before = thread_count();
  ASSERT_GT(before, 0u);
  {
    Engine engine;
    engine.upload_reference(bio::random_dna(6000, rng));
    ASSERT_TRUE(engine.align_sync(queries.front(),
                                  half_threshold(queries.front()))
                    .has_value());
    ASSERT_TRUE(engine.align_batch_sync(queries, 0.5).has_value());
    engine.software_hits(queries.back(), half_threshold(queries.back()));
    EXPECT_LE(thread_count(), before);
  }
}

TEST(Engine, CompilerCacheServesRepeatedQueries) {
  util::Xoshiro256 rng{916};
  Engine engine;
  engine.upload_reference(bio::random_dna(5000, rng));
  const ProteinSequence query = bio::random_protein(8, rng);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(engine.align_sync(query, half_threshold(query)).has_value());
  const QueryCompilerStats stats = engine.compiler_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

// Concurrency stress: several client threads submitting, cancelling and
// waiting at once against a small queue.  Run under tsan by the check.sh
// engine leg; the invariants here are exact regardless of interleaving.
TEST(Engine, StressConcurrentSubmitCancelWait) {
  util::Xoshiro256 rng{917};
  const NucleotideSequence ref = bio::random_dna(20000, rng);
  const std::vector<ProteinSequence> queries = make_queries(8, rng);

  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_coalesce = 8;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  // Sequential truth per distinct query.
  std::vector<std::vector<Hit>> expected;
  for (const ProteinSequence& query : queries)
    expected.push_back(
        engine.align_sync(query, half_threshold(query))->hits);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> unexpected_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t q = (c * kPerClient + i) % queries.size();
        RequestOptions options;
        if (i % 7 == 3) options.timeout_s = 1e-6;  // some expire
        Ticket ticket =
            engine.submit(queries[q], half_threshold(queries[q]), options);
        const bool cancelled = (i % 5 == 2) && ticket.cancel();
        Expected<HostRunReport> outcome = ticket.wait();
        if (outcome.has_value()) {
          if (cancelled || outcome->hits != expected[q]) ++wrong;
        } else {
          const ErrorCode code = outcome.error().code;
          const bool acceptable =
              (code == ErrorCode::Cancelled && cancelled) ||
              code == ErrorCode::DeadlineExceeded ||
              code == ErrorCode::QueueFull;
          if (!acceptable) ++unexpected_errors;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);
  const EngineStats stats = engine.stats();
  // Every accepted request resolved exactly once.
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled + stats.expired,
            stats.submitted);
}

// Under offered load the queue builds while the backend runs, so batches
// must actually form (this is the mechanism bench_engine measures).
TEST(Engine, CoalescingEngagesUnderBurstLoad) {
  util::Xoshiro256 rng{918};
  EngineConfig config;
  config.workers = 1;
  config.autostart = false;  // let the burst queue up deterministically
  config.queue_capacity = 512;
  Engine engine{config};
  engine.upload_reference(bio::random_dna(20000, rng));

  const std::vector<ProteinSequence> queries = make_queries(6, rng);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 64; ++i) {
    const ProteinSequence& query = queries[i % queries.size()];
    tickets.push_back(engine.submit(query, half_threshold(query)));
  }
  engine.start();
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.wait().has_value());

  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.coalesced_batches, 0u);
  EXPECT_GT(stats.batch_occupancy(), 1.0);
  EXPECT_LE(stats.largest_batch, config.max_coalesce);
}

bool default_database_degraded(const Engine& engine) {
  for (const DatabaseStatus& status : engine.database_status())
    if (status.name == Engine::kDefaultDatabase) return status.degraded;
  ADD_FAILURE() << "no default database";
  return false;
}

// A lost card has one behaviour: the hw-sim backend's degraded branch
// serves the scanned lists with zero card time and counts a fallback per
// strand, whether the request came through align_sync or submit(), on one
// card or on every card of a router.  The database reports degraded while
// its active generation's card is lost, and a new generation starts
// healthy.
TEST(Engine, DegradedCardServesAsyncLikeSync) {
  util::Xoshiro256 rng{1024};
  const NucleotideSequence ref = bio::random_dna(9000, rng);
  const ProteinSequence query = bio::random_protein(10, rng);
  const std::uint32_t threshold = half_threshold(query);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig config;
    config.host.search_both_strands = true;
    config.host.fault.transfer_fail_rate = 1.0;
    config.host.recovery.max_attempts = 1;
    config.host.recovery.degrade_after = 1;
    config.shard.shard_count = shards;
    config.shard.max_query_elements = 64;
    Engine engine{config};
    engine.upload_reference(NucleotideSequence{ref});
    EXPECT_FALSE(default_database_degraded(engine));

    ASSERT_TRUE(engine.align_sync(query, threshold).has_value());
    EXPECT_EQ(engine.health(), HealthState::Degraded);
    EXPECT_TRUE(default_database_degraded(engine));

    Expected<HostRunReport> async = engine.submit(query, threshold).wait();
    Expected<HostRunReport> sync = engine.align_sync(query, threshold);
    ASSERT_TRUE(async.has_value());
    ASSERT_TRUE(sync.has_value());
    EXPECT_FALSE(sync->hits.empty());
    EXPECT_EQ(async->hits, sync->hits);
    EXPECT_EQ(async->reverse_hits, sync->reverse_hits);

    const RecoveryStats& a = async->recovery;
    const RecoveryStats& s = sync->recovery;
    EXPECT_EQ(s.attempts, 0u);
    EXPECT_EQ(s.fallbacks, 2 * shards);  // one per strand per card
    EXPECT_TRUE(s.degraded);
    EXPECT_EQ(a.attempts, s.attempts);
    EXPECT_EQ(a.retries, s.retries);
    EXPECT_EQ(a.transfer_faults, s.transfer_faults);
    EXPECT_EQ(a.timeouts, s.timeouts);
    EXPECT_EQ(a.crc_faults, s.crc_faults);
    EXPECT_EQ(a.readback_faults, s.readback_faults);
    EXPECT_EQ(a.rescanned_tiles, s.rescanned_tiles);
    EXPECT_EQ(a.spot_checks, s.spot_checks);
    EXPECT_EQ(a.spot_check_faults, s.spot_check_faults);
    EXPECT_EQ(a.fallbacks, s.fallbacks);
    EXPECT_EQ(a.degraded, s.degraded);
    EXPECT_EQ(a.recovery_s, s.recovery_s);

    EXPECT_EQ(sync->kernel_s, 0.0);
    EXPECT_EQ(async->kernel_s, sync->kernel_s);
    EXPECT_GT(sync->watts, 0.0);
    EXPECT_EQ(async->watts, sync->watts);
    EXPECT_EQ(sync->mapping.query_elements, query.size() * 3);
    EXPECT_EQ(async->mapping.query_elements, sync->mapping.query_elements);
    EXPECT_EQ(async->mapping.segments, sync->mapping.segments);
    EXPECT_EQ(async->mapping.channels, sync->mapping.channels);
    EXPECT_EQ(async->mapping.lut_util, sync->mapping.lut_util);

    engine.upload_reference(NucleotideSequence{ref});
    EXPECT_EQ(engine.health(), HealthState::Healthy);
    EXPECT_FALSE(default_database_degraded(engine));
  }
}

}  // namespace
}  // namespace fabp::core
