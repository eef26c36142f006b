#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"

// Versioned multi-tenant reference management (DESIGN.md §4g): named
// databases, typed admission errors, weighted fair-share dequeue,
// hot-swap-under-load determinism and epoch-style reclamation.  The
// check.sh tenant leg runs this binary under tsan; every assertion here
// is interleaving-independent.

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

const DatabaseStatus& find_database(const std::vector<DatabaseStatus>& all,
                                    const std::string& name) {
  for (const DatabaseStatus& db : all)
    if (db.name == name) return db;
  throw std::runtime_error("no database status for " + name);
}

const TenantStatus& find_tenant(const std::vector<TenantStatus>& all,
                                const std::string& name) {
  for (const TenantStatus& tenant : all)
    if (tenant.name == name) return tenant;
  throw std::runtime_error("no tenant status for " + name);
}

TEST(Tenant, UnknownDatabaseFailsTyped) {
  util::Xoshiro256 rng{921};
  Engine engine;
  engine.upload_reference(bio::random_dna(5000, rng));

  RequestOptions options;
  options.database = "no-such-db";
  const ProteinSequence query = bio::random_protein(8, rng);
  Ticket ticket = engine.submit(query, half_threshold(query), options);
  ASSERT_TRUE(ticket.ready());
  const Expected<HostRunReport> outcome = ticket.wait();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::UnknownDatabase);
}

// Requests carry a database name and are answered from that database's
// snapshot — two references resident at once, routed per request.
TEST(Tenant, RequestsRouteByDatabaseName) {
  util::Xoshiro256 rng{922};
  const NucleotideSequence ref_a = bio::random_dna(12000, rng);
  const NucleotideSequence ref_b = bio::random_dna(12000, rng);
  const ProteinSequence query = bio::random_protein(9, rng);
  const std::uint32_t threshold = half_threshold(query);

  // Sequential truth: one single-database engine per reference.
  std::vector<Hit> expected_a, expected_b;
  {
    Engine truth;
    truth.upload_reference(NucleotideSequence{ref_a});
    expected_a = truth.align_sync(query, threshold)->hits;
  }
  {
    Engine truth;
    truth.upload_reference(NucleotideSequence{ref_b});
    expected_b = truth.align_sync(query, threshold)->hits;
  }

  Engine engine;
  EXPECT_EQ(engine.upload_database("alpha", ref_a), 1u);
  EXPECT_EQ(engine.upload_database("beta", ref_b), 1u);
  EXPECT_TRUE(engine.has_database("alpha"));
  EXPECT_TRUE(engine.has_database("beta"));

  RequestOptions options;
  options.database = "alpha";
  Expected<HostRunReport> a =
      engine.submit(query, threshold, options).wait();
  options.database = "beta";
  Expected<HostRunReport> b =
      engine.submit(query, threshold, options).wait();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->hits, expected_a);
  EXPECT_EQ(b->hits, expected_b);
  EXPECT_EQ(a->generation, 1u);
  EXPECT_EQ(b->generation, 1u);
}

// A tenant's queue-depth quota bounds its own admissions without touching
// anyone else's; the refusal is typed and counted.
TEST(Tenant, QuotaExceededFailsTypedAndIsScopedToTheTenant) {
  util::Xoshiro256 rng{923};
  EngineConfig config;
  config.autostart = false;
  config.tenants = {{"paid", 4.0, 0}, {"free", 1.0, 2}};
  Engine engine{config};
  engine.upload_reference(bio::random_dna(5000, rng));

  const ProteinSequence query = bio::random_protein(8, rng);
  RequestOptions free_opts;
  free_opts.tenant = "free";
  RequestOptions paid_opts;
  paid_opts.tenant = "paid";

  std::vector<Ticket> queued;
  queued.push_back(engine.submit(query, half_threshold(query), free_opts));
  queued.push_back(engine.submit(query, half_threshold(query), free_opts));
  Ticket rejected = engine.submit(query, half_threshold(query), free_opts);
  ASSERT_TRUE(rejected.ready());
  const Expected<HostRunReport> refusal = rejected.wait();
  ASSERT_FALSE(refusal.has_value());
  EXPECT_EQ(refusal.error().code, ErrorCode::TenantQuotaExceeded);

  // The paid tenant is not affected by free's exhausted quota.
  queued.push_back(engine.submit(query, half_threshold(query), paid_opts));

  const std::vector<TenantStatus> tenants = engine.tenant_status();
  const TenantStatus& free_status = find_tenant(tenants, "free");
  EXPECT_EQ(free_status.quota, 2u);
  EXPECT_EQ(free_status.queue_depth, 2u);
  EXPECT_EQ(free_status.quota_rejections, 1u);
  EXPECT_DOUBLE_EQ(find_tenant(tenants, "paid").weight, 4.0);

  engine.start();
  for (Ticket& ticket : queued) EXPECT_TRUE(ticket.wait().has_value());
}

// Stride scheduling under backlog: with both tenants' queues non-empty,
// a weight-4 tenant is dequeued 4x as often as a weight-1 tenant at any
// instant — sampled mid-drain through tenant_status(), which snapshots
// the per-tenant dequeue counters under the queue lock.
TEST(Tenant, WeightedFairShareHoldsUnderBacklog) {
  util::Xoshiro256 rng{924};
  EngineConfig config;
  config.workers = 1;
  config.max_coalesce = 1;  // one dequeue per pick: exact stride sequence
  config.queue_capacity = 1024;
  config.autostart = false;
  config.tenants = {{"heavy", 4.0, 0}, {"light", 1.0, 0}};
  Engine engine{config};
  engine.upload_reference(bio::random_dna(20000, rng));

  const std::vector<ProteinSequence> queries = make_queries(6, rng);
  constexpr std::size_t kPerTenant = 200;
  std::vector<Ticket> tickets;
  tickets.reserve(2 * kPerTenant);
  for (std::size_t i = 0; i < kPerTenant; ++i) {
    const ProteinSequence& query = queries[i % queries.size()];
    RequestOptions options;
    options.tenant = "heavy";
    tickets.push_back(engine.submit(query, half_threshold(query), options));
    options.tenant = "light";
    tickets.push_back(engine.submit(query, half_threshold(query), options));
  }
  engine.start();

  // Sample while both tenants are still backlogged (heavy drains at
  // t = 250 total dequeues, light far later): inside the window, strict
  // stride keeps heavy's share within a small constant of 4/5 · t.
  std::size_t samples_in_window = 0;
  double worst_deviation = 0.0;
  for (int spin = 0; spin < 20000; ++spin) {
    const std::vector<TenantStatus> tenants = engine.tenant_status();
    const std::size_t heavy = find_tenant(tenants, "heavy").dequeued;
    const std::size_t light = find_tenant(tenants, "light").dequeued;
    const std::size_t total = heavy + light;
    if (total >= 2 * kPerTenant) break;
    if (total >= 25 && total <= 150) {
      ++samples_in_window;
      const double deviation =
          std::abs(static_cast<double>(heavy) -
                   0.8 * static_cast<double>(total));
      worst_deviation = std::max(worst_deviation, deviation);
    }
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.wait().has_value());

  ASSERT_GT(samples_in_window, 0u) << "drain outran the sampler";
  // A weight-blind FIFO over the alternating submission order would sit
  // at 0.5 · t (deviation ~45 at t = 150); stride stays within ±4.
  EXPECT_LE(worst_deviation, 4.0);
}

// Epoch-style reclamation, deterministically: queued requests pin the
// generation they were admitted under; a swap retires it but cannot
// reclaim it until the last of those requests settles.  The tickets stay
// alive throughout — settling, not Ticket destruction, releases the pin.
TEST(Tenant, RetiredGenerationReclaimsWhenLastRequestSettles) {
  util::Xoshiro256 rng{925};
  EngineConfig config;
  config.autostart = false;
  Engine engine{config};
  const NucleotideSequence ref1 = bio::random_dna(8000, rng);
  const NucleotideSequence ref2 = bio::random_dna(8000, rng);
  engine.upload_reference(NucleotideSequence{ref1});  // generation 1

  const ProteinSequence query = bio::random_protein(8, rng);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i)
    tickets.push_back(engine.submit(query, half_threshold(query)));

  engine.upload_reference(NucleotideSequence{ref2});  // generation 2

  {
    const DatabaseStatus db =
        find_database(engine.database_status(), Engine::kDefaultDatabase);
    EXPECT_EQ(db.active_generation, 2u);
    EXPECT_EQ(db.swaps, 2u);
    // The empty generation 0 was reclaimed by the first upload; the
    // queued requests still pin generation 1.
    EXPECT_EQ(db.reclaimed_generations, 1u);
    bool retired_gen1_pinned = false;
    for (const VersionedStore::GenerationStatus& gen : db.generations)
      if (gen.generation == 1 && !gen.active && gen.pins > 0)
        retired_gen1_pinned = true;
    EXPECT_TRUE(retired_gen1_pinned);
  }

  engine.start();
  for (Ticket& ticket : tickets) {
    const Expected<HostRunReport> outcome = ticket.wait();
    ASSERT_TRUE(outcome.has_value());
    // Admitted under generation 1, served by generation 1 — the swap in
    // between must not move the request.
    EXPECT_EQ(outcome->generation, 1u);
  }

  // All four settled (tickets still alive).  The worker drops the last
  // batch pin moments after fulfilling the last promise; poll briefly.
  bool reclaimed = false;
  for (int spin = 0; spin < 10000 && !reclaimed; ++spin) {
    const DatabaseStatus db =
        find_database(engine.database_status(), Engine::kDefaultDatabase);
    reclaimed = db.reclaimed_generations >= 2;
    if (!reclaimed) std::this_thread::sleep_for(std::chrono::microseconds{500});
  }
  EXPECT_TRUE(reclaimed)
      << "generation 1 still pinned after its last request settled";
}

// Hot swap under concurrent load: every response is hit-for-hit identical
// to a sequential run against the generation it was admitted under, for
// the software-tiled, hw-sim and sharded backends.  `tile_positions` 0
// keeps the default tile, under which the 16 kbp references are one tile
// and the engine's pooled scan never splits.
void swap_under_load_case(BackendKind kind, std::size_t shards,
                          std::size_t tile_positions = 0) {
  util::Xoshiro256 rng{926};
  const NucleotideSequence ref1 = bio::random_dna(16000, rng);
  const NucleotideSequence ref2 = bio::random_dna(16000, rng);
  const std::vector<ProteinSequence> queries = make_queries(8, rng);

  EngineConfig config;
  config.backend = kind;
  config.shard.shard_count = shards;
  config.workers = 2;
  config.host.search_both_strands = true;
  if (tile_positions != 0) config.host.tile.tile_positions = tile_positions;

  // Per-generation sequential truth.
  std::vector<std::vector<Hit>> exp1, exp2;
  {
    Engine truth{config};
    truth.upload_reference(NucleotideSequence{ref1});
    for (const ProteinSequence& query : queries)
      exp1.push_back(truth.align_sync(query, half_threshold(query))->hits);
  }
  {
    Engine truth{config};
    truth.upload_reference(NucleotideSequence{ref2});
    for (const ProteinSequence& query : queries)
      exp2.push_back(truth.align_sync(query, half_threshold(query))->hits);
  }

  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref1});

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 30;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> served_gen1{0};
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t q =
            (i * 2654435761u) % queries.size();  // decorrelate clients
        Ticket ticket =
            engine.submit(queries[q], half_threshold(queries[q]));
        const Expected<HostRunReport> outcome = ticket.wait();
        if (!outcome.has_value()) {
          ++errors;
          continue;
        }
        const std::vector<std::vector<Hit>>& expected =
            outcome->generation == 1 ? exp1 : exp2;
        if (outcome->generation != 1 && outcome->generation != 2)
          ++wrong;
        else if (outcome->hits != expected[q])
          ++wrong;
        if (outcome->generation == 1) ++served_gen1;
        ++completed;
      }
    });
  }
  // Swap mid-flight, once a fair share of requests has gone through the
  // first generation.
  while (completed.load() < kClients * kPerClient / 3)
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  engine.upload_reference(NucleotideSequence{ref2});
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(errors.load(), 0u) << to_string(kind);
  EXPECT_EQ(wrong.load(), 0u) << to_string(kind);
  EXPECT_GT(served_gen1.load(), 0u) << to_string(kind);
  // A post-swap request is admitted under — and answered by — gen 2.
  const ProteinSequence& query = queries.front();
  const Expected<HostRunReport> fresh =
      engine.submit(query, half_threshold(query)).wait();
  ASSERT_TRUE(fresh.has_value()) << to_string(kind);
  EXPECT_EQ(fresh->generation, 2u) << to_string(kind);
  EXPECT_EQ(fresh->hits, exp2.front()) << to_string(kind);
}

TEST(Tenant, SwapUnderLoadIsHitForHitTiled) {
  swap_under_load_case(BackendKind::Tiled, 1);
}

TEST(Tenant, SwapUnderLoadIsHitForHitHwSim) {
  swap_under_load_case(BackendKind::HwSim, 1);
}

TEST(Tenant, SwapUnderLoadIsHitForHitSharded) {
  swap_under_load_case(BackendKind::HwSim, 4);
}

// At a 256-position tile every pooled scan splits into tile runs (63
// tiles unsharded, 16 per card at 4 shards) while generations swap
// underneath: the runs read the batch's pinned snapshot only.
TEST(Tenant, SwapUnderLoadIsHitForHitSmallTile) {
  swap_under_load_case(BackendKind::HwSim, 1, 256);
  swap_under_load_case(BackendKind::HwSim, 4, 256);
}

}  // namespace
}  // namespace fabp::core
