// Chaos differential suite: the headline invariant of the fault layer.
// Under any *recoverable* injected fault schedule the engine's hits are
// bit-identical to a fault-free oracle run, with RecoveryStats accounting
// for every retry / re-scan / fallback; unrecoverable schedules produce
// typed errors — never crashes, never silently wrong hits.  Schedules are
// pure functions of (seed, invocation), so every assertion here replays.

#include <gtest/gtest.h>

#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

struct Workload {
  NucleotideSequence reference;
  ProteinSequence query;
  std::uint32_t threshold = 0;
};

Workload make_workload(std::size_t bases = 50'000, std::size_t aa = 20,
                       std::uint64_t seed = 9001) {
  util::Xoshiro256 rng{seed};
  Workload w;
  w.reference = bio::random_dna(bases, rng);
  w.query = bio::random_protein(aa, rng);
  // Low enough that hits are dense: corruption anywhere in the reference
  // perturbs the hit list, so silent-corruption bugs cannot hide.
  w.threshold = static_cast<std::uint32_t>(aa * 3 * 45 / 100);
  return w;
}

std::vector<Hit> oracle_hits(const Workload& w, const HostConfig& base) {
  HostConfig clean = base;
  clean.fault = hw::FaultConfig{};
  clean.recovery = RecoveryConfig{};
  Engine engine{{.host = clean}};
  engine.upload_reference(w.reference);
  return engine.align_sync(w.query, w.threshold).value_or_throw().hits;
}

TEST(ChaosRecovery, ZeroFaultPathIsUntouched) {
  const Workload w = make_workload();
  Engine engine;
  engine.upload_reference(w.reference);
  const HostRunReport report =
      engine.align_sync(w.query, w.threshold).value_or_throw();
  EXPECT_EQ(report.recovery.attempts, 1u);
  EXPECT_EQ(report.recovery.retries, 0u);
  EXPECT_EQ(report.recovery.recovery_s, 0.0);
  EXPECT_FALSE(report.recovery.degraded);
  EXPECT_TRUE(engine.fault_log().empty());
  EXPECT_EQ(engine.health(), HealthState::Healthy);
}

TEST(ChaosRecovery, BitFlipSweepMatchesOracle) {
  const Workload w = make_workload();
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  std::size_t total_crc_faults = 0;
  for (const double rate : {1e-6, 1e-5, 1e-4}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      HostConfig config;
      config.fault.seed = seed;
      config.fault.flip_rate = rate;
      Engine engine{{.host = config}};
      engine.upload_reference(w.reference);
      const HostRunReport report =
          engine.align_sync(w.query, w.threshold).value_or_throw();
      EXPECT_EQ(report.hits, golden)
          << "flip_rate=" << rate << " seed=" << seed;
      // Every detected tile was re-scanned and charged to recovery time.
      EXPECT_EQ(report.recovery.crc_faults, report.recovery.rescanned_tiles);
      if (report.recovery.rescanned_tiles > 0) {
        EXPECT_GT(report.recovery.recovery_s, 0.0);
      }
      total_crc_faults += report.recovery.crc_faults;
    }
  }
  // The sweep must actually have exercised detection (rates are chosen so
  // the high end corrupts with near-certainty).
  EXPECT_GT(total_crc_faults, 0u);
}

TEST(ChaosRecovery, DropDupStallSweepMatchesOracle) {
  const Workload w = make_workload();
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  std::size_t rescans = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    HostConfig config;
    config.fault.seed = seed;
    config.fault.drop_rate = 5e-3;
    config.fault.dup_rate = 5e-3;
    config.fault.stall_rate = 1e-2;
    Engine engine{{.host = config}};
    engine.upload_reference(w.reference);
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(report.hits, golden) << "seed=" << seed;
    rescans += report.recovery.rescanned_tiles;
  }
  EXPECT_GT(rescans, 0u);
}

TEST(ChaosRecovery, DetectionOffDeliversCorruptHits) {
  // Integrity checking is what stands between an injected flip and a wrong
  // answer: with verify_integrity off (and no spot checks), some schedule
  // in this sweep must produce hits that differ from the oracle — proving
  // the injected corruption is real, not cosmetic.
  const Workload w = make_workload();
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  bool diverged = false;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    HostConfig config;
    config.fault.seed = seed;
    config.fault.flip_rate = 1e-4;
    config.recovery.verify_integrity = false;
    Engine engine{{.host = config}};
    engine.upload_reference(w.reference);
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(report.recovery.crc_faults, 0u);  // detection disabled
    if (report.hits != golden) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ChaosRecovery, TransientTransferFailuresRetryToGolden) {
  const Workload w = make_workload(20'000);
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  std::size_t faults = 0, retries = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    HostConfig config;
    config.fault.seed = seed;
    config.fault.transfer_fail_rate = 0.4;
    Engine engine{{.host = config}};
    engine.upload_reference(w.reference);
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(report.hits, golden) << "seed=" << seed;
    // Accounting: every attempt beyond the first was a logged retry with
    // backoff charged to recovery time.
    EXPECT_EQ(report.recovery.attempts,
              report.recovery.retries + 1 + report.recovery.fallbacks);
    if (report.recovery.retries > 0) {
      EXPECT_GT(report.recovery.recovery_s, 0.0);
    }
    faults += report.recovery.transfer_faults;
    retries += report.recovery.retries;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(retries, 0u);
}

TEST(ChaosRecovery, UnrecoverableTransferYieldsTypedError) {
  const Workload w = make_workload(10'000);
  HostConfig config;
  config.fault.transfer_fail_rate = 1.0;  // every attempt fails
  config.recovery.allow_software_fallback = false;
  config.recovery.max_attempts = 3;
  Engine engine{{.host = config}};
  engine.upload_reference(w.reference);

  const auto result = engine.align_sync(w.query, w.threshold);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::TransferFailure);
  EXPECT_EQ(result.error().attempts, 3u);

  // The exception form carries the same typed payload.
  try {
    engine.align_sync(w.query, w.threshold).value_or_throw();
    FAIL() << "align must throw on an unrecoverable schedule";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::TransferFailure);
  }
}

TEST(ChaosRecovery, WatchdogTimesOutStormedKernels) {
  const Workload w = make_workload(20'000);
  // Calibrate: a clean run's kernel time bounds the deadline from below.
  Engine clean;
  clean.upload_reference(w.reference);
  const double clean_kernel =
      clean.align_sync(w.query, w.threshold).value_or_throw().kernel_s;

  HostConfig config;
  config.fault.stall_rate = 0.5;      // storm nearly every beat
  config.fault.stall_cycles = 1024;
  config.recovery.watchdog_s = clean_kernel * 1.5;
  config.recovery.allow_software_fallback = false;
  config.recovery.max_attempts = 2;
  Engine engine{{.host = config}};
  engine.upload_reference(w.reference);
  const auto result = engine.align_sync(w.query, w.threshold);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::Timeout);
}

TEST(ChaosRecovery, DegradesToSoftwareAndServesGolden) {
  const Workload w = make_workload(20'000);
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  HostConfig config;
  config.fault.transfer_fail_rate = 1.0;
  config.recovery.max_attempts = 2;
  config.recovery.degrade_after = 2;
  Engine engine{{.host = config}};
  engine.upload_reference(w.reference);

  // First two invocations exhaust their attempts and fall back; the
  // health machine then degrades the card.
  for (int i = 0; i < 2; ++i) {
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(report.hits, golden);
    EXPECT_EQ(report.recovery.fallbacks, 1u);
    EXPECT_EQ(report.recovery.attempts, 2u);
  }
  EXPECT_EQ(engine.health(), HealthState::Degraded);

  // A degraded card is skipped entirely: zero attempts, zero card
  // time, still golden hits.
  const HostRunReport degraded =
      engine.align_sync(w.query, w.threshold).value_or_throw();
  EXPECT_EQ(degraded.hits, golden);
  EXPECT_TRUE(degraded.recovery.degraded);
  EXPECT_EQ(degraded.recovery.attempts, 0u);
  EXPECT_EQ(degraded.recovery.fallbacks, 1u);
  EXPECT_EQ(degraded.kernel_s, 0.0);
}

TEST(ChaosRecovery, DegradedWithoutFallbackIsDeviceLost) {
  const Workload w = make_workload(10'000);
  HostConfig config;
  config.fault.transfer_fail_rate = 1.0;
  config.recovery.max_attempts = 1;
  config.recovery.degrade_after = 1;
  config.recovery.allow_software_fallback = false;
  Engine engine{{.host = config}};
  engine.upload_reference(w.reference);
  const auto first = engine.align_sync(w.query, w.threshold);
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, ErrorCode::TransferFailure);
  EXPECT_EQ(engine.health(), HealthState::Degraded);
  const auto second = engine.align_sync(w.query, w.threshold);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::DeviceLost);
}

TEST(ChaosRecovery, SpotCheckerCatchesCorruptionWithCrcOff) {
  // Small reference so the sampled windows cover a meaningful fraction:
  // with per-tile CRC disabled, only the golden spot-checker stands watch.
  const Workload w = make_workload(8'000);
  std::size_t checks = 0, caught = 0;
  for (const std::uint64_t seed : {41u, 42u, 43u, 44u, 45u}) {
    HostConfig config;
    config.fault.seed = seed;
    config.fault.flip_rate = 3e-4;
    config.recovery.verify_integrity = false;
    config.recovery.spot_check_samples = 48;
    Engine engine{{.host = config}};
    engine.upload_reference(w.reference);
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    checks += report.recovery.spot_checks;
    caught += report.recovery.spot_check_faults;
  }
  EXPECT_EQ(checks, 5u * 48u);
  EXPECT_GT(caught, 0u);
}

TEST(ChaosRecovery, ReadbackCorruptionIsReRead) {
  const Workload w = make_workload(20'000);
  const std::vector<Hit> golden = oracle_hits(w, HostConfig{});
  std::size_t rereads = 0;
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    HostConfig config;
    config.fault.seed = seed;
    config.fault.readback_flip_rate = 0.8;
    Engine engine{{.host = config}};
    engine.upload_reference(w.reference);
    const HostRunReport report =
        engine.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(report.hits, golden) << "seed=" << seed;
    rereads += report.recovery.readback_faults;
  }
  EXPECT_GT(rereads, 0u);
}

TEST(ChaosRecovery, FaultScheduleReplays) {
  const Workload w = make_workload(20'000);
  HostConfig config;
  config.fault.seed = 77;
  config.fault.flip_rate = 5e-5;
  config.fault.drop_rate = 2e-3;
  config.fault.stall_rate = 5e-3;
  config.fault.transfer_fail_rate = 0.2;

  Engine a{{.host = config}}, b{{.host = config}};
  a.upload_reference(w.reference);
  b.upload_reference(w.reference);
  for (int i = 0; i < 3; ++i) {
    const HostRunReport ra =
        a.align_sync(w.query, w.threshold).value_or_throw();
    const HostRunReport rb =
        b.align_sync(w.query, w.threshold).value_or_throw();
    EXPECT_EQ(ra.hits, rb.hits);
    EXPECT_EQ(ra.recovery.attempts, rb.recovery.attempts);
    EXPECT_EQ(ra.recovery.crc_faults, rb.recovery.crc_faults);
  }
  EXPECT_EQ(a.fault_log(), b.fault_log());
  EXPECT_FALSE(a.fault_log().empty());
}

TEST(ChaosRecovery, BothStrandsRecoverToGolden) {
  const Workload w = make_workload(30'000);
  HostConfig base;
  base.search_both_strands = true;
  Engine clean{{.host = base}};
  clean.upload_reference(w.reference);
  const HostRunReport golden =
      clean.align_sync(w.query, w.threshold).value_or_throw();

  HostConfig config = base;
  config.fault.seed = 99;
  config.fault.flip_rate = 1e-4;
  config.fault.drop_rate = 2e-3;
  Engine engine{{.host = config}};
  engine.upload_reference(w.reference);
  const HostRunReport report =
      engine.align_sync(w.query, w.threshold).value_or_throw();
  EXPECT_EQ(report.hits, golden.hits);
  EXPECT_EQ(report.reverse_hits, golden.reverse_hits);
  EXPECT_GE(report.recovery.attempts, 2u);  // one per strand at least
}

TEST(ChaosBatch, BatchRecoversAndAggregatesStats) {
  util::Xoshiro256 rng{8100};
  const NucleotideSequence reference = bio::random_dna(40'000, rng);
  std::vector<ProteinSequence> queries;
  for (int i = 0; i < 3; ++i)
    queries.push_back(bio::random_protein(15 + i, rng));

  Engine clean;
  clean.upload_reference(reference);
  const BatchReport golden =
      clean.align_batch_sync(queries, 0.45).value_or_throw();

  HostConfig config;
  config.fault.seed = 123;
  config.fault.flip_rate = 5e-5;
  config.fault.transfer_fail_rate = 0.2;
  Engine engine{{.host = config}};
  engine.upload_reference(reference);
  const BatchReport batch =
      engine.align_batch_sync(queries, 0.45).value_or_throw();

  ASSERT_EQ(batch.per_query.size(), golden.per_query.size());
  RecoveryStats sum;
  for (std::size_t i = 0; i < batch.per_query.size(); ++i) {
    EXPECT_EQ(batch.per_query[i].hits, golden.per_query[i].hits) << i;
    sum.merge(batch.per_query[i].recovery);
  }
  EXPECT_EQ(batch.recovery.attempts, sum.attempts);
  EXPECT_EQ(batch.recovery.retries, sum.retries);
  EXPECT_EQ(batch.recovery.crc_faults, sum.crc_faults);
  EXPECT_EQ(batch.recovery.rescanned_tiles, sum.rescanned_tiles);
  EXPECT_GE(batch.recovery.attempts, queries.size());
}

TEST(ChaosBatch, UnrecoverableBatchReturnsTypedError) {
  util::Xoshiro256 rng{8200};
  const NucleotideSequence reference = bio::random_dna(10'000, rng);
  const std::vector<ProteinSequence> queries{bio::random_protein(12, rng),
                                             bio::random_protein(12, rng)};
  HostConfig config;
  config.fault.transfer_fail_rate = 1.0;
  config.recovery.allow_software_fallback = false;
  Engine engine{{.host = config}};
  engine.upload_reference(reference);
  const auto result = engine.align_batch_sync(queries, 0.5);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::TransferFailure);
}

}  // namespace
}  // namespace fabp::core
