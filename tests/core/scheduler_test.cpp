// Device batch scheduler differential + chaos suite (DESIGN.md §4d).
//
// The scheduler's contract is that packing coalesced requests into device
// invocations, modeling them through the ping/pong DMA buffers and slicing
// the reference across PE arrays is *pure accounting*: every hit list is
// bit-identical to the golden model, and the fault schedule a fixed seed
// draws is invariant under the buffer depth.  A serial run() is a
// one-task invocation of the same pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/core/golden.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

struct Fixture {
  NucleotideSequence reference;
  ReferenceStore store;
  std::vector<CompiledQueryPtr> queries;
  std::vector<BackendRequest> requests;

  Fixture(std::uint64_t seed, std::size_t reference_bases,
          std::size_t query_count, bool both_strands) {
    util::Xoshiro256 rng{seed};
    reference = bio::random_dna(reference_bases, rng);
    store.upload(bio::PackedNucleotides{reference}, both_strands);
    for (std::size_t q = 0; q < query_count; ++q) {
      queries.push_back(compile_query(bio::random_protein(6 + q % 7, rng)));
      BackendRequest request;
      request.query = queries.back().get();
      request.threshold =
          static_cast<std::uint32_t>(queries.back()->size() / 2);
      requests.push_back(request);
    }
  }
};

std::vector<Hit> golden_forward(const Fixture& f, std::size_t q) {
  return golden_hits(f.queries[q]->elements, f.reference,
                     f.requests[q].threshold);
}

std::vector<Hit> golden_reverse_mapped(const Fixture& f, std::size_t q) {
  const NucleotideSequence rc = f.reference.reverse_complement();
  std::vector<Hit> mapped;
  for (const Hit& hit :
       golden_hits(f.queries[q]->elements, rc, f.requests[q].threshold))
    mapped.push_back(Hit{
        f.reference.size() - hit.position - f.queries[q]->size(), hit.score});
  std::sort(mapped.begin(), mapped.end());
  return mapped;
}

// The core differential: packed/double-buffered/multi-PE run_many returns
// hit lists bit-identical to the golden oracle — for every PE count and
// buffer depth, with ragged tails (11 requests against capacity 4) and
// both strands on.
TEST(DeviceScheduler, RunManyMatchesSerialAndGoldenAcrossPeAndDepth) {
  const Fixture f{931, 24000, 11, true};
  HostConfig config;
  config.search_both_strands = true;

  std::vector<std::vector<Hit>> expected_fwd, expected_rev;
  for (std::size_t q = 0; q < f.requests.size(); ++q) {
    expected_fwd.push_back(golden_forward(f, q));
    expected_rev.push_back(golden_reverse_mapped(f, q));
  }

  for (const std::size_t pe : {1u, 2u, 4u}) {
    for (const std::size_t depth : {1u, 2u}) {
      HostConfig batched = config;
      batched.device_batch.invocation_tasks = 4;
      batched.device_batch.pe_count = pe;
      batched.device_batch.buffer_depth = depth;
      const std::unique_ptr<ScanBackend> backend =
          make_backend(BackendKind::HwSim, batched, f.store);
      const auto results = backend->run_many(f.requests);
      ASSERT_EQ(results.size(), f.requests.size());
      for (std::size_t q = 0; q < results.size(); ++q) {
        ASSERT_TRUE(results[q].has_value())
            << "pe " << pe << " depth " << depth << " query " << q;
        EXPECT_EQ(results[q]->hits, expected_fwd[q])
            << "pe " << pe << " depth " << depth << " query " << q;
        EXPECT_EQ(results[q]->reverse_hits, expected_rev[q])
            << "pe " << pe << " depth " << depth << " query " << q;
      }
      const DevicePipelineStats stats = backend->pipeline_stats();
      EXPECT_EQ(stats.tasks, f.requests.size());
      EXPECT_EQ(stats.invocations, 3u);  // 4 + 4 + 3: the ragged tail
      EXPECT_EQ(stats.largest_invocation, 4u);
      EXPECT_EQ(stats.pe_count, pe);
      EXPECT_EQ(stats.buffer_depth, depth);
      EXPECT_GT(stats.pipelined_s, 0.0);
      EXPECT_GE(stats.serial_s, stats.pipelined_s);
    }
  }
}

// Precomputed strand hit lists (the engine's coalescing precompute) must
// flow through the per-PE descheduler unchanged.
TEST(DeviceScheduler, PrecomputedHitListsMatchInRunScans) {
  const Fixture f{932, 16000, 6, true};
  HostConfig config;
  config.search_both_strands = true;
  config.device_batch.invocation_tasks = 4;
  config.device_batch.pe_count = 2;

  const std::unique_ptr<ScanBackend> scanning =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto plain = scanning->run_many(f.requests);

  // Raw strand lists exactly as the engine precomputes them.
  std::vector<CompiledQueryPtr> queries = f.queries;
  std::vector<std::uint32_t> thresholds;
  for (const BackendRequest& request : f.requests)
    thresholds.push_back(request.threshold);
  const std::unique_ptr<ScanBackend> pre =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto fwd_lists = pre->scan_batch(queries, thresholds, false, nullptr);
  const auto rev_lists = pre->scan_batch(queries, thresholds, true, nullptr);

  std::vector<BackendRequest> primed = f.requests;
  for (std::size_t q = 0; q < primed.size(); ++q) {
    primed[q].forward_hits = &fwd_lists[q];
    primed[q].reverse_hits = &rev_lists[q];
  }
  const auto cached = pre->run_many(primed);
  ASSERT_EQ(cached.size(), plain.size());
  for (std::size_t q = 0; q < cached.size(); ++q) {
    ASSERT_TRUE(plain[q].has_value());
    ASSERT_TRUE(cached[q].has_value());
    EXPECT_EQ(cached[q]->hits, plain[q]->hits) << "query " << q;
    EXPECT_EQ(cached[q]->reverse_hits, plain[q]->reverse_hits)
        << "query " << q;
  }
}

TEST(DeviceScheduler, EmptyBatchReturnsEmpty) {
  const Fixture f{933, 4000, 1, false};
  const HostConfig config;
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  EXPECT_TRUE(backend->run_many({}).empty());
  EXPECT_EQ(backend->pipeline_stats().invocations, 0u);
}

// ---------------------------------------------------------------------------
// Fault-schedule invariance (the replay contract): the stream keying is a
// pure function of the invocation counter, so a fixed seed draws the same
// corrupted beats whether the pipeline runs one buffer deep or eight.

TEST(DeviceScheduler, FaultScheduleIdenticalAtBufferDepth1And8) {
  HostConfig config;
  config.search_both_strands = true;
  config.fault.seed = 0xfab5eed1;
  config.fault.flip_rate = 2e-4;       // ~10% of beats take a bit flip
  config.fault.drop_rate = 0.01;
  config.fault.dup_rate = 0.01;
  config.fault.stall_rate = 0.02;
  config.fault.readback_flip_rate = 0.3;
  // Deliver the corruption as-is: hits must then be *identically corrupt*
  // at both depths, which pins far more than the repaired case would.
  config.recovery.verify_integrity = false;
  config.device_batch.invocation_tasks = 8;

  const Fixture f{934, 20000, 19, true};
  std::vector<std::vector<Hit>> hits_at_depth1;
  std::vector<hw::FaultEvent> log_at_depth1;
  for (const std::size_t depth : {1u, 8u}) {
    HostConfig run_config = config;
    run_config.device_batch.buffer_depth = depth;
    const std::unique_ptr<ScanBackend> backend =
        make_backend(BackendKind::HwSim, run_config, f.store);
    const auto results = backend->run_many(f.requests);
    ASSERT_EQ(results.size(), f.requests.size());
    std::vector<std::vector<Hit>> hits;
    for (std::size_t q = 0; q < results.size(); ++q) {
      ASSERT_TRUE(results[q].has_value()) << "depth " << depth;
      hits.push_back(results[q]->hits);
      hits.push_back(results[q]->reverse_hits);
    }
    ASSERT_FALSE(backend->fault_log().empty());
    if (depth == 1) {
      hits_at_depth1 = std::move(hits);
      log_at_depth1 = backend->fault_log();
    } else {
      EXPECT_EQ(backend->fault_log(), log_at_depth1);
      EXPECT_EQ(hits, hits_at_depth1);
    }
  }
}

void expect_same_recovery(const RecoveryStats& a, const RecoveryStats& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transfer_faults, b.transfer_faults);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.crc_faults, b.crc_faults);
  EXPECT_EQ(a.readback_faults, b.readback_faults);
  EXPECT_EQ(a.rescanned_tiles, b.rescanned_tiles);
  EXPECT_EQ(a.spot_checks, b.spot_checks);
  EXPECT_EQ(a.spot_check_faults, b.spot_check_faults);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.recovery_s, b.recovery_s);
}

// A serial align is a one-task invocation: under a fixed fault schedule,
// Engine::align_sync and a fresh backend's run_many of the same single request
// return identical hits, recovery accounting, cycles and fault log, and
// the serial call is counted by the device-pipeline accounting.
TEST(DeviceScheduler, SerialAlignIsOneTaskInvocation) {
  HostConfig config;
  config.search_both_strands = true;
  config.fault.seed = 0xfab5eed6;
  config.fault.flip_rate = 1e-4;
  config.fault.drop_rate = 5e-3;
  config.fault.stall_rate = 1e-2;
  config.fault.transfer_fail_rate = 0.3;
  config.recovery.spot_check_samples = 2;

  const Fixture f{940, 20000, 1, true};
  const BackendRequest& request = f.requests.front();

  Engine engine{{.host = config}};
  engine.upload_reference(f.reference);
  const Expected<HostRunReport> report =
      engine.align_sync(f.queries.front()->protein, request.threshold);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(engine.pipeline_stats().invocations, 1u);
  EXPECT_EQ(engine.pipeline_stats().tasks, 1u);

  const std::unique_ptr<ScanBackend> serial =
      make_backend(BackendKind::HwSim, config, f.store);
  const std::unique_ptr<ScanBackend> batched =
      make_backend(BackendKind::HwSim, config, f.store);
  const Expected<BackendRun> one = serial->run_many({&request, 1}).front();
  const auto many = batched->run_many({&request, 1});
  ASSERT_TRUE(one.has_value());
  ASSERT_EQ(many.size(), 1u);
  ASSERT_TRUE(many.front().has_value());
  const BackendRun& packed = *many.front();

  EXPECT_EQ(report->hits, golden_forward(f, 0));
  EXPECT_EQ(report->reverse_hits, golden_reverse_mapped(f, 0));
  EXPECT_EQ(report->hits, packed.hits);
  EXPECT_EQ(report->reverse_hits, packed.reverse_hits);
  EXPECT_EQ(report->kernel_s, packed.kernel_seconds);
  expect_same_recovery(report->recovery, packed.recovery);
  EXPECT_EQ(engine.fault_log(), batched->fault_log());
  EXPECT_FALSE(batched->fault_log().empty());

  EXPECT_EQ(one->hits, packed.hits);
  EXPECT_EQ(one->reverse_hits, packed.reverse_hits);
  EXPECT_EQ(one->cycles, packed.cycles);
  expect_same_recovery(one->recovery, packed.recovery);
  EXPECT_EQ(serial->fault_log(), batched->fault_log());
  EXPECT_EQ(serial->pipeline_stats().invocations, 1u);
}

// The LUT oracle runs through the same device pipeline: its clean hit
// lists come from the element-by-element Accelerator evaluation, and the
// fault/repair machinery around them still delivers golden hits.
TEST(DeviceScheduler, LutOracleSharesTheInvocationPipeline) {
  HostConfig config;
  config.search_both_strands = true;
  config.accelerator.use_lut_path = true;
  config.fault.seed = 0xfab5eed7;
  config.fault.flip_rate = 2e-4;
  config.fault.transfer_fail_rate = 0.3;
  config.device_batch.invocation_tasks = 2;

  const Fixture f{941, 6000, 3, true};
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto results = backend->run_many(f.requests);
  ASSERT_EQ(results.size(), f.requests.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].has_value()) << "query " << q;
    EXPECT_EQ(results[q]->hits, golden_forward(f, q)) << "query " << q;
    EXPECT_EQ(results[q]->reverse_hits, golden_reverse_mapped(f, q))
        << "query " << q;
  }
  const Expected<BackendRun> serial =
      backend->run_many({&f.requests.front(), 1}).front();
  ASSERT_TRUE(serial.has_value());
  EXPECT_EQ(serial->hits, golden_forward(f, 0));
  // Two packed invocations (2 + 1 tasks), then the serial one.
  EXPECT_EQ(backend->pipeline_stats().invocations, 3u);
  EXPECT_FALSE(backend->fault_log().empty());
}

// With integrity checking and spot checks on, every injected corruption is
// detected and repaired: the batched chaos run still delivers golden hits.
TEST(DeviceScheduler, RecoveryRepairsBatchedRunsToGolden) {
  HostConfig config;
  config.search_both_strands = true;
  config.fault.seed = 0xfab5eed2;
  config.fault.flip_rate = 2e-4;
  config.fault.drop_rate = 0.005;
  config.fault.dup_rate = 0.005;
  config.fault.readback_flip_rate = 0.5;
  config.recovery.spot_check_samples = 2;
  config.device_batch.invocation_tasks = 4;
  config.device_batch.pe_count = 2;
  config.device_batch.buffer_depth = 2;

  const Fixture f{935, 20000, 10, true};
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto results = backend->run_many(f.requests);
  ASSERT_EQ(results.size(), f.requests.size());
  RecoveryStats merged;
  for (std::size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].has_value()) << "query " << q;
    EXPECT_EQ(results[q]->hits, golden_forward(f, q)) << "query " << q;
    EXPECT_EQ(results[q]->reverse_hits, golden_reverse_mapped(f, q))
        << "query " << q;
    merged.merge(results[q]->recovery);
  }
  EXPECT_FALSE(backend->fault_log().empty());
  EXPECT_GT(merged.crc_faults + merged.readback_faults, 0u);
  EXPECT_GT(merged.recovery_s, 0.0);
}

// Transient transfer failures retry the *invocation* (never the rest of
// the batch) and surface in the pipeline accounting.
TEST(DeviceScheduler, TransferFaultsRetryInvocationsAndStayGolden) {
  HostConfig config;
  config.fault.seed = 0xfab5eed3;
  config.fault.transfer_fail_rate = 0.6;
  config.recovery.max_attempts = 8;
  config.device_batch.invocation_tasks = 2;

  const Fixture f{936, 12000, 8, false};
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto results = backend->run_many(f.requests);
  ASSERT_EQ(results.size(), f.requests.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].has_value()) << "query " << q;
    EXPECT_EQ(results[q]->hits, golden_forward(f, q)) << "query " << q;
  }
  const DevicePipelineStats stats = backend->pipeline_stats();
  EXPECT_EQ(stats.invocations, 4u);
  EXPECT_GT(stats.retried_invocations, 0u);
  EXPECT_LE(stats.retried_invocations, stats.invocations);
}

// A watchdog that every attempt trips exhausts the retry budget; the
// fallback serves the prepared clean hits with zero card time.
TEST(DeviceScheduler, WatchdogExhaustionFallsBackToGoldenHits) {
  HostConfig config;
  config.fault.seed = 0xfab5eed4;
  config.fault.stall_rate = 1e-12;  // arms the chaos path, injects nothing
  config.recovery.watchdog_s = 1e-15;
  config.recovery.max_attempts = 2;
  config.device_batch.invocation_tasks = 4;

  const Fixture f{937, 10000, 4, false};
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto results = backend->run_many(f.requests);
  ASSERT_EQ(results.size(), f.requests.size());
  for (std::size_t q = 0; q < results.size(); ++q) {
    ASSERT_TRUE(results[q].has_value()) << "query " << q;
    EXPECT_EQ(results[q]->hits, golden_forward(f, q)) << "query " << q;
  }
  // Invocation-level recovery accounting rides on the first packed task.
  EXPECT_EQ(results[0]->recovery.timeouts, 2u);
  EXPECT_EQ(results[0]->recovery.fallbacks, 1u);
  EXPECT_EQ(results[0]->recovery.attempts, 2u);
}

// With the software fallback off, exhausted invocations return typed
// errors for exactly their packed tasks, and once the health machine
// degrades later invocations fail fast with DeviceLost.
TEST(DeviceScheduler, DegradationWithoutFallbackYieldsTypedErrors) {
  HostConfig config;
  config.fault.seed = 0xfab5eed5;
  config.fault.transfer_fail_rate = 1.0;
  config.recovery.max_attempts = 2;
  config.recovery.degrade_after = 2;
  config.recovery.allow_software_fallback = false;
  config.device_batch.invocation_tasks = 2;

  const Fixture f{938, 8000, 8, false};  // 4 invocations of 2 tasks
  const std::unique_ptr<ScanBackend> backend =
      make_backend(BackendKind::HwSim, config, f.store);
  const auto results = backend->run_many(f.requests);
  ASSERT_EQ(results.size(), f.requests.size());
  for (const auto& result : results) ASSERT_FALSE(result.has_value());
  // First two invocations exhaust their transfer retries...
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_EQ(results[q].error().code, ErrorCode::TransferFailure)
        << "query " << q;
  // ... which degrades the card; the rest fail fast.
  for (std::size_t q = 4; q < 8; ++q)
    EXPECT_EQ(results[q].error().code, ErrorCode::DeviceLost) << "query " << q;
  EXPECT_EQ(backend->health(), HealthState::Degraded);
}

// ---------------------------------------------------------------------------
// Engine integration: the coalescing window must fit the device pipeline,
// and the scheduler's accounting is visible through Engine::pipeline_stats.

TEST(DeviceScheduler, EngineRejectsCoalesceBeyondDeviceWindow) {
  EngineConfig config;
  config.backend = BackendKind::HwSim;
  config.max_coalesce = 64;
  config.host.device_batch.invocation_tasks = 4;
  config.host.device_batch.buffer_depth = 2;  // window = 8 < 64
  EXPECT_EQ(validate_engine_config(config).code, ErrorCode::InvalidConfig);
  try {
    Engine engine{config};
    FAIL() << "coalesce window wider than the device pipeline must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
  }

  // The cap is a device constraint: software backends are unaffected.
  config.backend = BackendKind::Tiled;
  EXPECT_EQ(validate_engine_config(config).code, ErrorCode::None);
  // And a window that fits passes for the hw-sim too.
  config.backend = BackendKind::HwSim;
  config.max_coalesce = 8;
  EXPECT_EQ(validate_engine_config(config).code, ErrorCode::None);
}

TEST(DeviceScheduler, EngineExposesPipelineStats) {
  util::Xoshiro256 rng{939};
  const NucleotideSequence ref = bio::random_dna(15000, rng);
  std::vector<ProteinSequence> queries;
  for (std::size_t q = 0; q < 6; ++q)
    queries.push_back(bio::random_protein(6 + q, rng));

  EngineConfig config;
  config.backend = BackendKind::HwSim;
  config.workers = 1;
  config.autostart = false;  // let the burst queue up so batches form
  config.queue_capacity = 64;
  Engine engine{config};
  engine.upload_reference(NucleotideSequence{ref});

  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 32; ++i) {
    const ProteinSequence& query = queries[i % queries.size()];
    tickets.push_back(
        engine.submit(query, static_cast<std::uint32_t>(query.size())));
  }
  engine.start();
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.wait().has_value());

  const DevicePipelineStats stats = engine.pipeline_stats();
  EXPECT_GT(stats.invocations, 0u);
  EXPECT_EQ(stats.tasks, 32u);
  EXPECT_EQ(stats.retried_invocations, 0u);
  EXPECT_GT(stats.pipelined_s, 0.0);
  EXPECT_GE(stats.serial_s, stats.pipelined_s);
  EXPECT_GT(stats.occupancy(), 0.0);
  EXPECT_GT(stats.modeled_qps(), 0.0);

  // Software backends run no device pipeline: stats stay all-zero.
  EngineConfig software = config;
  software.backend = BackendKind::Tiled;
  software.autostart = true;
  Engine software_engine{software};
  software_engine.upload_reference(NucleotideSequence{ref});
  ASSERT_TRUE(software_engine
                  .align_sync(queries[0],
                              static_cast<std::uint32_t>(queries[0].size()))
                  .has_value());
  EXPECT_EQ(software_engine.pipeline_stats().invocations, 0u);
  EXPECT_EQ(software_engine.pipeline_stats().pipelined_s, 0.0);
}

}  // namespace
}  // namespace fabp::core
