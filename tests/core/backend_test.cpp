#include "fabp/core/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/core/golden.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

std::vector<Hit> backend_forward_hits(BackendKind kind,
                                      const HostConfig& config,
                                      const ReferenceStore& store,
                                      const CompiledQuery& query,
                                      std::uint32_t threshold) {
  const std::unique_ptr<ScanBackend> backend =
      make_backend(kind, config, store);
  BackendRequest request;
  request.query = &query;
  request.threshold = threshold;
  Expected<BackendRun> run = backend->run_many({&request, 1}).front();
  EXPECT_TRUE(run.has_value()) << to_string(kind);
  return std::move(run).value().hits;
}

// Both backends implement the same functional contract: the hits of
// run_many equal the golden behavioral scan, hit for hit.
TEST(Backend, AllKindsMatchGolden) {
  util::Xoshiro256 rng{901};
  const NucleotideSequence ref = bio::random_dna(30000, rng);
  HostConfig config;
  ReferenceStore store;
  store.upload(bio::PackedNucleotides{ref}, config.search_both_strands);

  for (std::size_t q = 0; q < 4; ++q) {
    const ProteinSequence protein = bio::random_protein(7 + q, rng);
    const CompiledQueryPtr query = compile_query(protein);
    const std::uint32_t threshold =
        static_cast<std::uint32_t>(query->size() / 2);
    const std::vector<Hit> expected =
        golden_hits(query->elements, ref, threshold);
    for (const BackendKind kind :
         {BackendKind::HwSim, BackendKind::Tiled})
      EXPECT_EQ(backend_forward_hits(kind, config, store, *query, threshold),
                expected)
          << to_string(kind) << " query " << q;
  }
}

// Both strands: every backend maps the reverse-complement strand's hits to
// forward window coordinates identically (golden on the RC sequence,
// remapped, defines the truth).
TEST(Backend, ReverseStrandMappingAgreesAcrossKinds) {
  util::Xoshiro256 rng{902};
  const NucleotideSequence ref = bio::random_dna(20000, rng);
  HostConfig config;
  config.search_both_strands = true;
  ReferenceStore store;
  store.upload(bio::PackedNucleotides{ref}, true);

  const ProteinSequence protein = bio::random_protein(8, rng);
  const CompiledQueryPtr query = compile_query(protein);
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(query->size() / 2);

  const NucleotideSequence rc = ref.reverse_complement();
  std::vector<Hit> expected;
  for (const Hit& hit : golden_hits(query->elements, rc, threshold))
    expected.push_back(
        Hit{ref.size() - hit.position - query->size(), hit.score});
  std::sort(expected.begin(), expected.end());

  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    const std::unique_ptr<ScanBackend> backend =
        make_backend(kind, config, store);
    BackendRequest request;
    request.query = query.get();
    request.threshold = threshold;
    Expected<BackendRun> run = backend->run_many({&request, 1}).front();
    ASSERT_TRUE(run.has_value()) << to_string(kind);
    EXPECT_EQ(run->reverse_hits, expected) << to_string(kind);
  }
}

// scan_batch is the coalescing precompute hook: element [q] must equal the
// strand hits run() computes for (queries[q], thresholds[q]).
TEST(Backend, ScanBatchMatchesPerQueryRuns) {
  util::Xoshiro256 rng{903};
  const NucleotideSequence ref = bio::random_dna(25000, rng);
  HostConfig config;
  ReferenceStore store;
  store.upload(bio::PackedNucleotides{ref}, false);

  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t q = 0; q < 5; ++q) {
    queries.push_back(compile_query(bio::random_protein(6 + q, rng)));
    thresholds.push_back(static_cast<std::uint32_t>(queries[q]->size() / 2));
  }

  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    const std::unique_ptr<ScanBackend> backend =
        make_backend(kind, config, store);
    const auto batch = backend->scan_batch(queries, thresholds, false, nullptr);
    ASSERT_EQ(batch.size(), queries.size()) << to_string(kind);
    for (std::size_t q = 0; q < queries.size(); ++q)
      EXPECT_EQ(batch[q],
                golden_hits(queries[q]->elements, ref, thresholds[q]))
          << to_string(kind) << " query " << q;
  }
}

TEST(Backend, RunWithoutReferenceIsTypedError) {
  HostConfig config;
  ReferenceStore store;  // never uploaded
  const CompiledQueryPtr query = compile_query(
      bio::ProteinSequence::parse("MFSRW"));
  for (const BackendKind kind :
       {BackendKind::HwSim, BackendKind::Tiled}) {
    const std::unique_ptr<ScanBackend> backend =
        make_backend(kind, config, store);
    BackendRequest request;
    request.query = query.get();
    request.threshold = 1;
    const Expected<BackendRun> run = backend->run_many({&request, 1}).front();
    ASSERT_FALSE(run.has_value()) << to_string(kind);
    EXPECT_EQ(run.error().code, ErrorCode::NoReference) << to_string(kind);
  }
}

// ---------------------------------------------------------------------------
// Construction-time config validation.

TEST(HostConfigValidation, AcceptsDefaults) {
  EXPECT_EQ(validate_host_config(HostConfig{}).code, ErrorCode::None);
}

TEST(HostConfigValidation, RejectsDegenerateValues) {
  const auto rejects = [](HostConfig config) {
    const Error error = validate_host_config(config);
    EXPECT_EQ(error.code, ErrorCode::InvalidConfig) << error.message;
  };

  HostConfig zero_tile;
  zero_tile.tile.tile_positions = 0;
  rejects(zero_tile);

  HostConfig absurd_tile;
  absurd_tile.tile.tile_positions = std::size_t{1} << 31;
  rejects(absurd_tile);

  HostConfig no_bandwidth;
  no_bandwidth.pcie_bandwidth_bps = 0.0;
  rejects(no_bandwidth);

  HostConfig negative_overhead;
  negative_overhead.invoke_overhead_s = -1e-6;
  rejects(negative_overhead);

  HostConfig zero_attempts;
  zero_attempts.recovery.max_attempts = 0;
  rejects(zero_attempts);

  HostConfig absurd_attempts;
  absurd_attempts.recovery.max_attempts = 1000;
  rejects(absurd_attempts);

  HostConfig zero_degrade;
  zero_degrade.recovery.degrade_after = 0;
  rejects(zero_degrade);

  HostConfig negative_backoff;
  negative_backoff.recovery.backoff_base_s = -1.0;
  rejects(negative_backoff);

  HostConfig bad_rate;
  bad_rate.fault.drop_rate = 1.5;
  rejects(bad_rate);

  HostConfig negative_rate;
  negative_rate.fault.flip_rate = -0.1;
  rejects(negative_rate);
}

TEST(HostConfigValidation, EngineConstructorThrowsTyped) {
  HostConfig config;
  config.recovery.max_attempts = 0;
  try {
    Engine engine{{.host = config}};
    FAIL() << "invalid config must be rejected at construction";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
  }
}

}  // namespace
}  // namespace fabp::core
