#include "fabp/core/engine.hpp"

#include <gtest/gtest.h>

#include "fabp/bio/generate.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

TEST(SyncAlign, RequiresUploadedReference) {
  Engine engine;
  util::Xoshiro256 rng{161};
  // Typed error boundary: align_sync reports NoReference, value_or_throw
  // throws the exception form carrying the same payload.
  const auto result = engine.align_sync(bio::random_protein(10, rng), 0);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::NoReference);
  try {
    engine.align_sync(bio::random_protein(10, rng), 0).value_or_throw();
    FAIL() << "align without a reference must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), ErrorCode::NoReference);
  }
}

TEST(SyncAlign, SoftwareHitsBatchRejectsMismatchedThresholds) {
  util::Xoshiro256 rng{162};
  Engine engine;
  engine.upload_reference(bio::random_dna(2000, rng));
  const std::vector<ProteinSequence> queries{bio::random_protein(8, rng),
                                             bio::random_protein(9, rng)};
  const std::vector<std::uint32_t> thresholds{10};  // one short
  EXPECT_THROW(engine.software_hits_batch(queries, thresholds),
               std::invalid_argument);
}

TEST(SyncAlign, EndToEndFindsPlantedGene) {
  util::Xoshiro256 rng{163};
  const ProteinSequence protein = bio::random_protein(30, rng);
  NucleotideSequence ref = bio::random_dna(5000, rng);
  const NucleotideSequence coding = random_template_coding(protein, rng);
  for (std::size_t i = 0; i < coding.size(); ++i) ref[1234 + i] = coding[i];

  Engine engine;
  engine.upload_reference(ref);
  const HostRunReport report =
      engine.align_sync(protein, static_cast<std::uint32_t>(coding.size()))
          .value_or_throw();

  bool found = false;
  for (const Hit& h : report.hits)
    if (h.position == 1234) found = true;
  EXPECT_TRUE(found);
}

TEST(SyncAlign, ReportTimesArePositiveAndSum) {
  util::Xoshiro256 rng{167};
  Engine engine;
  engine.upload_reference(bio::random_dna(10'000, rng));
  const HostRunReport r =
      engine.align_sync(bio::random_protein(20, rng), 40).value_or_throw();
  EXPECT_GT(r.query_transfer_s, 0.0);
  EXPECT_GT(r.kernel_s, 0.0);
  EXPECT_GT(r.readback_s, 0.0);
  EXPECT_EQ(r.reference_transfer_s, 0.0);  // resident by default
  EXPECT_NEAR(r.total_s,
              r.reference_transfer_s + r.query_transfer_s + r.kernel_s +
                  r.readback_s,
              1e-12);
  EXPECT_NEAR(r.joules, r.watts * r.total_s, 1e-12);
}

TEST(SyncAlign, NonResidentReferenceChargesTransfer) {
  util::Xoshiro256 rng{173};
  HostConfig cfg;
  cfg.reference_resident = false;
  Engine engine{{.host = cfg}};
  engine.upload_reference(bio::random_dna(40'000, rng));
  const HostRunReport r =
      engine.align_sync(bio::random_protein(15, rng), 45).value_or_throw();
  EXPECT_GT(r.reference_transfer_s, 0.0);
  // 40,000 bases at 2 bits each = 10,000 packed bytes, at 12 GB/s.
  EXPECT_NEAR(r.reference_transfer_s, 10'000.0 / 12e9, 1e-9);
}

TEST(SyncAlign, EstimateScalesWithDatabaseSize) {
  util::Xoshiro256 rng{179};
  Engine engine;
  const ProteinSequence protein = bio::random_protein(50, rng);
  const HostRunReport small = engine.estimate(protein, 100, 1 << 20);
  const HostRunReport large = engine.estimate(protein, 100, 1 << 26);
  EXPECT_GT(large.kernel_s, small.kernel_s * 50);
  EXPECT_NEAR(large.kernel_s / small.kernel_s, 64.0, 2.0);
}

TEST(SyncAlign, EstimateKernelMatchesBandwidthModel) {
  util::Xoshiro256 rng{181};
  Engine engine;
  const ProteinSequence protein = bio::random_protein(50, rng);
  const std::size_t bytes = 1 << 28;  // 256 MiB packed
  const HostRunReport r = engine.estimate(protein, 120, bytes);
  const double expected =
      static_cast<double>(bytes) / r.mapping.effective_bandwidth_bps;
  EXPECT_NEAR(r.kernel_s, expected, expected * 0.02);
}

TEST(SyncAlign, BatchAlignsEveryQuery) {
  util::Xoshiro256 rng{193};
  Engine engine;
  NucleotideSequence ref = bio::random_dna(8000, rng);
  std::vector<ProteinSequence> queries;
  std::vector<std::size_t> positions;
  for (int q = 0; q < 3; ++q) {
    const ProteinSequence protein = bio::random_protein(20, rng);
    const NucleotideSequence coding = random_template_coding(protein, rng);
    const std::size_t pos = 1000 + static_cast<std::size_t>(q) * 2000;
    for (std::size_t i = 0; i < coding.size(); ++i) ref[pos + i] = coding[i];
    queries.push_back(protein);
    positions.push_back(pos);
  }
  engine.upload_reference(ref);

  const BatchReport batch =
      engine.align_batch_sync(queries, 0.95).value_or_throw();
  ASSERT_EQ(batch.per_query.size(), 3u);
  for (int q = 0; q < 3; ++q) {
    bool found = false;
    for (const Hit& h : batch.per_query[static_cast<std::size_t>(q)].hits)
      if (h.position == positions[static_cast<std::size_t>(q)]) found = true;
    EXPECT_TRUE(found) << q;
  }
  EXPECT_GE(batch.total_hits, 3u);
  EXPECT_GT(batch.queries_per_second, 0.0);
  double sum = 0;
  for (const auto& r : batch.per_query) sum += r.total_s;
  EXPECT_NEAR(batch.total_s, sum, 1e-12);
}

TEST(SyncAlign, BatchIdenticalToPerQueryAligns) {
  // align_batch_sync precomputes every hit list in one tile-fused pass
  // over the reference; the reports must nonetheless be exactly what
  // per-query align_sync produces — hits, order, and timing model
  // included.
  util::Xoshiro256 rng{194};
  for (bool both_strands : {false, true}) {
    HostConfig config;
    config.search_both_strands = both_strands;
    Engine engine{{.host = config}};
    engine.upload_reference(bio::random_dna(6000, rng));
    std::vector<ProteinSequence> queries;
    for (int q = 0; q < 5; ++q)
      queries.push_back(bio::random_protein(8 + rng.next() % 30, rng));

    const double fraction = 0.7;
    const BatchReport batch =
        engine.align_batch_sync(queries, fraction).value_or_throw();
    ASSERT_EQ(batch.per_query.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto threshold = static_cast<std::uint32_t>(
          fraction * static_cast<double>(queries[q].size() * 3));
      const HostRunReport solo =
          engine.align_sync(queries[q], threshold).value_or_throw();
      EXPECT_EQ(batch.per_query[q].hits, solo.hits) << q;
      EXPECT_EQ(batch.per_query[q].reverse_hits, solo.reverse_hits) << q;
      EXPECT_EQ(batch.per_query[q].total_s, solo.total_s) << q;
      EXPECT_EQ(batch.per_query[q].joules, solo.joules) << q;
    }
  }
}

TEST(SyncAlign, SoftwareHitsBatchMatchesPerQuery) {
  util::Xoshiro256 rng{195};
  Engine engine;
  engine.upload_reference(bio::random_dna(5000, rng));
  std::vector<ProteinSequence> queries;
  std::vector<std::uint32_t> thresholds;
  for (int q = 0; q < 6; ++q) {
    queries.push_back(bio::random_protein(5 + rng.next() % 25, rng));
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back().size() * 2));
  }
  const auto batch = engine.software_hits_batch(queries, thresholds);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(batch[q], engine.software_hits(queries[q], thresholds[q]))
        << q;

  util::ThreadPool pool{3};
  EXPECT_EQ(engine.software_hits_batch(queries, thresholds, &pool), batch);
}

TEST(SyncAlign, ReuploadInvalidatesBitscanPlanes) {
  // Regression: software scans after a re-upload must see the new
  // reference, never derived state of the old one.
  util::Xoshiro256 rng{196};
  const ProteinSequence protein = bio::random_protein(15, rng);
  const auto elements = back_translate(protein);
  const NucleotideSequence ref_a = bio::random_dna(3000, rng);
  NucleotideSequence ref_b = bio::random_dna(3000, rng);
  // Plant the gene only in B so the hit lists provably differ.
  const NucleotideSequence coding = random_template_coding(protein, rng);
  for (std::size_t i = 0; i < coding.size(); ++i) ref_b[500 + i] = coding[i];
  const auto threshold = static_cast<std::uint32_t>(elements.size());

  Engine engine;
  engine.upload_reference(ref_a);
  const auto hits_a = engine.software_hits(protein, threshold);
  engine.upload_reference(ref_b);
  const auto hits_b = engine.software_hits(protein, threshold);

  EXPECT_NE(hits_a, hits_b);
  EXPECT_EQ(hits_a, golden_hits(elements, ref_a, threshold));
  EXPECT_EQ(hits_b, golden_hits(elements, ref_b, threshold));
  bool planted_found = false;
  for (const Hit& h : hits_b)
    if (h.position == 500 && h.score == threshold) planted_found = true;
  EXPECT_TRUE(planted_found);

  // The batch path precomputes through the backend's scan_batch — check
  // it too.
  const auto batch =
      engine.align_batch_sync(std::vector{protein}, 1.0).value_or_throw();
  ASSERT_EQ(batch.per_query.size(), 1u);
  EXPECT_EQ(batch.per_query[0].hits, hits_b);
}

TEST(SyncAlign, BothStrandsFindsReverseGene) {
  util::Xoshiro256 rng{199};
  const ProteinSequence protein = bio::random_protein(25, rng);
  const NucleotideSequence coding = random_template_coding(protein, rng);

  // Plant the gene on the REVERSE strand: insert rc(coding) forward.
  NucleotideSequence ref = bio::random_dna(4000, rng);
  const NucleotideSequence rc_coding = coding.reverse_complement();
  const std::size_t pos = 1500;
  for (std::size_t i = 0; i < rc_coding.size(); ++i)
    ref[pos + i] = rc_coding[i];

  HostConfig cfg;
  cfg.search_both_strands = true;
  Engine engine{{.host = cfg}};
  engine.upload_reference(ref);
  const auto threshold = static_cast<std::uint32_t>(coding.size());
  const HostRunReport report =
      engine.align_sync(protein, threshold).value_or_throw();

  // Forward scan misses it; the reverse scan reports it at the forward
  // coordinate of the planted window.
  bool forward_found = false;
  for (const Hit& h : report.hits)
    if (h.position == pos) forward_found = true;
  EXPECT_FALSE(forward_found);

  bool reverse_found = false;
  for (const Hit& h : report.reverse_hits)
    if (h.position == pos) reverse_found = true;
  EXPECT_TRUE(reverse_found);
}

TEST(SyncAlign, BothStrandsDoublesKernelTime) {
  util::Xoshiro256 rng{211};
  const NucleotideSequence ref = bio::random_dna(50'000, rng);
  const ProteinSequence query = bio::random_protein(20, rng);

  Engine single;
  single.upload_reference(ref);
  const double one = single.align_sync(query, 55).value_or_throw().kernel_s;

  HostConfig cfg;
  cfg.search_both_strands = true;
  Engine both{{.host = cfg}};
  both.upload_reference(ref);
  const double two = both.align_sync(query, 55).value_or_throw().kernel_s;
  EXPECT_NEAR(two / one, 2.0, 0.05);
}

TEST(SyncAlign, SingleStrandReportsNoReverseHits) {
  util::Xoshiro256 rng{223};
  Engine engine;
  engine.upload_reference(bio::random_dna(2000, rng));
  const auto report =
      engine.align_sync(bio::random_protein(10, rng), 0).value_or_throw();
  EXPECT_TRUE(report.reverse_hits.empty());
}

TEST(SyncAlign, BatchEmptyIsFine) {
  Engine engine;
  util::Xoshiro256 rng{197};
  engine.upload_reference(bio::random_dna(1000, rng));
  const auto batch = engine.align_batch_sync({}, 0.9).value_or_throw();
  EXPECT_TRUE(batch.per_query.empty());
  EXPECT_EQ(batch.total_s, 0.0);
  EXPECT_EQ(batch.queries_per_second, 0.0);
}

TEST(SyncAlign, LongQueryUsesSegmentedMapping) {
  util::Xoshiro256 rng{191};
  Engine engine;
  const HostRunReport r =
      engine.estimate(bio::random_protein(250, rng), 600, 1 << 24);
  EXPECT_GT(r.mapping.segments, 1u);
}

TEST(TileScanSync, BothStrandsPooledBatchMatchesSerial) {
  // A pooled both-strand batch scan must match the serial one, and a
  // planted reverse-strand gene must still be found.
  util::Xoshiro256 rng{257};
  const ProteinSequence protein = bio::random_protein(20, rng);
  const NucleotideSequence coding = random_template_coding(protein, rng);
  NucleotideSequence ref = bio::random_dna(6000, rng);
  const NucleotideSequence rc_coding = coding.reverse_complement();
  const std::size_t pos = 2000;
  for (std::size_t i = 0; i < rc_coding.size(); ++i)
    ref[pos + i] = rc_coding[i];

  HostConfig cfg;
  cfg.search_both_strands = true;
  util::ThreadPool pool{2};
  const std::vector<ProteinSequence> queries{protein};

  Engine pooled{{.host = cfg}};
  pooled.upload_reference(ref);
  const auto with_pool =
      pooled.align_batch_sync(queries, 1.0, &pool).value_or_throw();

  Engine serial{{.host = cfg}};
  serial.upload_reference(ref);
  const auto without = serial.align_batch_sync(queries, 1.0).value_or_throw();

  ASSERT_EQ(with_pool.per_query.size(), 1u);
  EXPECT_EQ(with_pool.per_query[0].hits, without.per_query[0].hits);
  EXPECT_EQ(with_pool.per_query[0].reverse_hits,
            without.per_query[0].reverse_hits);
  bool reverse_found = false;
  for (const Hit& h : with_pool.per_query[0].reverse_hits)
    if (h.position == pos) reverse_found = true;
  EXPECT_TRUE(reverse_found);
}

}  // namespace
}  // namespace fabp::core
