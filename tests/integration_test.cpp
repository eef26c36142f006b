// End-to-end integration tests across the full stack: synthetic database
// -> host engine (FabP cycle simulator) -> hits, cross-checked against the
// golden model, the GPU functional stand-in, TBLASTN and Smith-Waterman.

#include <gtest/gtest.h>

#include "fabp/fabp.hpp"

namespace fabp {
namespace {

using bio::NucleotideSequence;
using bio::ProteinSequence;

struct Workload {
  bio::SyntheticDatabase db;
  ProteinSequence query;
  std::size_t gene_pos = 0;
};

Workload make_workload(std::size_t db_bases, std::size_t gene_len,
                       std::size_t query_len, std::uint64_t seed) {
  bio::DatabaseSpec spec;
  spec.total_bases = db_bases;
  spec.gene_count = 4;
  spec.gene_length = gene_len;
  spec.seed = seed;
  Workload w{bio::SyntheticDatabase::build(spec), {}, 0};
  const auto& gene = w.db.genes[1];
  w.query = gene.protein.subsequence(3, query_len);
  w.gene_pos = gene.dna_position + 9;  // 3 residues * 3 bases
  return w;
}

TEST(Integration, FabpEngineAgreesWithGoldenModel) {
  const Workload w = make_workload(40'000, 60, 30, 301);
  const auto threshold =
      static_cast<std::uint32_t>(w.query.size() * 3 * 8 / 10);

  core::Engine engine;
  engine.upload_reference(w.db.dna);
  const core::HostRunReport report =
      engine.align_sync(w.query, threshold).value_or_throw();

  const auto golden =
      core::golden_hits(core::back_translate(w.query), w.db.dna, threshold);
  EXPECT_EQ(report.hits, golden);
}

TEST(Integration, FabpFindsThePlantedGeneAtItsPosition) {
  const Workload w = make_workload(40'000, 60, 30, 303);
  // The planted coding sequence may contain AGY serines (biological codon
  // choice); allow up to 2 lost elements per serine.
  std::size_t sers = 0;
  for (bio::AminoAcid aa : w.query)
    if (aa == bio::AminoAcid::Ser) ++sers;
  const auto threshold =
      static_cast<std::uint32_t>(w.query.size() * 3 - 2 * sers);

  core::Engine engine;
  engine.upload_reference(w.db.dna);
  const core::HostRunReport report =
      engine.align_sync(w.query, threshold).value_or_throw();
  bool found = false;
  for (const core::Hit& h : report.hits)
    if (h.position == w.gene_pos) found = true;
  EXPECT_TRUE(found);
}

TEST(Integration, GpuFunctionalStandInFindsSamePosition) {
  // The multithreaded behavioral scan (the CUDA kernel's functional model)
  // must agree with the accelerator on the same workload.
  const Workload w = make_workload(30'000, 50, 25, 307);
  const auto threshold = static_cast<std::uint32_t>(w.query.size() * 3 / 2);

  core::Engine engine;
  engine.upload_reference(w.db.dna);
  const auto fabp_hits =
      engine.align_sync(w.query, threshold).value_or_throw().hits;

  util::ThreadPool pool{4};
  const auto gpu_hits = core::golden_hits_parallel(
      core::back_translate(w.query), w.db.dna, threshold, pool);
  EXPECT_EQ(fabp_hits, gpu_hits);
}

TEST(Integration, TblastnAndFabpAgreeOnThePlantedRegion) {
  const Workload w = make_workload(60'000, 80, 40, 311);

  // FabP.
  std::size_t sers = 0;
  for (bio::AminoAcid aa : w.query)
    if (aa == bio::AminoAcid::Ser) ++sers;
  const auto threshold =
      static_cast<std::uint32_t>(w.query.size() * 3 - 2 * sers);
  core::Engine engine;
  engine.upload_reference(w.db.dna);
  const auto fabp_hits =
      engine.align_sync(w.query, threshold).value_or_throw().hits;

  // TBLASTN.
  blast::TblastnConfig cfg;
  cfg.evalue_cutoff = 10.0;
  blast::Tblastn tblastn{w.query, cfg};
  const auto blast_result = tblastn.search(w.db.dna);

  // Both find the planted region.
  bool fabp_found = false;
  for (const core::Hit& h : fabp_hits)
    if (h.position == w.gene_pos) fabp_found = true;
  bool blast_found = false;
  for (const auto& h : blast_result.hits)
    if (h.dna_position >= w.gene_pos - 3 &&
        h.dna_position <= w.gene_pos + 3 * w.query.size())
      blast_found = true;
  EXPECT_TRUE(fabp_found);
  EXPECT_TRUE(blast_found);
}

TEST(Integration, SmithWatermanConfirmsFabpHits) {
  // For each FabP hit, nucleotide-level Smith-Waterman on the local window
  // against a representative back-translation scores at least as high as
  // the (match=+1, mismatch=0-equivalent) hit score implies.
  const Workload w = make_workload(30'000, 50, 20, 313);
  const auto elements = core::back_translate(w.query);
  const auto threshold = static_cast<std::uint32_t>(elements.size() * 9 / 10);

  core::Engine engine;
  engine.upload_reference(w.db.dna);
  const auto hits = engine.align_sync(w.query, threshold).value_or_throw().hits;
  ASSERT_FALSE(hits.empty());

  util::Xoshiro256 rng{317};
  const NucleotideSequence representative =
      core::random_template_coding(w.query, rng);
  for (const core::Hit& hit : hits) {
    const NucleotideSequence window =
        w.db.dna.subsequence(hit.position, elements.size());
    const int sw =
        align::smith_waterman_score(representative, window,
                                    align::NucleotideScoring{1, 0});
    // Degenerate matching can only accept more than one representative,
    // so SW(match=1, mismatch=0) of the representative is a lower bound
    // witness that the region is highly similar.
    EXPECT_GE(static_cast<int>(hit.score) + 6, sw) << hit.position;
  }
}

TEST(Integration, FastaRoundTripDrivesPipeline) {
  // Write the workload to FASTA, read it back, and search — exercising
  // the I/O path a downstream user would take.
  const Workload w = make_workload(20'000, 40, 20, 331);
  const std::string dir = testing::TempDir();
  bio::write_fasta_file(dir + "/ref.fa",
                        {bio::FastaRecord{"chr1", "synthetic",
                                          w.db.dna.to_string()}});
  bio::write_fasta_file(dir + "/query.fa",
                        {bio::FastaRecord{"q1", "", w.query.to_string()}});

  const auto refs = bio::read_fasta_file(dir + "/ref.fa");
  const auto queries = bio::read_fasta_file(dir + "/query.fa");
  const auto ref =
      NucleotideSequence::parse(bio::SeqKind::Dna, refs[0].sequence);
  const auto query = ProteinSequence::parse(queries[0].sequence);
  EXPECT_EQ(ref, w.db.dna);
  EXPECT_EQ(query, w.query);

  core::Engine engine;
  engine.upload_reference(ref);
  const auto threshold = static_cast<std::uint32_t>(query.size() * 3 / 2);
  EXPECT_FALSE(
      engine.align_sync(query, threshold).value_or_throw().hits.empty());
}

TEST(Integration, MutatedQueriesDegradeGracefully) {
  // Protein-level divergence lowers FabP scores roughly linearly: with
  // substitution rate p, the expected planted-hit score stays well above
  // the random background.
  const Workload w = make_workload(30'000, 60, 40, 337);
  util::Xoshiro256 rng{347};
  const auto diverged = bio::mutate_protein(w.query, 0.10, rng);

  const auto query = core::back_translate(diverged);
  const auto score =
      core::golden_score_at(query, w.db.dna, w.gene_pos);
  // 10% residue divergence costs at most ~3 elements per mutated residue.
  EXPECT_GT(score, query.size() * 6 / 10);
}

}  // namespace
}  // namespace fabp
