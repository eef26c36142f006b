// protein_search: the paper's motivating workload (Fig. 1) end to end —
// search unknown protein queries against a nucleotide database to predict
// their function, comparing three engines on the same workload:
//   * FabP (cycle-level accelerator model),
//   * TBLASTN-like CPU pipeline,
//   * gapped Smith-Waterman spot checks on FabP's hits.
//
// Usage: protein_search [db_kbases] [n_queries] [query_len] [seed]

#include <cstdlib>
#include <iostream>

#include "fabp/fabp.hpp"
#include "fabp/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fabp;

  const std::size_t db_kbases =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  const std::size_t n_queries =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const std::size_t query_len =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 50;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 99;

  // Synthetic database with planted genes ("proteins with known function").
  bio::DatabaseSpec spec;
  spec.total_bases = db_kbases * 1000;
  spec.gene_count = 24;
  spec.gene_length = query_len + 20;
  spec.seed = seed;
  const bio::SyntheticDatabase db = bio::SyntheticDatabase::build(spec);
  std::cout << "database: " << spec.total_bases << " bases, "
            << spec.gene_count << " planted genes\n";

  // Queries: mildly diverged fragments of planted genes (homologs whose
  // function we pretend not to know).
  bio::QuerySpec qspec;
  qspec.length = query_len;
  qspec.substitution_rate = 0.03;
  qspec.seed = seed + 1;
  const bio::QuerySet queries = bio::sample_queries(db, n_queries, qspec);

  core::Engine engine;
  engine.upload_reference(db.dna);

  blast::TblastnConfig blast_cfg;
  blast_cfg.evalue_cutoff = 1e-6;

  std::size_t fabp_correct = 0, blast_correct = 0;
  double fabp_model_s = 0, blast_wall_s = 0;

  for (std::size_t q = 0; q < queries.queries.size(); ++q) {
    const bio::ProteinSequence& query = queries.queries[q];
    const auto& gene =
        db.genes[static_cast<std::size_t>(queries.source_gene[q])];

    // FabP: threshold at 85% of the elements (tolerates the divergence).
    const auto threshold =
        static_cast<std::uint32_t>(query.size() * 3 * 85 / 100);
    const core::HostRunReport fabp =
        engine.align_sync(query, threshold).value_or_throw();
    fabp_model_s += fabp.total_s;

    bool fabp_found = false;
    for (const core::Hit& hit : fabp.hits)
      if (hit.position >= gene.dna_position &&
          hit.position < gene.dna_position + gene.protein.size() * 3)
        fabp_found = true;
    if (fabp_found) ++fabp_correct;

    // TBLASTN on the same query.
    util::Timer timer;
    blast::Tblastn tblastn{query, blast_cfg};
    const blast::TblastnResult tr = tblastn.search(db.dna);
    blast_wall_s += timer.seconds();
    bool blast_found = false;
    for (const auto& hit : tr.hits)
      if (hit.dna_position >= gene.dna_position &&
          hit.dna_position < gene.dna_position + gene.protein.size() * 3)
        blast_found = true;
    if (blast_found) ++blast_correct;

    // Smith-Waterman confirmation of FabP's best hit.
    std::string sw_note = "no hit";
    if (!fabp.hits.empty()) {
      const core::Hit best = *std::max_element(
          fabp.hits.begin(), fabp.hits.end(),
          [](const core::Hit& a, const core::Hit& b) {
            return a.score < b.score;
          });
      const auto window =
          db.dna.subsequence(best.position, query.size() * 3);
      const auto frames = bio::six_frame_translate(window);
      const int sw = align::smith_waterman_score(
          query, frames[0].protein, align::SubstitutionMatrix::blosum62());
      sw_note = "SW(blosum62)=" + std::to_string(sw);
    }

    std::cout << "query " << q << " (" << query.size() << " aa): FabP "
              << (fabp_found ? "found" : "MISSED") << " ("
              << fabp.hits.size() << " hits), TBLASTN "
              << (blast_found ? "found" : "MISSED") << " (" << tr.hits.size()
              << " HSPs), " << sw_note << '\n';
  }

  std::cout << "\nrecall: FabP " << fabp_correct << "/" << n_queries
            << ", TBLASTN " << blast_correct << "/" << n_queries << '\n';
  std::cout << "modeled FabP card time " << util::time_text(fabp_model_s)
            << " vs measured TBLASTN wall time "
            << util::time_text(blast_wall_s) << " (single host thread)\n";
  return 0;
}
