// database_search: the full downstream-user path on a multi-record
// database — build a ReferenceDatabase (optionally from FASTA), stream a
// batch of protein queries through the modeled card, and print annotated,
// Smith-Waterman-confirmed reports per query (Fig. 1's "predict the
// functionality" output).
//
// Usage: database_search [records] [bases_per_record] [queries] [seed]
//        database_search --fasta ref.fa queries.fa

#include <cstdlib>
#include <iostream>

#include "fabp/fabp.hpp"

namespace {

using namespace fabp;

int run_fasta(const char* ref_path, const char* query_path) {
  const auto db =
      bio::ReferenceDatabase::from_fasta(bio::read_fasta_file(ref_path));
  std::vector<bio::ProteinSequence> queries;
  for (const auto& record : bio::read_fasta_file(query_path))
    queries.push_back(bio::ProteinSequence::parse(record.sequence));

  core::Engine engine;
  engine.upload_reference(db.packed());
  const auto batch = engine.align_batch_sync(queries, 0.85).value_or_throw();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto annotated =
        core::annotate_hits(batch.per_query[q].hits, db, queries[q]);
    std::cout << "query " << q << ": " << annotated.size() << " hits\n";
    for (const auto& hit : annotated)
      std::cout << "  " << core::to_string(hit, db) << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string_view{argv[1]} == "--fasta")
    return run_fasta(argv[2], argv[3]);

  const std::size_t records =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6;
  const std::size_t bases =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50'000;
  const std::size_t n_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 77;

  // Build a database of `records` "chromosomes", each with one planted
  // gene; queries are diverged fragments of random genes.
  util::Xoshiro256 rng{seed};
  bio::ReferenceDatabase db;
  std::vector<bio::ProteinSequence> genes;
  for (std::size_t r = 0; r < records; ++r) {
    bio::NucleotideSequence chromosome = bio::random_dna(bases, rng);
    const bio::ProteinSequence gene = bio::random_protein(60, rng);
    const auto coding = core::random_template_coding(gene, rng);
    const std::size_t pos = bases / 3 + rng.bounded(bases / 3);
    for (std::size_t i = 0; i < coding.size(); ++i)
      chromosome[pos + i] = coding[i];
    db.add("chr" + std::to_string(r), chromosome);
    genes.push_back(gene);
  }
  std::cout << "database: " << db.record_count() << " records, "
            << db.total_bases() << " bases ("
            << db.packed().byte_size() / 1024 << " KiB packed)\n";

  std::vector<bio::ProteinSequence> queries;
  std::vector<std::size_t> truth;
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::size_t g = rng.bounded(genes.size());
    bio::ProteinSequence fragment = genes[g].subsequence(5, 40);
    fragment = bio::mutate_protein(fragment, 0.02, rng);
    queries.push_back(std::move(fragment));
    truth.push_back(g);
  }

  core::Engine engine;
  engine.upload_reference(db.packed());
  const auto batch = engine.align_batch_sync(queries, 0.85).value_or_throw();

  std::size_t correct = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    core::AnnotateOptions opts;
    opts.min_sw_fraction = 0.5;
    const auto annotated =
        core::annotate_hits(batch.per_query[q].hits, db, queries[q], opts);
    std::cout << "\nquery " << q << " (" << queries[q].size()
              << " aa, from chr" << truth[q] << "): " << annotated.size()
              << " confirmed hits\n";
    for (const auto& hit : annotated)
      std::cout << "  " << core::to_string(hit, db) << '\n';
    if (!annotated.empty() && annotated.front().record == truth[q])
      ++correct;
  }

  std::cout << "\ntop-hit accuracy: " << correct << "/" << queries.size()
            << "; modeled card time " << util::time_text(batch.total_s)
            << " (" << batch.queries_per_second << " queries/s), energy "
            << batch.total_joules << " J\n";
  return correct == queries.size() ? 0 : 1;
}
