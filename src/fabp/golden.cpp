#include "fabp/core/golden.hpp"

#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/comparator.hpp"
#include "fabp/core/hitmerge.hpp"

namespace fabp::core {

using bio::Nucleotide;

std::uint32_t golden_score_at(const std::vector<BackElement>& query,
                              const bio::NucleotideSequence& ref,
                              std::size_t position) {
  std::uint32_t score = 0;
  for (std::size_t i = 0; i < query.size(); ++i) {
    // Type III elements only occur at codon position 2 (i % 3 == 2), so
    // the i-1 / i-2 accesses never underflow for well-formed queries.
    const Nucleotide r = ref[position + i];
    const Nucleotide im1 = i >= 1 ? ref[position + i - 1] : Nucleotide::A;
    const Nucleotide im2 = i >= 2 ? ref[position + i - 2] : Nucleotide::A;
    if (query[i].matches(r, im1, im2)) ++score;
  }
  return score;
}

std::vector<Hit> golden_hits(const std::vector<BackElement>& query,
                             const bio::NucleotideSequence& ref,
                             std::uint32_t threshold) {
  std::vector<Hit> hits;
  if (query.empty() || ref.size() < query.size()) return hits;
  const std::size_t positions = ref.size() - query.size() + 1;
  for (std::size_t p = 0; p < positions; ++p) {
    const std::uint32_t score = golden_score_at(query, ref, p);
    if (score >= threshold) hits.push_back(Hit{p, score});
  }
  return hits;
}

std::vector<Hit> golden_hits_encoded(const EncodedQuery& query,
                                     const bio::NucleotideSequence& ref,
                                     std::uint32_t threshold) {
  std::vector<Hit> hits;
  if (query.empty() || ref.size() < query.size()) return hits;
  const std::size_t positions = ref.size() - query.size() + 1;
  for (std::size_t p = 0; p < positions; ++p) {
    std::uint32_t score = 0;
    for (std::size_t i = 0; i < query.size(); ++i) {
      const Nucleotide r = ref[p + i];
      const Nucleotide im1 = i >= 1 ? ref[p + i - 1] : Nucleotide::A;
      const Nucleotide im2 = i >= 2 ? ref[p + i - 2] : Nucleotide::A;
      if (comparator_eval(query[i], r, im1, im2)) ++score;
    }
    if (score >= threshold) hits.push_back(Hit{p, score});
  }
  return hits;
}

std::vector<Hit> golden_hits_parallel(const std::vector<BackElement>& query,
                                      const bio::NucleotideSequence& ref,
                                      std::uint32_t threshold,
                                      util::ThreadPool& pool) {
  if (query.empty() || ref.size() < query.size()) return {};
  const std::size_t positions = ref.size() - query.size() + 1;

  // Per-chunk slots concatenated in chunk order (merge_hit_chunks): the
  // merged output is structurally identical (contents *and* ordering) to
  // the serial scan, independent of worker scheduling.
  std::vector<std::vector<Hit>> chunks(pool.chunk_count(positions));
  pool.parallel_indexed_chunks(
      0, positions, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        std::vector<Hit>& local = chunks[c];
        for (std::size_t p = lo; p < hi; ++p) {
          const std::uint32_t score = golden_score_at(query, ref, p);
          if (score >= threshold) local.push_back(Hit{p, score});
        }
      });
  return merge_hit_chunks(chunks);
}

std::vector<Hit> align_protein(const bio::ProteinSequence& protein,
                               const bio::NucleotideSequence& ref,
                               std::uint32_t threshold) {
  // Default software path: the tiled scan (differentially pinned to the
  // scalar golden_hits oracle above).
  const bio::PackedNucleotides packed{ref};
  return TileScanner{packed}.hits(BitScanQuery{back_translate(protein)},
                                  threshold);
}

}  // namespace fabp::core
