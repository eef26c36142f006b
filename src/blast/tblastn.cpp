#include "fabp/blast/tblastn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"

namespace fabp::blast {

TblastnStats& TblastnStats::operator+=(const TblastnStats& o) noexcept {
  residues_scanned += o.residues_scanned;
  word_probes += o.word_probes;
  seed_hits += o.seed_hits;
  two_hit_pairs += o.two_hit_pairs;
  ungapped_extensions += o.ungapped_extensions;
  gapped_extensions += o.gapped_extensions;
  hsps_reported += o.hsps_reported;
  return *this;
}

namespace {
std::vector<bool> query_mask_for(const bio::ProteinSequence& query,
                                 const TblastnConfig& config) {
  return config.mask_query ? seg_mask(query, config.seg)
                           : std::vector<bool>(query.size(), false);
}

// Candidate-discovery scan of one strand: pack it to 2 bits/base and fuse
// compile+scan per tile.
std::vector<core::Hit> prefilter_scan(const core::BitScanQuery& compiled,
                                      const bio::NucleotideSequence& strand,
                                      std::uint32_t threshold) {
  const bio::PackedNucleotides packed{strand};
  return core::TileScanner{packed}.hits(compiled, threshold);
}
}  // namespace

Tblastn::Tblastn(bio::ProteinSequence query, TblastnConfig config,
                 const align::SubstitutionMatrix& matrix)
    : query_{std::move(query)},
      config_{config},
      matrix_{matrix},
      query_mask_{query_mask_for(query_, config)},
      index_{query_, config.index, matrix, &query_mask_} {}

TblastnResult Tblastn::search(const bio::NucleotideSequence& reference) const {
  if (config_.bitscan_prefilter) return search_prefiltered(reference);
  // Six-frame residue count: ~2 residues per base over both strands.
  const std::size_t db_residues = reference.size() * 2;
  return search_frames(reference, 0, db_residues);
}

TblastnResult Tblastn::search_prefiltered(
    const bio::NucleotideSequence& reference) const {
  const std::size_t qbases = 3 * query_.size();
  if (qbases == 0 || reference.size() < qbases)
    return search_frames(reference, 0, reference.size() * 2);

  // Candidate discovery: scan both strands with the bit-sliced engine at a
  // fraction of the full back-translated score.
  const auto elements = core::back_translate(query_);
  const auto threshold = static_cast<std::uint32_t>(std::ceil(
      config_.prefilter_fraction * static_cast<double>(elements.size())));
  const core::BitScanQuery compiled{elements};
  const std::size_t lr = reference.size();

  // Forward hit at p covers bases [p, p + qbases); a hit at p on the
  // reverse complement covers forward bases [lr - p - qbases, lr - p).
  std::vector<std::pair<std::size_t, std::size_t>> intervals;
  for (const core::Hit& hit : prefilter_scan(compiled, reference, threshold))
    intervals.emplace_back(hit.position, hit.position + qbases);
  for (const core::Hit& hit : prefilter_scan(
           compiled, reference.reverse_complement(), threshold))
    intervals.emplace_back(lr - hit.position - qbases, lr - hit.position);

  TblastnResult merged;
  if (intervals.empty()) return merged;

  // Pad, clamp, and coalesce overlapping windows.
  for (auto& [lo, hi] : intervals) {
    lo = lo > config_.prefilter_pad ? lo - config_.prefilter_pad : 0;
    hi = std::min(lr, hi + config_.prefilter_pad);
  }
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  for (const auto& [lo, hi] : intervals) {
    if (!windows.empty() && lo <= windows.back().second)
      windows.back().second = std::max(windows.back().second, hi);
    else
      windows.emplace_back(lo, hi);
  }

  // Seed only inside the candidate windows; statistics use the full
  // database size so E-values stay comparable with the unfiltered scan.
  const std::size_t db_residues = lr * 2;
  for (const auto& [lo, hi] : windows) {
    const bio::NucleotideSequence window = reference.subsequence(lo, hi - lo);
    TblastnResult local = search_frames(window, lo, db_residues);
    merged.stats += local.stats;
    merged.hits.insert(merged.hits.end(), local.hits.begin(),
                       local.hits.end());
  }

  std::sort(merged.hits.begin(), merged.hits.end(),
            [](const TblastnHit& a, const TblastnHit& b) {
              return std::tie(a.dna_position, a.query_begin, a.query_end,
                              a.score, a.frame) <
                     std::tie(b.dna_position, b.query_begin, b.query_end,
                              b.score, b.frame);
            });
  merged.hits.erase(
      std::unique(merged.hits.begin(), merged.hits.end(),
                  [](const TblastnHit& a, const TblastnHit& b) {
                    return a.dna_position == b.dna_position &&
                           a.query_begin == b.query_begin &&
                           a.query_end == b.query_end && a.score == b.score;
                  }),
      merged.hits.end());
  return merged;
}

TblastnResult Tblastn::search_frames(const bio::NucleotideSequence& reference,
                                     std::size_t dna_offset,
                                     std::size_t total_db_residues) const {
  TblastnResult result;
  const std::size_t k = index_.k();
  const std::size_t qlen = query_.size();
  if (qlen < k || reference.size() < 3) return result;

  const SearchSpace space{qlen, total_db_residues};
  const int cutoff_score =
      score_for_evalue(config_.evalue_cutoff, space, config_.stats);

  const auto frames = bio::six_frame_translate(reference);
  constexpr std::size_t kNeverSeen = std::numeric_limits<std::size_t>::max();

  for (const auto& frame : frames) {
    const auto& residues = frame.protein.residues();
    if (residues.size() < k) continue;
    result.stats.residues_scanned += residues.size();

    // Per-diagonal state: diagonal id = subject_pos - query_pos + qlen.
    const std::size_t diag_count = residues.size() + qlen + 1;
    std::vector<std::size_t> last_seed(diag_count, kNeverSeen);
    std::vector<std::size_t> extended_until(diag_count, 0);

    for (std::size_t pos = 0; pos + k <= residues.size(); ++pos) {
      ++result.stats.word_probes;
      const auto query_positions = index_.lookup(residues, pos);
      for (std::uint32_t qpos : query_positions) {
        ++result.stats.seed_hits;
        const std::size_t diag = pos - qpos + qlen;

        if (extended_until[diag] != 0 && pos < extended_until[diag])
          continue;  // already covered by a previous extension

        if (config_.two_hit) {
          const std::size_t prev = last_seed[diag];
          // Overlapping hits neither trigger nor displace the stored hit
          // (Altschul et al. 1997) — otherwise dense seeds in a strong
          // match region would keep resetting the window.
          if (prev != kNeverSeen && pos < prev + k) continue;
          last_seed[diag] = pos;
          // Require a second, non-overlapping hit within the window.
          if (prev == kNeverSeen || pos - prev > config_.two_hit_window)
            continue;
          ++result.stats.two_hit_pairs;
        }

        ++result.stats.ungapped_extensions;
        const auto ext =
            align::ungapped_extend(query_, frame.protein, qpos, pos, k,
                                   matrix_, config_.ungapped_x_drop);
        extended_until[diag] = ext.ref_end;

        int score = ext.score;
        std::size_t sbegin = ext.ref_begin, send = ext.ref_end;
        std::size_t qbegin = ext.query_begin, qend = ext.query_end;
        if (score >= config_.gapped_trigger) {
          ++result.stats.gapped_extensions;
          const int gapped = align::banded_local_score(
              query_, frame.protein, qpos, pos, config_.band, matrix_,
              config_.gaps);
          score = std::max(score, gapped);
        }
        if (score < cutoff_score) continue;

        TblastnHit hit;
        hit.frame = frame.id.frame;
        hit.query_begin = qbegin;
        hit.query_end = qend;
        hit.subject_begin = sbegin;
        hit.subject_end = send;
        hit.dna_position =
            dna_offset + frame.nucleotide_position(sbegin, reference.size());
        hit.score = score;
        hit.bits = bit_score(score, config_.stats);
        hit.evalue = evalue(score, space, config_.stats);
        result.hits.push_back(hit);
        ++result.stats.hsps_reported;
      }
    }
  }

  std::sort(result.hits.begin(), result.hits.end(),
            [](const TblastnHit& a, const TblastnHit& b) {
              return std::tie(a.frame, a.subject_begin, a.query_begin) <
                     std::tie(b.frame, b.subject_begin, b.query_begin);
            });
  return result;
}

TblastnResult Tblastn::search_parallel(
    const bio::NucleotideSequence& reference, util::ThreadPool& pool,
    std::size_t chunk_bases) const {
  const std::size_t overlap = 3 * (query_.size() + 8);
  if (reference.size() <= chunk_bases + overlap) return search(reference);

  const std::size_t db_residues = reference.size() * 2;
  std::vector<std::size_t> starts;
  for (std::size_t pos = 0; pos < reference.size(); pos += chunk_bases)
    starts.push_back(pos);

  TblastnResult merged;
  std::mutex merge_mutex;
  pool.parallel_for(0, starts.size(), [&](std::size_t c) {
    const std::size_t begin = starts[c];
    const std::size_t len =
        std::min(chunk_bases + overlap, reference.size() - begin);
    const bio::NucleotideSequence chunk = reference.subsequence(begin, len);
    TblastnResult local = search_frames(chunk, begin, db_residues);
    const std::lock_guard lock{merge_mutex};
    merged.stats += local.stats;
    merged.hits.insert(merged.hits.end(), local.hits.begin(),
                       local.hits.end());
  });

  // Deduplicate hits discovered in two overlapping chunks: identical
  // (frame-strand, dna position, query extent, score) tuples.
  std::sort(merged.hits.begin(), merged.hits.end(),
            [](const TblastnHit& a, const TblastnHit& b) {
              return std::tie(a.dna_position, a.query_begin, a.query_end,
                              a.score, a.frame) <
                     std::tie(b.dna_position, b.query_begin, b.query_end,
                              b.score, b.frame);
            });
  merged.hits.erase(
      std::unique(merged.hits.begin(), merged.hits.end(),
                  [](const TblastnHit& a, const TblastnHit& b) {
                    return a.dna_position == b.dna_position &&
                           a.query_begin == b.query_begin &&
                           a.query_end == b.query_end && a.score == b.score;
                  }),
      merged.hits.end());
  return merged;
}

align::Alignment Tblastn::align_hit(const TblastnHit& hit,
                                    const bio::NucleotideSequence& reference,
                                    std::size_t context) const {
  // Re-derive the hit's translated frame and carve a window around the
  // HSP with some slack so gapped tracebacks have room to breathe.
  const auto frames = bio::six_frame_translate(reference);
  const auto& frame = frames.at(static_cast<std::size_t>(hit.frame));
  const auto& residues = frame.protein;

  const std::size_t begin =
      hit.subject_begin > context ? hit.subject_begin - context : 0;
  const std::size_t end =
      std::min(residues.size(), hit.subject_end + context);
  const bio::ProteinSequence window =
      residues.subsequence(begin, end - begin);

  align::Alignment alignment =
      align::smith_waterman(query_, window, matrix_, config_.gaps);
  // Shift window-local subject coordinates back to frame coordinates.
  alignment.ref_begin += begin;
  alignment.ref_end += begin;
  return alignment;
}

}  // namespace fabp::blast
