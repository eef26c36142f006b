#include "fabp/core/bitscan_tiled.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fabp/util/bitops.hpp"
#include "fabp/util/thread_pool.hpp"

namespace fabp::core {

namespace {

using util::ceil_div;
using util::compress_even_bits;

// The stealing layout splits the scan into this many runs per worker:
// fine enough that one slow worker sheds load through the queue, coarse
// enough that dispatch and scratch setup stay amortised over many tiles.
constexpr std::size_t kStealingRunsPerWorker = 4;

// scan_runs picks the static layout once every worker owns at least this
// many whole tiles — the end-of-scan imbalance is then bounded by one
// tile per run, a small fraction of each worker's share.
constexpr std::size_t kStaticTilesPerWorker = 8;

// Software-prefetch distance in packed reference words: while a tile is
// being compiled, the packed words this far ahead of the compile cursor
// are prefetched (and the head of the next tile is prefetched while a
// tile is being scored), hiding the DRAM latency of the 0.25 B/base
// stream behind the plane compile + kernel compute.  64 words = 512 B =
// 8 cache lines ahead covers typical DRAM latency at the compile loop's
// consumption rate.
constexpr std::size_t kPrefetchWords = 64;

// Read-prefetch into a streaming cache level; a no-op compiler-side when
// the builtin is unavailable (the hardware prefetcher still works).
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/0);
#else
  (void)p;
#endif
}

// One tile's compiled planes: a single allocation holding all 12 kind
// planes at a fixed stride, reused across every tile of a scan.  Plane k
// lives at buffer[k * stride .. k * stride + stride); words past the
// tile's data are kept zero so kernel guard fetches read zeros (the
// kScanGuardWords padding every PlaneView promises).
struct TileScratch {
  std::vector<std::uint64_t> buffer;
  std::size_t stride = 0;

  void resize(std::size_t words_per_plane) {
    stride = words_per_plane;
    buffer.assign(kElementKindCount * stride, 0);
  }
  std::uint64_t* plane(std::size_t kind) noexcept {
    return buffer.data() + kind * stride;
  }
  PlaneView view(std::size_t positions) const noexcept {
    PlaneView v;
    for (std::size_t k = 0; k < kElementKindCount; ++k)
      v.planes[k] = buffer.data() + k * stride;
    v.size = positions;
    return v;
  }
};

// lsb/msb code-bitplane words of global word `w` straight from the packed
// store (two packed words -> one plane word; missing words decode as A).
struct CodeWord {
  std::uint64_t lsb = 0;
  std::uint64_t msb = 0;
};

CodeWord code_word(std::span<const std::uint64_t> packed,
                   std::size_t w) noexcept {
  const std::uint64_t lo = 2 * w < packed.size() ? packed[2 * w] : 0;
  const std::uint64_t hi = 2 * w + 1 < packed.size() ? packed[2 * w + 1] : 0;
  CodeWord c;
  c.lsb = compress_even_bits(lo) | (compress_even_bits(hi) << 32);
  c.msb = compress_even_bits(lo >> 1) | (compress_even_bits(hi >> 1) << 32);
  return c;
}

// Compiles the 12 element-kind planes for global words
// [first_word, first_word + data_words) into scratch indices
// [0, data_words), fusing the SWAR compaction of the 2-bit codes into
// lsb/msb bitplanes and the 12 plane formulas into one pass over the
// packed words.
// The prev1/prev2 history bits are seeded from `entry` — the code word of
// first_word - 1, which the caller either carries over from the previous
// tile of its run or (at a run boundary) re-derives from the packed store
// — so planes are bit-for-bit what the whole-reference compile produces
// for the same words.  Scratch words in [data_words, stride) are zeroed —
// the guard padding kernel fetches rely on.
//
// Returns the code word observed at global word `capture_w` (the entry
// history of the run's next tile); pass SIZE_MAX on the last tile.  The
// packed words kPrefetchWords ahead of the compile cursor are
// software-prefetched, one line per 4 plane words.
CodeWord compile_tile(std::span<const std::uint64_t> packed,
                      std::size_t ref_size, std::size_t first_word,
                      std::size_t data_words, std::size_t capture_w,
                      CodeWord entry, TileScratch& scratch) {
  const std::size_t word_count = ceil_div(ref_size, 64);
  const unsigned tail = static_cast<unsigned>(ref_size & 63);

  CodeWord prev = entry;
  CodeWord captured;
  std::uint64_t* const p = scratch.buffer.data();
  const std::size_t stride = scratch.stride;
  for (std::size_t i = 0; i < data_words; ++i) {
    const std::size_t w = first_word + i;
    if ((i & 3) == 0) {
      // The loop consumes 2 packed words per iteration; touch the line
      // kPrefetchWords packed words ahead once per 4 iterations (one
      // 64-byte line = 8 words).
      const std::size_t ahead = 2 * w + kPrefetchWords;
      if (ahead < packed.size()) prefetch_ro(packed.data() + ahead);
    }
    const CodeWord c = code_word(packed, w);
    if (w == capture_w) captured = c;
    std::uint64_t valid = ~0ULL;
    if (w + 1 == word_count && tail != 0) valid = (1ULL << tail) - 1;
    if (w >= word_count) valid = 0;

    const std::uint64_t lsb = c.lsb, msb = c.msb;
    const std::uint64_t eq_g = msb & ~lsb;
    const std::uint64_t eq_a = ~(lsb | msb) & valid;
    const std::uint64_t p1m = ((msb << 1) | (prev.msb >> 63)) & valid;
    const std::uint64_t p2m = ((msb << 2) | (prev.msb >> 62)) & valid;
    const std::uint64_t p2l = ((lsb << 2) | (prev.lsb >> 62)) & valid;

    // Type I: occurrence planes.
    p[0 * stride + i] = eq_a;
    p[1 * stride + i] = lsb & ~msb;
    p[2 * stride + i] = eq_g;
    p[3 * stride + i] = lsb & msb;
    // Type II conditions on the 2-bit code.
    p[4 * stride + i] = lsb;
    p[5 * stride + i] = valid & ~lsb;
    p[6 * stride + i] = valid & ~eq_g;
    p[7 * stride + i] = valid & ~msb;
    // Type III: history-dependent selects between the S=1 and S=0 match
    // sets (BackElement::matches, vectorised).
    p[8 * stride + i] = (p1m & eq_a) | (valid & ~p1m & ~lsb);  // Stop3
    p[9 * stride + i] = valid & ~(p2m & lsb);                  // Leu3
    p[10 * stride + i] = p2l | (valid & ~lsb);                 // Arg3
    p[11 * stride + i] = valid;                                // D

    prev = c;
  }
  // Re-zero the slack: a previous (larger) tile may have left data there,
  // and kernel guard fetches past the tile's last data word must see 0.
  for (std::size_t k = 0; k < kElementKindCount; ++k)
    std::fill(p + k * stride + data_words, p + (k + 1) * stride, 0);
  return captured;
}

// Scratch words per plane for a scan whose longest query has qlen
// elements: one tile of plane words, the inter-tile overhang a query
// straddling the edge reads, and the kernel guard fetch padding.
std::size_t stride_for(std::size_t tile_positions, std::size_t qlen) noexcept {
  return tile_positions / 64 + ceil_div(qlen + 63, 64) + 1 + kScanGuardWords;
}

}  // namespace

TileScanner::TileScanner(const bio::PackedNucleotides& packed,
                         TileScanConfig config)
    : words_{packed.words()}, size_{packed.size()} {
  tile_positions_ = std::max<std::size_t>(config.tile_positions, 1);
  tile_positions_ = 64 * ceil_div(tile_positions_, 64);
}

TileScanner::TileScanner(const bio::ReferenceDatabase& database,
                         TileScanConfig config)
    : TileScanner{database.packed(), config} {}

std::size_t TileScanner::tile_count() const noexcept {
  return tile_positions_ == 0 ? 0 : ceil_div(size_, tile_positions_);
}

std::size_t TileScanner::scan_runs(std::size_t positions,
                                   std::size_t workers) const noexcept {
  if (positions == 0 || workers <= 1 || tile_positions_ == 0) return 1;
  const std::size_t tiles = ceil_div(positions, tile_positions_);
  return tiles >= workers * kStaticTilesPerWorker
             ? std::min(tiles, workers)
             : std::min(tiles, workers * kStealingRunsPerWorker);
}

std::size_t TileScanner::scratch_bytes(
    std::size_t query_elements) const noexcept {
  return kElementKindCount * stride_for(tile_positions_, query_elements) *
         sizeof(std::uint64_t);
}

void TileScanner::range(const BitScanQuery& query, std::uint32_t threshold,
                        std::size_t begin, std::size_t end,
                        std::vector<Hit>& out) const {
  range(active_scan_kernel(), query, threshold, begin, end, out);
}

void TileScanner::range(const ScanKernel& kernel, const BitScanQuery& query,
                        std::uint32_t threshold, std::size_t begin,
                        std::size_t end, std::vector<Hit>& out) const {
  range_batch(kernel, &query, &threshold, 1, begin, end, &out);
}

void TileScanner::range_batch(const BitScanQuery* queries,
                              const std::uint32_t* thresholds,
                              std::size_t count, std::size_t begin,
                              std::size_t end, std::vector<Hit>* outs) const {
  range_batch(active_scan_kernel(), queries, thresholds, count, begin, end,
              outs);
}

void TileScanner::range_batch(const ScanKernel& kernel,
                              const BitScanQuery* queries,
                              const std::uint32_t* thresholds,
                              std::size_t count, std::size_t begin,
                              std::size_t end, std::vector<Hit>* outs) const {
  // Clamp to the widest scannable span and find the overhang-defining
  // query; queries the preamble rejects are skipped by prepare_query
  // inside the kernel.
  std::size_t max_qlen = 0;
  std::size_t scan_end = begin;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t qlen = queries[q].size();
    if (qlen == 0 || size_ < qlen || thresholds[q] > qlen) continue;
    max_qlen = std::max(max_qlen, qlen);
    scan_end = std::max(scan_end, std::min(end, size_ - qlen + 1));
  }
  if (max_qlen == 0 || begin >= scan_end) return;

  TileScratch scratch;
  scratch.resize(stride_for(tile_positions_, max_qlen));
  const std::size_t word_count = ceil_div(size_, 64);
  std::vector<std::size_t> before(count);

  // Entry history of the first tile of this span; from here on the code
  // word at each tile's entry edge is captured during the previous tile's
  // compile pass instead of re-read from the packed store — the whole
  // span (a worker's owned run in pooled scans) streams every packed word
  // exactly once, plus the inter-tile overhang.
  std::size_t pos = begin;
  CodeWord entry;  // zero at the reference start
  if ((pos >> 6) > 0) entry = code_word(words_, (pos >> 6) - 1);

  while (pos < scan_end) {
    // Tiles sit on the absolute grid, so a chunked parallel scan compiles
    // exactly the words a serial scan would for the same positions.
    const std::size_t tile_end = std::min(
        scan_end, (pos / tile_positions_ + 1) * tile_positions_);
    const std::size_t first_word = pos >> 6;
    const std::size_t local_base = first_word * 64;
    // Plane words that must hold real data: position tile_end-1 reads
    // query bits up to offset tile_end-1 + max_qlen-1.
    const std::size_t last_word =
        std::min(word_count - 1, (tile_end + max_qlen - 2) >> 6);
    const std::size_t data_words = last_word - first_word + 1;
    // Footprint invariant, checked in every build (one compare per tile):
    // the scan's working set beyond the packed store never exceeds the
    // O(tile + query) scratch it was sized for.
    if (data_words + kScanGuardWords > scratch.stride)
      throw std::logic_error{
          "TileScanner: tile scratch underestimates the working set"};
    // The next tile starts at word tile_end/64 (tile ends are 64-aligned
    // except the final clamp); its entry history is the code word just
    // before, which this tile's compile pass walks over.
    const bool last_tile = tile_end >= scan_end;
    const std::size_t capture_w =
        last_tile ? static_cast<std::size_t>(-1) : (tile_end >> 6) - 1;
    const CodeWord next_entry =
        compile_tile(words_, size_, first_word, data_words, capture_w, entry,
                     scratch);

    // While this tile is being *scored* the packed stream sits idle; pull
    // the head of the next tile's packed words in so the next compile
    // does not stall on DRAM.
    if (!last_tile) {
      const std::size_t next_first = 2 * (tile_end >> 6);
      const std::size_t limit =
          std::min(words_.size(), next_first + kPrefetchWords);
      for (std::size_t a = next_first; a < limit; a += 8)
        prefetch_ro(words_.data() + a);
    }

    // Score the tile in local coordinates (plane bit j = reference
    // position local_base + j), then rebase the appended hits; the scores
    // and the per-position order are untouched, so output is identical to
    // a whole-reference scan.
    const PlaneView view = scratch.view(size_ - local_base);
    for (std::size_t q = 0; q < count; ++q) before[q] = outs[q].size();
    kernel.range_batch(queries, thresholds, count, view, pos - local_base,
                       tile_end - local_base, outs);
    for (std::size_t q = 0; q < count; ++q)
      for (std::size_t h = before[q]; h < outs[q].size(); ++h)
        outs[q][h].position += local_base;
    pos = tile_end;
    entry = next_entry;
  }
}

std::vector<Hit> TileScanner::hits(const BitScanQuery& query,
                                   std::uint32_t threshold,
                                   util::ThreadPool* pool) const {
  return std::move(hits_batch({&query, 1}, {&threshold, 1}, pool).front());
}

std::vector<std::vector<Hit>> TileScanner::hits_batch(
    std::span<const BitScanQuery> queries,
    std::span<const std::uint32_t> thresholds, util::ThreadPool* pool) const {
  if (queries.size() != thresholds.size())
    throw std::invalid_argument{
        "TileScanner::hits_batch: one threshold per query required"};
  std::vector<std::vector<Hit>> outs(queries.size());
  if (queries.empty()) return outs;

  std::size_t positions = 0;
  for (const BitScanQuery& query : queries)
    if (!query.empty() && size_ >= query.size())
      positions = std::max(positions, size_ - query.size() + 1);
  if (positions == 0) return outs;

  const std::size_t runs =
      pool == nullptr ? 1 : scan_runs(positions, pool->size());
  if (runs <= 1) {
    range_batch(queries.data(), thresholds.data(), queries.size(), 0,
                positions, outs.data());
    return outs;
  }
  struct alignas(64) RunSlot {
    std::vector<std::vector<Hit>> hits;
  };
  std::vector<RunSlot> slots(runs);
  for (RunSlot& slot : slots)
    slot.hits = std::vector<std::vector<Hit>>(queries.size());
  pool->parallel_indexed_chunks(
      0, positions,
      [&](std::size_t c, std::size_t lo, std::size_t hi) {
        range_batch(queries.data(), thresholds.data(), queries.size(), lo, hi,
                    slots[c].hits.data());
      },
      tile_positions_, runs);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::size_t total = 0;
    for (const RunSlot& slot : slots) total += slot.hits[q].size();
    outs[q].reserve(total);
    for (const RunSlot& slot : slots)
      outs[q].insert(outs[q].end(), slot.hits[q].begin(), slot.hits[q].end());
  }
  return outs;
}

}  // namespace fabp::core
