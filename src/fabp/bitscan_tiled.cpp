#include "fabp/core/bitscan_tiled.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bitscan_kernel_impl.hpp"
#include "fabp/util/bitops.hpp"
#include "fabp/util/thread_pool.hpp"

namespace fabp::core {

namespace {

using detail::kPrefetchWords;
using detail::prefetch_ro;
using util::ceil_div;

// The stealing layout splits the scan into this many runs per worker:
// fine enough that one slow worker sheds load through the queue, coarse
// enough that dispatch and scratch setup stay amortised over many tiles.
constexpr std::size_t kStealingRunsPerWorker = 4;

// scan_runs picks the static layout once every worker owns at least this
// many whole tiles — the end-of-scan imbalance is then bounded by one
// tile per run, a small fraction of each worker's share.
constexpr std::size_t kStaticTilesPerWorker = 8;

// One tile's compiled planes: a single allocation holding all 12 kind
// planes at a fixed stride, reused across every tile of a scan.  Plane k
// lives at buffer[k * stride .. k * stride + stride).  The buffer is left
// uninitialised: ScanKernel::compile_tile writes every word of every plane
// — data words, then zeroed slack and guard words up to the stride —
// before the kernel scores the tile, so no read sees an unwritten word.
struct TileScratch {
  std::unique_ptr<std::uint64_t[]> buffer;
  std::size_t stride = 0;

  explicit TileScratch(std::size_t words_per_plane)
      : buffer{std::make_unique_for_overwrite<std::uint64_t[]>(
            kElementKindCount * words_per_plane)},
        stride{words_per_plane} {}

  PlaneView view(std::size_t positions) const noexcept {
    PlaneView v;
    for (std::size_t k = 0; k < kElementKindCount; ++k)
      v.planes[k] = buffer.get() + k * stride;
    v.size = positions;
    return v;
  }
};

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
  const BitScanQuery* const one = &query;
  range_batch(kernel, &one, &threshold, 1, begin, end, &out);
}

void TileScanner::range_batch(const BitScanQuery* const* queries,
                              const std::uint32_t* thresholds,
                              std::size_t count, std::size_t begin,
                              std::size_t end, std::vector<Hit>* outs) const {
  range_batch(active_scan_kernel(), queries, thresholds, count, begin, end,
              outs);
}

void TileScanner::range_batch(const ScanKernel& kernel,
                              const BitScanQuery* const* queries,
                              const std::uint32_t* thresholds,
                              std::size_t count, std::size_t begin,
                              std::size_t end, std::vector<Hit>* outs) const {
  // Clamp to the widest scannable span and find the overhang-defining
  // query; queries the preamble rejects are skipped by prepare_query
  // inside the kernel.
  std::size_t max_qlen = 0;
  std::size_t scan_end = begin;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t qlen = queries[q]->size();
    if (qlen == 0 || size_ < qlen || thresholds[q] > qlen) continue;
    max_qlen = std::max(max_qlen, qlen);
    scan_end = std::max(scan_end, std::min(end, size_ - qlen + 1));
  }
  if (max_qlen == 0 || begin >= scan_end) return;

  TileScratch scratch{stride_for(tile_positions_, max_qlen)};
  const std::size_t word_count = ceil_div(size_, 64);
  std::vector<std::size_t> before(count);

  // The first tile of this span derives its entry history from the packed
  // store; from there on the code word at each tile's entry edge is
  // captured during the previous tile's compile pass instead of re-read —
  // the whole span (a worker's owned run in pooled scans) streams every
  // packed word exactly once, plus the inter-tile overhang.
  TileCompileJob job{.packed = words_.data(),
                     .packed_words = words_.size(),
                     .ref_size = size_};
  std::size_t pos = begin;
  CodeWord entry;

  while (pos < scan_end) {
    // Tiles sit on the absolute grid, so a chunked parallel scan compiles
    // exactly the words a serial scan would for the same positions.
    const std::size_t tile_end = std::min(
        scan_end, (pos / tile_positions_ + 1) * tile_positions_);
    job.first_word = pos >> 6;
    const std::size_t local_base = job.first_word * 64;
    // Plane words that must hold real data: position tile_end-1 reads
    // query bits up to offset tile_end-1 + max_qlen-1.
    const std::size_t last_word =
        std::min(word_count - 1, (tile_end + max_qlen - 2) >> 6);
    job.data_words = last_word - job.first_word + 1;
    // Footprint invariant, checked in every build (one compare per tile):
    // the scan's working set beyond the packed store never exceeds the
    // O(tile + query) scratch it was sized for.
    if (job.data_words + kScanGuardWords > scratch.stride)
      throw std::logic_error{
          "TileScanner: tile scratch underestimates the working set"};
    // The next tile starts at word tile_end/64 (tile ends are 64-aligned
    // except the final clamp); its entry history is the code word just
    // before, which this tile's compile pass walks over.
    const bool last_tile = tile_end >= scan_end;
    job.capture_w =
        last_tile ? static_cast<std::size_t>(-1) : (tile_end >> 6) - 1;
    entry = kernel.compile_tile(job, scratch.buffer.get(), scratch.stride);
    job.entry = &entry;

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
  }
}

std::vector<Hit> TileScanner::hits(const BitScanQuery& query,
                                   std::uint32_t threshold,
                                   util::ThreadPool* pool) const {
  const BitScanQuery* const one = &query;
  return std::move(hits_batch({&one, 1}, {&threshold, 1}, pool).front());
}

std::vector<std::vector<Hit>> TileScanner::hits_batch(
    std::span<const BitScanQuery* const> queries,
    std::span<const std::uint32_t> thresholds, util::ThreadPool* pool) const {
  if (queries.size() != thresholds.size())
    throw std::invalid_argument{
        "TileScanner::hits_batch: one threshold per query required"};
  std::vector<std::vector<Hit>> outs(queries.size());
  if (queries.empty()) return outs;

  std::size_t positions = 0;
  for (const BitScanQuery* query : queries)
    if (!query->empty() && size_ >= query->size())
      positions = std::max(positions, size_ - query->size() + 1);
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
