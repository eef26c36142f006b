#pragma once
// Tile-fused compile+scan: stream the 2-bit packed reference, not
// precompiled match planes — the one software scan path.
//
// Building the 12 match planes for a whole reference would cost ~1.5
// B/base of DRAM, ~6x the 0.25 B/base packed store FabP's hardware
// streams, plus a full-reference compile before the first hit.  The
// scanner instead walks the packed words in L2-resident tiles: for each
// tile the ISA-dispatched ScanKernel compiles the 12 element-kind planes
// into a reusable per-thread scratch buffer (a bit-compaction of the
// packed codes fused with the plane formulas into one pass, with the
// prev1/prev2 history bits carried across tile edges) and immediately
// scores the tile; the scanner then moves on, reusing the scratch.  A
// scan therefore streams 0.25 B/base from DRAM, needs no upfront compile,
// and its working set beyond the packed store is O(tile) per thread —
// independent of the reference size.
//
// Output is bit-for-bit identical (contents and order) to golden_hits
// under every kernel: tiles are scored in position order and
// per-position scores are exact, so tiling never reorders or perturbs
// hits (locked down by tests/core/bitscan_tiled_test.cpp, including
// tile-edge history and multi-record databases, and by the kernel
// differentials in tests/core/bitscan_kernels_test.cpp).

#include <cstdint>
#include <span>
#include <vector>

#include "fabp/bio/database.hpp"
#include "fabp/bio/packed.hpp"
#include "fabp/core/bitscan.hpp"

namespace fabp::core {

struct TileScanConfig {
  /// Candidate positions scored per tile; rounded up to a whole number of
  /// 64-element words (minimum one word).  The default keeps one tile's 12
  /// compiled planes (12 * 2048 words = 192 KiB) plus its packed input
  /// (32 KiB) L2-resident.
  std::size_t tile_positions = 128 * 1024;
};

/// Fused tile compile+scan over a 2-bit packed reference.  Non-owning: the
/// packed store (or database) must outlive the scanner.  All entry points
/// dispatch to the active ScanKernel unless a kernel is passed explicitly
/// (differential tests sweep every reachable ISA that way).
class TileScanner {
 public:
  TileScanner() = default;
  explicit TileScanner(const bio::PackedNucleotides& packed,
                       TileScanConfig config = {});
  /// Scans the database's concatenated guarded store — one fused pass over
  /// a whole multi-record database (record mapping via db.locate /
  /// annotate_hits).
  explicit TileScanner(const bio::ReferenceDatabase& database,
                       TileScanConfig config = {});

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t tile_positions() const noexcept { return tile_positions_; }

  /// Tiles a full scan of this reference walks.
  std::size_t tile_count() const noexcept;

  /// Contiguous tile runs a pooled scan over `positions` candidate
  /// positions splits into for `workers` threads.  Every run is a
  /// tile-aligned span owned by exactly one worker, which compiles and
  /// scores its tiles in its own scratch, carries the prev1/prev2 history
  /// across tile edges within the run, and appends hits to a
  /// cache-line-isolated per-run slot.  Once every worker owns enough
  /// whole tiles that imbalance is bounded by a small fraction of a run,
  /// the layout is static: min(tiles, workers) runs, one dispatch per
  /// worker.  Otherwise it steals: a few runs per worker drained through
  /// the pool queue, so stragglers rebalance at run granularity.  Exposed
  /// so tests can pin the layout.
  std::size_t scan_runs(std::size_t positions,
                        std::size_t workers) const noexcept;

  /// Per-thread scratch footprint of a scan whose longest query has
  /// `query_elements` elements: O(tile + query), independent of the
  /// reference size.  This (plus per-chunk hit vectors) is the entire scan
  /// working set beyond the packed store.
  std::size_t scratch_bytes(std::size_t query_elements) const noexcept;

  /// Appends hits with position in [begin, end), clamped to the valid
  /// range — a one-query range_batch.
  void range(const BitScanQuery& query, std::uint32_t threshold,
             std::size_t begin, std::size_t end, std::vector<Hit>& out) const;
  void range(const ScanKernel& kernel, const BitScanQuery& query,
             std::uint32_t threshold, std::size_t begin, std::size_t end,
             std::vector<Hit>& out) const;

  /// Batch form — every query is scored against each tile while its
  /// freshly compiled planes are hot (the ScanKernel::range_batch
  /// contract, fused over tiles).  The queries are read in place.
  void range_batch(const BitScanQuery* const* queries,
                   const std::uint32_t* thresholds, std::size_t count,
                   std::size_t begin, std::size_t end,
                   std::vector<Hit>* outs) const;
  void range_batch(const ScanKernel& kernel,
                   const BitScanQuery* const* queries,
                   const std::uint32_t* thresholds, std::size_t count,
                   std::size_t begin, std::size_t end,
                   std::vector<Hit>* outs) const;

  /// All hits with score >= threshold — identical to golden_hits on the
  /// same inputs.  With a pool, the scan splits into contiguous tile runs
  /// (see scan_runs) stitched in run order at the merge, so the output is
  /// deterministic and exactly the serial scan's.  A one-query
  /// hits_batch.
  std::vector<Hit> hits(const BitScanQuery& query, std::uint32_t threshold,
                        util::ThreadPool* pool = nullptr) const;

  /// Batch scan; element [q] equals hits(*queries[q], thresholds[q]).
  /// thresholds.size() must equal queries.size().  Takes pointers so
  /// callers holding compiled queries elsewhere (the query cache) scan
  /// them without copying.
  std::vector<std::vector<Hit>> hits_batch(
      std::span<const BitScanQuery* const> queries,
      std::span<const std::uint32_t> thresholds,
      util::ThreadPool* pool = nullptr) const;

 private:
  std::span<const std::uint64_t> words_;  // 2-bit packed reference words
  std::size_t size_ = 0;                  // reference elements
  std::size_t tile_positions_ = 0;        // multiple of 64
};

}  // namespace fabp::core
