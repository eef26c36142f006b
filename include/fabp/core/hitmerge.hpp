#pragma once
// Chunk-ordered hit merging — the deterministic-merge step of the golden
// oracle's pooled scan.
//
// A pooled scan splits the position range into indexed chunks, lets each
// worker append its hits into a private per-chunk slot, then concatenates
// the slots *in chunk index order*.  Because the chunk layout is a pure
// function of (range, pool size, granule), the merged output is
// structurally identical — contents and ordering — to the serial scan,
// independent of worker scheduling.  TileScanner stitches its per-run
// slots by the same rule.  The merge-order contract is pinned by
// tests/core/hitmerge_test.cpp.

#include <cstddef>
#include <span>
#include <vector>

#include "fabp/core/golden.hpp"

namespace fabp::core {

/// Appends every chunk's hits to `out` in chunk index order, reserving the
/// exact total up front.  `out` need not be empty: existing hits keep their
/// place ahead of the merged chunks.
inline void merge_hit_chunks_into(std::span<const std::vector<Hit>> chunks,
                                  std::vector<Hit>& out) {
  std::size_t total = out.size();
  for (const std::vector<Hit>& chunk : chunks) total += chunk.size();
  out.reserve(total);
  for (const std::vector<Hit>& chunk : chunks)
    out.insert(out.end(), chunk.begin(), chunk.end());
}

/// Chunk-ordered concatenation into a fresh vector.
inline std::vector<Hit> merge_hit_chunks(
    std::span<const std::vector<Hit>> chunks) {
  std::vector<Hit> out;
  merge_hit_chunks_into(chunks, out);
  return out;
}

}  // namespace fabp::core
