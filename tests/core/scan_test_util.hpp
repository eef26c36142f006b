#pragma once
// Helpers shared by the scan differential suites (bitscan_test,
// bitscan_kernels_test, bitscan_csa_test, bitscan_tiled_test): random
// element mixes, the threshold probes, the kernels the host can run, and
// a whole-reference TileScanner scan pinned to one kernel.

#include <cstdint>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"

namespace fabp::core::scan_test {

/// Random query built straight from elements so every kind (Type I per
/// nucleotide, Type II per condition, Type III per function) appears, not
/// just the mixes the codon table produces.
inline std::vector<BackElement> random_elements(std::size_t n,
                                                util::Xoshiro256& rng) {
  std::vector<BackElement> q;
  q.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.next() % 3) {
      case 0:
        q.push_back(BackElement::make_exact(bio::nucleotide_from_code(
            static_cast<std::uint8_t>(rng.next() % 4))));
        break;
      case 1:
        q.push_back(BackElement::make_conditional(
            static_cast<Condition>(rng.next() % 4)));
        break;
      default:
        q.push_back(BackElement::make_dependent(
            static_cast<Function>(rng.next() % 4)));
        break;
    }
  }
  return q;
}

/// Thresholds every differential probes: everything, half, exact only.
inline std::vector<std::uint32_t> probe_thresholds(std::size_t qlen) {
  return {0u, static_cast<std::uint32_t>(qlen / 2),
          static_cast<std::uint32_t>(qlen)};
}

/// Tile sizes the kernel differentials run at: the default (the test
/// references fit one tile, so a kernel sees whole-reference planes and
/// their guard words) and three words — not a multiple of the 256/512-lane
/// block widths — so blocks are cut at tile edges.
inline constexpr std::size_t kTiles[] = {TileScanConfig{}.tile_positions,
                                         192};

/// Every ScanIsa whose kernel the host can run.
inline std::vector<const ScanKernel*> reachable_kernels() {
  std::vector<const ScanKernel*> kernels;
  for (ScanIsa isa : kAllScanIsas)
    if (const ScanKernel* kernel = scan_kernel_for(isa))
      kernels.push_back(kernel);
  return kernels;
}

/// All hits of a full scan of `scanner`'s reference through `kernel` —
/// what TileScanner::hits returns, with the kernel pinned.
inline std::vector<Hit> kernel_hits(const ScanKernel& kernel,
                                    const TileScanner& scanner,
                                    const BitScanQuery& query,
                                    std::uint32_t threshold) {
  std::vector<Hit> hits;
  if (query.empty() || scanner.size() < query.size()) return hits;
  scanner.range(kernel, query, threshold, 0,
                scanner.size() - query.size() + 1, hits);
  return hits;
}

}  // namespace fabp::core::scan_test
