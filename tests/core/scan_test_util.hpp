#pragma once
// Helpers shared by the scan differential suites (bitscan_test,
// bitscan_kernels_test, bitscan_csa_test, bitscan_tiled_test): random
// element mixes, the threshold probes, the kernels the host can run, and
// a whole-reference TileScanner scan pinned to one kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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

/// Pointers to each query, in order — the form the batch entry points
/// (range_batch, hits_batch) read queries through.
inline std::vector<const BitScanQuery*> pointers(
    const std::vector<BitScanQuery>& queries) {
  std::vector<const BitScanQuery*> out;
  out.reserve(queries.size());
  for (const BitScanQuery& query : queries) out.push_back(&query);
  return out;
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

/// Holds every reachable kernel, at every kTiles size, to golden_hits on
/// `ref`: each query scanned alone, and all of them in one mixed-length
/// batch.
inline void expect_solo_and_batch_match_golden(
    const std::vector<std::vector<BackElement>>& raw,
    const std::vector<std::uint32_t>& thresholds,
    const bio::NucleotideSequence& ref, const std::string& context) {
  std::vector<BitScanQuery> queries;
  std::vector<std::vector<Hit>> golden;
  for (std::size_t q = 0; q < raw.size(); ++q) {
    queries.emplace_back(raw[q]);
    golden.push_back(golden_hits(raw[q], ref, thresholds[q]));
  }
  const bio::PackedNucleotides packed{ref};
  for (std::size_t tile : kTiles) {
    const TileScanner scanner{packed, {.tile_positions = tile}};
    for (const ScanKernel* kernel : reachable_kernels()) {
      for (std::size_t q = 0; q < raw.size(); ++q)
        EXPECT_EQ(kernel_hits(*kernel, scanner, queries[q], thresholds[q]),
                  golden[q])
            << kernel->name << " tile=" << tile << " solo q=" << q << " "
            << context;
      std::vector<std::vector<Hit>> outs(raw.size());
      scanner.range_batch(*kernel, pointers(queries).data(),
                          thresholds.data(), raw.size(), 0, ref.size(),
                          outs.data());
      for (std::size_t q = 0; q < raw.size(); ++q)
        EXPECT_EQ(outs[q], golden[q])
            << kernel->name << " tile=" << tile << " batch q=" << q << " "
            << context;
    }
  }
}

}  // namespace fabp::core::scan_test
