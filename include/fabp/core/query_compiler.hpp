#pragma once
// Compile layer of the serving engine (DESIGN.md §"Layered host runtime").
//
// Everything the host does to a protein query before any backend can run
// it — back-translation into typed elements, element-kind classification
// for the bit-sliced kernels, 6-bit FabP instruction encoding, the packed
// DRAM footprint the transfer model charges, and the random-model score
// statistics threshold derivation uses — is pure per-query work, done
// once per distinct query rather than per request.  A CompiledQuery bundles
// all of it; a QueryCompiler memoizes CompiledQuerys behind a bounded LRU
// cache so repeated queries (the common case under serving traffic: the
// same hot queries against a resident database) skip recompilation
// entirely.  Entries are shared_ptr<const ...>: a hit can outlive an
// eviction, so concurrent engine workers never see a compiled query
// disappear under them.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabp/bio/sequence.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/encoding.hpp"
#include "fabp/core/threshold.hpp"

namespace fabp::core {

/// Every derived form of one protein query the host layers consume.
/// Immutable after construction; produced by QueryCompiler (or directly by
/// compile_query for one-off use).
struct CompiledQuery {
  bio::ProteinSequence protein;        ///< the source query
  std::vector<BackElement> elements;   ///< back-translated typed elements
  EncodedQuery encoded;                ///< 6-bit FabP instructions
  BitScanQuery scan;                   ///< per-element plane kinds
  std::size_t packed_bytes = 0;        ///< PackedQuery DRAM footprint
  ScoreStatistics statistics;          ///< random-model score stats

  /// Query length in elements (3 per residue).
  std::size_t size() const noexcept { return encoded.size(); }

  /// The align_batch threshold rule: floor(fraction * elements).  Kept
  /// here so every layer derives thresholds with one formula.
  std::uint32_t threshold_for_fraction(double fraction) const noexcept {
    return static_cast<std::uint32_t>(
        fraction * static_cast<double>(protein.size() * 3));
  }

  /// Smallest threshold whose expected random-hit count over a reference
  /// of `reference_elements` positions is <= `expected_hits`.
  std::uint32_t threshold_for_expected_hits(std::size_t reference_elements,
                                            double expected_hits = 1.0) const;
};

using CompiledQueryPtr = std::shared_ptr<const CompiledQuery>;

/// One-shot compilation, no caching.
CompiledQueryPtr compile_query(const bio::ProteinSequence& protein);

struct QueryCompilerStats {
  std::size_t hits = 0;       ///< cache hits served
  std::size_t misses = 0;     ///< compilations performed
  std::size_t evictions = 0;  ///< entries pushed out by capacity
  std::size_t entries = 0;    ///< currently cached
};

/// Thread-safe bounded LRU cache over compile_query, keyed by the query's
/// residue text (compilation is a pure function of the sequence — nothing
/// in HostConfig affects it, so one compiler serves every backend of an
/// engine).
class QueryCompiler {
 public:
  /// `capacity` = maximum cached queries (>= 1 enforced).
  explicit QueryCompiler(std::size_t capacity = 128);

  /// Cached compile: returns the existing entry (refreshing its recency)
  /// or compiles, caches, and possibly evicts the least recent entry.
  CompiledQueryPtr compile(const bio::ProteinSequence& protein);

  std::size_t capacity() const noexcept { return capacity_; }
  QueryCompilerStats stats() const;
  void clear();

 private:
  using LruList = std::list<std::pair<std::string, CompiledQueryPtr>>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  QueryCompilerStats stats_;
};

}  // namespace fabp::core
