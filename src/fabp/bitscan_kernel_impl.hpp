#pragma once
// Private, ISA-agnostic core of the scan kernels.  Each kernel TU
// (bitscan_kernels_{swar,avx2,avx512,avx512vpopcnt}.cpp) defines a Traits
// type mapping the vertical-counter algorithm onto its vector substrate and
// instantiates scan_range_t / scan_batch_t with it.  This header contains
// no intrinsics, so it compiles identically under every per-TU -m flag
// set; all type names below are template parameters, which also keeps the
// instantiations TU-local (no comdat function compiled with AVX flags can
// be picked by the linker for a baseline caller).
//
// Traits contract (V = Traits::Vec holds kWords 64-bit lanes):
//   static constexpr unsigned kWords;
//   static V zero();
//   static V broadcast(std::uint64_t x);          // x in every 64-bit lane
//   static V load_bits(const std::uint64_t* plane, std::size_t w,
//                      unsigned s);
//     // 64*kWords plane bits starting at bit offset 64*w + s, i.e.
//     // lane k = (plane[w+k] >> s) | (plane[w+k+1] << (64 - s));
//     // reads plane[w .. w + kWords], which the kScanGuardWords padding
//     // every PlaneView plane carries keeps in bounds.
//   static V and_(V, V); or_(V, V); xor_(V, V);
//   static V andnot(V a, V b);                    // ~a & b
//   static V not_(V);
//   static bool any(V);                           // any bit set
//   static void store(std::uint64_t* dst, V);     // kWords words

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fabp/core/bitscan.hpp"

namespace fabp::core::detail {

// Vertical counter planes: enough bits for any practical query length
// (count <= query length, so bit_width(qlen) planes carry it).
inline constexpr unsigned kMaxCounterBits = 33;

// Accessors for the kernel-registration functions each TU exports; a TU
// whose ISA is not compiled in returns nullptr.
const ScanKernel* scalar_kernel() noexcept;
const ScanKernel* swar64_kernel() noexcept;
const ScanKernel* avx2_kernel() noexcept;
const ScanKernel* avx512_kernel() noexcept;
const ScanKernel* avx512vpopcnt_kernel() noexcept;

// Query elements per Harley–Seal group in score_block, which is also the
// stride of its feasibility check: the counters are exact only at group
// boundaries.  Each check costs one borrow-propagate over the counter
// planes plus a lane test; every 16 elements it is well under 10% of the
// accumulate work it can skip.
inline constexpr std::size_t kScoreGroup = 16;

/// Borrow-out of (score - value) per lane over the first nbits counter
/// planes: a lane's borrow bit is set iff its score < value.
template <typename Traits>
inline typename Traits::Vec counter_borrow(
    const typename Traits::Vec* counters, unsigned nbits,
    std::uint32_t value) {
  using V = typename Traits::Vec;
  V borrow = Traits::zero();
  for (unsigned b = 0; b < nbits; ++b) {
    const V tb = Traits::broadcast(((value >> b) & 1u) ? ~0ULL : 0ULL);
    borrow = Traits::or_(
        Traits::andnot(counters[b], Traits::or_(tb, borrow)),
        Traits::and_(tb, borrow));
  }
  return borrow;
}

/// Materialises Hit records for every set lane of hit_mask below `block`,
/// reading each hit's score back out of the vertical counters.  Counters
/// are spilled at most once, and only when some lane actually hit.
template <typename Traits>
inline void emit_block_hits(const typename Traits::Vec* counters,
                            unsigned nbits, typename Traits::Vec hit_mask,
                            std::size_t base, std::size_t block,
                            std::vector<Hit>& out) {
  constexpr unsigned kW = Traits::kWords;
  std::uint64_t hit_words[kW];
  Traits::store(hit_words, hit_mask);

  std::uint64_t counter_words[kMaxCounterBits][kW];
  bool spilled = false;
  for (unsigned k = 0; k < kW; ++k) {
    const std::size_t lane_base = 64ull * k;
    if (lane_base >= block) break;
    std::uint64_t hits = hit_words[k];
    const std::size_t valid = std::min<std::size_t>(64, block - lane_base);
    if (valid < 64) hits &= (1ULL << valid) - 1;
    if (hits == 0) continue;
    if (!spilled) {
      for (unsigned b = 0; b < nbits; ++b)
        Traits::store(counter_words[b], counters[b]);
      spilled = true;
    }
    do {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(hits));
      hits &= hits - 1;
      std::uint32_t score = 0;
      for (unsigned b = 0; b < nbits; ++b)
        score |= static_cast<std::uint32_t>((counter_words[b][k] >> lane) &
                                            1u)
                 << b;
      out.push_back(Hit{base + lane_base + lane, score});
    } while (hits != 0);
  }
}

/// Bitwise full adder: sum = a ^ b ^ c, carry = majority(a, b, c).
/// Written once over xor_/and_/or_; with AVX-512F the compiler folds each
/// output into a single VPTERNLOGQ.
template <typename Traits>
inline void full_add(typename Traits::Vec& carry, typename Traits::Vec& sum,
                     typename Traits::Vec a, typename Traits::Vec b,
                     typename Traits::Vec c) {
  const auto ab = Traits::xor_(a, b);
  sum = Traits::xor_(ab, c);
  carry = Traits::or_(Traits::and_(a, b), Traits::and_(ab, c));
}

/// Adds `carry` (one bit per lane, weight 2^b) into the counters from
/// plane b up; stops as soon as no lane carries any further.
template <typename Traits>
inline void ripple_add(typename Traits::Vec* counters, unsigned b,
                       typename Traits::Vec carry) {
  for (; Traits::any(carry); ++b) {
    const auto overflow = Traits::and_(counters[b], carry);
    counters[b] = Traits::xor_(counters[b], carry);
    carry = overflow;
  }
}

/// Scores one block of 64 * Traits::kWords candidate positions starting at
/// `base` and appends the `block` leading lanes that reach the threshold.
///
/// Per-position scores accumulate in vertical counters: lane j of counter
/// plane b is bit b of the score at position base + j (scores never exceed
/// qlen, so only the first nbits planes are touched).  Elements are folded
/// kScoreGroup at a time through a Harley–Seal carry-save tree of 15 full
/// adders into counters[0..3] (ones, twos, fours, eights) — the software
/// shape of FabP's Pop36 column compression — so only the tree's sixteens
/// output ripples into counters[4..nbits).  A tail of fewer than kScoreGroup
/// elements folds pairwise through one full adder, then one element alone.
///
/// After every group that does not end the query, the counters are exact
/// and a feasibility check abandons the block when no lane can still reach
/// the threshold even if every remaining element matches — exact, since
/// such a lane can never produce a hit.
template <typename Traits>
inline void score_block(const std::uint64_t* const* planes, std::size_t qlen,
                        unsigned nbits, std::uint32_t threshold,
                        std::size_t base, std::size_t block,
                        std::vector<Hit>& out) {
  using V = typename Traits::Vec;
  static_assert(kScoreGroup == 16, "the tree below folds exactly 16 elements");

  V counters[kMaxCounterBits];
  for (unsigned b = 0; b < nbits; ++b) counters[b] = Traits::zero();

  const auto element = [&](std::size_t i) {
    const std::size_t offset = base + i;
    return Traits::load_bits(planes[i], offset >> 6,
                             static_cast<unsigned>(offset & 63));
  };

  std::size_t i = 0;
  if (qlen >= kScoreGroup) {  // nbits >= 5: counters[0..4] all exist
    V& ones = counters[0];
    V& twos = counters[1];
    V& fours = counters[2];
    V& eights = counters[3];
    // Each fold adds elements [k, k + 2^n) into the low counters and
    // returns the carry out of the top one (weight 2^n).
    const auto fold2 = [&](std::size_t k) {
      V twos_out;
      full_add<Traits>(twos_out, ones, ones, element(k), element(k + 1));
      return twos_out;
    };
    const auto fold4 = [&](std::size_t k) {
      const V a = fold2(k);
      const V b = fold2(k + 2);
      V fours_out;
      full_add<Traits>(fours_out, twos, twos, a, b);
      return fours_out;
    };
    const auto fold8 = [&](std::size_t k) {
      const V a = fold4(k);
      const V b = fold4(k + 4);
      V eights_out;
      full_add<Traits>(eights_out, fours, fours, a, b);
      return eights_out;
    };
    for (; i + kScoreGroup <= qlen; i += kScoreGroup) {
      const V a = fold8(i);
      const V b = fold8(i + 8);
      V sixteens;
      full_add<Traits>(sixteens, eights, eights, a, b);
      ripple_add<Traits>(counters, 4, sixteens);

      // A lane can still hit iff partial + remaining >= threshold.
      const std::size_t remaining = qlen - (i + kScoreGroup);
      if (remaining != 0 && threshold > remaining) {
        const std::uint32_t need =
            threshold - static_cast<std::uint32_t>(remaining);
        const V alive =
            Traits::not_(counter_borrow<Traits>(counters, nbits, need));
        if (!Traits::any(alive)) return;
      }
    }
  }
  for (; i + 1 < qlen; i += 2) {
    V carry;
    full_add<Traits>(carry, counters[0], counters[0], element(i),
                     element(i + 1));
    ripple_add<Traits>(counters, 1, carry);
  }
  if (i < qlen) ripple_add<Traits>(counters, 0, element(i));

  // score >= threshold per lane: no borrow-out of (score - threshold).
  const V borrow = counter_borrow<Traits>(counters, nbits, threshold);
  emit_block_hits<Traits>(counters, nbits, Traits::not_(borrow), base, block,
                          out);
}

/// One query prepared for the block loop: per-element plane pointers plus
/// the clamped scan bounds.  A query the preamble rejects (empty, longer
/// than the reference, threshold above qlen) gets end == begin and is
/// skipped by the loops below.
struct PreparedQuery {
  std::vector<const std::uint64_t*> planes;
  std::size_t qlen = 0;
  unsigned nbits = 0;
  std::uint32_t threshold = 0;
  std::size_t end = 0;  // one past the last position to score
};

inline PreparedQuery prepare_query(const BitScanQuery& query,
                                   const PlaneView& reference,
                                   std::uint32_t threshold, std::size_t begin,
                                   std::size_t end) {
  PreparedQuery p;
  p.qlen = query.size();
  p.threshold = threshold;
  p.end = begin;
  if (p.qlen == 0 || reference.size < p.qlen) return p;
  const std::size_t positions = reference.size - p.qlen + 1;
  end = std::min(end, positions);
  if (begin >= end) return p;
  if (threshold > p.qlen) return p;  // scores never exceed the element count
  p.end = end;
  p.nbits = static_cast<unsigned>(std::bit_width(p.qlen));
  p.planes.resize(p.qlen);
  const std::vector<std::uint8_t>& kinds = query.kinds();
  for (std::size_t i = 0; i < p.qlen; ++i)
    p.planes[i] = reference.plane(kinds[i]);
  return p;
}

template <typename Traits>
void scan_range_t(const BitScanQuery& query, const PlaneView& reference,
                  std::uint32_t threshold, std::size_t begin, std::size_t end,
                  std::vector<Hit>& out) {
  const PreparedQuery p = prepare_query(query, reference, threshold, begin,
                                        end);
  constexpr std::size_t kLanes = 64ull * Traits::kWords;
  for (std::size_t base = begin; base < p.end; base += kLanes) {
    const std::size_t block = std::min(kLanes, p.end - base);
    score_block<Traits>(p.planes.data(), p.qlen, p.nbits, p.threshold, base,
                        block, out);
  }
}

template <typename Traits>
void scan_batch_t(const BitScanQuery* queries, const std::uint32_t* thresholds,
                  std::size_t count, const PlaneView& reference,
                  std::size_t begin, std::size_t end, std::vector<Hit>* outs) {
  std::vector<PreparedQuery> prepared;
  prepared.reserve(count);
  std::size_t max_end = begin;
  for (std::size_t q = 0; q < count; ++q) {
    prepared.push_back(
        prepare_query(queries[q], reference, thresholds[q], begin, end));
    max_end = std::max(max_end, prepared.back().end);
  }

  // One pass over the reference: every query is scored against the block
  // while its plane words are still hot, instead of re-streaming all
  // planes per query.  Blocks are aligned to `begin` exactly like the
  // single-query loop, so each outs[q] matches a solo scan bit for bit.
  constexpr std::size_t kLanes = 64ull * Traits::kWords;
  for (std::size_t base = begin; base < max_end; base += kLanes) {
    for (std::size_t q = 0; q < count; ++q) {
      const PreparedQuery& p = prepared[q];
      if (base >= p.end) continue;
      const std::size_t block = std::min(kLanes, p.end - base);
      score_block<Traits>(p.planes.data(), p.qlen, p.nbits, p.threshold,
                          base, block, outs[q]);
    }
  }
}

}  // namespace fabp::core::detail
