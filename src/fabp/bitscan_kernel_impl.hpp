#pragma once
// Private, ISA-agnostic core of the scan kernels.  Each kernel TU
// (bitscan_kernels_{swar,avx2,avx512,avx512vbmi2}.cpp) defines a Traits
// type mapping the vertical-counter algorithm onto its vector substrate and
// instantiates compile_tile_t / scan_batch_t with it.  This header contains
// no intrinsics, so it compiles identically under every per-TU -m flag
// set.  Everything below the kernel accessors sits in an anonymous
// namespace and every template takes the TU's own Traits type, so each
// TU gets its own copy (no comdat function compiled with AVX flags can be
// picked by the linker for a baseline caller, whatever the optimisation
// level).
//
// Traits contract (V = Traits::Vec holds kWords 64-bit lanes):
//   static constexpr unsigned kWords;
//   static V zero();
//   static V broadcast(std::uint64_t x);          // x in every 64-bit lane
//   static V load_bits(const std::uint64_t* at, std::uint64_t s);
//     // 64*kWords plane bits starting at bit s (0..63) of at[0], i.e.
//     // lane k = (at[k] >> s) | (at[k+1] << (64 - s));
//     // reads at[0 .. kWords], which the kScanGuardWords padding every
//     // PlaneView plane carries keeps in bounds.
//   static V and_(V, V); or_(V, V); xor_(V, V);
//   static V andnot(V a, V b);                    // ~a & b
//   static V not_(V);
//   static bool any(V);                           // any bit set
//   static void store(std::uint64_t* dst, V);     // kWords words
//   static V load(const std::uint64_t* src);      // kWords words
//   static V shl(V, unsigned n); shr(V, unsigned n);  // per 64-bit lane
//   static V prev_words(V cur, V prev);
//     // lane k = cur[k-1], lane 0 = prev[kWords-1]: each lane's preceding
//     // word when cur follows prev in memory.
//   static CodeWord compact(std::uint64_t lo, std::uint64_t hi);
//     // the code word of the 64 positions packed in words lo, hi (2-bit
//     // codes, position k at bits 2k..2k+1 of lo, then of hi): even bits
//     // to lsb, odd bits to msb — compact_portable below, or PEXT.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fabp/core/bitscan.hpp"
#include "fabp/util/bitops.hpp"

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
const ScanKernel* avx512vbmi2_kernel() noexcept;

namespace {

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
/// reading each hit's score back out of the vertical counters and adding
/// `bias`.  Counters are spilled at most once, and only when some lane
/// actually hit.
template <typename Traits>
inline void emit_block_hits(const typename Traits::Vec* counters,
                            unsigned nbits, std::uint32_t bias,
                            typename Traits::Vec hit_mask, std::size_t base,
                            std::size_t block, std::vector<Hit>& out) {
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
      out.push_back(Hit{base + lane_base + lane, score + bias});
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

/// Adds `carry` (one bit per lane, weight 2^b) into counters[b, nbits);
/// the sum fits nbits planes, so nothing carries out of the top one.  On
/// the vector kernels every level runs, with no test for a carry that
/// died out: with nbits a compile-time width the loop unrolls into
/// straight-line code over counters that stay in registers, and a vector
/// any-bit test costs more than the levels it skips.  A 64-lane word
/// tests in one compare, and stopping there is faster.
template <typename Traits>
inline void ripple_add(typename Traits::Vec* counters, unsigned b,
                       unsigned nbits, typename Traits::Vec carry) {
  for (; b < nbits; ++b) {
    if constexpr (Traits::kWords == 1)
      if (!Traits::any(carry)) return;
    const auto overflow = Traits::and_(counters[b], carry);
    counters[b] = Traits::xor_(counters[b], carry);
    carry = overflow;
  }
}

/// Counter widths score_block is instantiated for: the serving shapes,
/// 20 aa (60 elements) and 80 aa (240).  A query takes the narrowest
/// class that holds bit_width(scored); a count above the largest (more
/// than 255 scored elements) takes class 0, the one runtime-width
/// instance.  Unused planes of a class stay zero.
inline constexpr unsigned kCounterClasses[] = {6, 8};

inline constexpr unsigned counter_class(unsigned nbits) noexcept {
  for (unsigned width : kCounterClasses)
    if (nbits <= width) return width;
  return 0;
}

/// A scored element's plane bits at the scan's first position: bit
/// `shift` of `*word` is its match at position `begin`.  Blocks sit on
/// whole words from `begin`, so the block w words on reads word + w at
/// the same shift.
struct ElementRef {
  const std::uint64_t* word;
  std::uint64_t shift;  // 0..63
};

/// One query prepared for the block loop: each scored element's plane
/// address in score_order(), the always-match fold, the counter width and
/// the clamped scan bounds.  A query the preamble rejects (empty, longer
/// than the reference, threshold above qlen) gets end == begin and is
/// skipped by the loops below.
struct PreparedQuery {
  std::vector<ElementRef> elements;  // [j]: element score_order()[j]
  unsigned width = 0;  // counter_class(bit_width(elements.size()))
  // Always-matching (AnyD) elements.  Every scored window lies inside the
  // reference, where their plane is all ones, so they add exactly `bias`
  // to every position's score: the scored elements face threshold - bias
  // (floored at 0) and each emitted score gets bias back.
  std::uint32_t bias = 0;
  std::uint32_t threshold = 0;  // against the scored elements' sum
  std::size_t end = 0;          // one past the last position to score
};

inline PreparedQuery prepare_query(const BitScanQuery& query,
                                   const PlaneView& reference,
                                   std::uint32_t threshold, std::size_t begin,
                                   std::size_t end) {
  PreparedQuery p;
  p.end = begin;
  const std::size_t qlen = query.size();
  if (qlen == 0 || reference.size < qlen) return p;
  const std::size_t positions = reference.size - qlen + 1;
  end = std::min(end, positions);
  if (begin >= end) return p;
  if (threshold > qlen) return p;  // scores never exceed the element count
  p.end = end;
  const std::vector<std::uint32_t>& order = query.score_order();
  p.width =
      counter_class(static_cast<unsigned>(std::bit_width(order.size())));
  p.bias = static_cast<std::uint32_t>(query.always_matching());
  p.threshold = threshold > p.bias ? threshold - p.bias : 0;
  p.elements.resize(order.size());
  const std::vector<std::uint8_t>& kinds = query.kinds();
  for (std::size_t j = 0; j < order.size(); ++j) {
    const std::size_t bit = begin + order[j];
    p.elements[j] = {reference.plane(kinds[order[j]]) + (bit >> 6),
                     bit & 63};
  }
  return p;
}

/// Scores one block of 64 * Traits::kWords candidate positions starting at
/// `base`, `word` plane words past the scan's begin, and appends the
/// `block` leading lanes that reach the threshold.
///
/// Per-position scores accumulate in vertical counters: lane j of counter
/// plane b is bit b of the scored sum at position base + j.  kBits planes
/// exist (kBits == 0: bit_width(scored) of kMaxCounterBits), a
/// compile-time width so the counters live in registers.  The scored
/// elements are added in p's order (selective first), folded kScoreGroup
/// at a time through a Harley–Seal carry-save tree of 15 full adders into
/// counters[0..3] (ones, twos, fours, eights) — the software shape of
/// FabP's Pop36 column compression — so only the tree's sixteens output
/// ripples into counters[4..).  A tail of fewer than kScoreGroup elements
/// folds pairwise through one full adder, then one element alone.
///
/// After every group that does not end the query, the counters are exact
/// and a feasibility check abandons the block when no lane can still reach
/// the threshold even if every remaining element matches — exact, since
/// such a lane can never produce a hit.  Rare matchers first keep the
/// partial sums low, so the check fires after fewer groups.
template <typename Traits, unsigned kBits>
inline void score_block(const PreparedQuery& p, std::size_t word,
                        std::size_t base, std::size_t block,
                        std::vector<Hit>& out) {
  using V = typename Traits::Vec;
  static_assert(kScoreGroup == 16, "the tree below folds exactly 16 elements");
  const ElementRef* const elements = p.elements.data();
  const std::size_t scored = p.elements.size();
  const unsigned nbits =
      kBits != 0 ? kBits : static_cast<unsigned>(std::bit_width(scored));
  const std::uint32_t threshold = p.threshold;

  V counters[kBits != 0 ? kBits : kMaxCounterBits];
  for (unsigned b = 0; b < nbits; ++b) counters[b] = Traits::zero();

  const auto element = [&](std::size_t j) {
    return Traits::load_bits(elements[j].word + word, elements[j].shift);
  };

  std::size_t i = 0;
  if (scored >= kScoreGroup) {  // nbits >= 5: counters[0..4] all exist
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
    for (; i + kScoreGroup <= scored; i += kScoreGroup) {
      const V a = fold8(i);
      const V b = fold8(i + 8);
      V sixteens;
      full_add<Traits>(sixteens, eights, eights, a, b);
      ripple_add<Traits>(counters, 4, nbits, sixteens);

      // A lane can still hit iff partial + remaining >= threshold.
      const std::size_t remaining = scored - (i + kScoreGroup);
      if (remaining != 0 && threshold > remaining) {
        const std::uint32_t need =
            threshold - static_cast<std::uint32_t>(remaining);
        const V alive =
            Traits::not_(counter_borrow<Traits>(counters, nbits, need));
        if (!Traits::any(alive)) return;
      }
    }
  }
  for (; i + 1 < scored; i += 2) {
    V carry;
    full_add<Traits>(carry, counters[0], counters[0], element(i),
                     element(i + 1));
    ripple_add<Traits>(counters, 1, nbits, carry);
  }
  if (i < scored) ripple_add<Traits>(counters, 0, nbits, element(i));

  // score >= threshold per lane: no borrow-out of (score - threshold).
  const V borrow = counter_borrow<Traits>(counters, nbits, threshold);
  emit_block_hits<Traits>(counters, nbits, p.bias, Traits::not_(borrow), base,
                          block, out);
}

template <typename Traits>
void scan_batch_t(const BitScanQuery* const* queries,
                  const std::uint32_t* thresholds, std::size_t count,
                  const PlaneView& reference, std::size_t begin,
                  std::size_t end, std::vector<Hit>* outs) {
  std::vector<PreparedQuery> prepared;
  prepared.reserve(count);
  std::size_t max_end = begin;
  for (std::size_t q = 0; q < count; ++q) {
    prepared.push_back(
        prepare_query(*queries[q], reference, thresholds[q], begin, end));
    max_end = std::max(max_end, prepared.back().end);
  }

  // One pass over the reference: every query is scored against the block
  // while its plane words are still hot, instead of re-streaming all
  // planes per query.  Blocks are aligned to `begin` whatever the batch,
  // so each outs[q] matches a one-query scan bit for bit.
  constexpr std::size_t kLanes = 64ull * Traits::kWords;
  for (std::size_t base = begin, word = 0; base < max_end;
       base += kLanes, word += Traits::kWords) {
    for (std::size_t q = 0; q < count; ++q) {
      const PreparedQuery& p = prepared[q];
      if (base >= p.end) continue;
      const std::size_t block = std::min(kLanes, p.end - base);
      switch (p.width) {  // one case per kCounterClasses entry
        case 6:
          score_block<Traits, 6>(p, word, base, block, outs[q]);
          break;
        case 8:
          score_block<Traits, 8>(p, word, base, block, outs[q]);
          break;
        default:
          score_block<Traits, 0>(p, word, base, block, outs[q]);
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tile plane compile.

// Software-prefetch distance in packed reference words: while a tile is
// being compiled, the packed words this far ahead of the compile cursor
// are prefetched (and TileScanner prefetches the head of the next tile
// while a tile is being scored), hiding the DRAM latency of the 0.25
// B/base stream behind the plane compile + kernel compute.  64 words =
// 512 B = 8 cache lines ahead covers typical DRAM latency at the compile
// loop's consumption rate.
inline constexpr std::size_t kPrefetchWords = 64;

// Read-prefetch into a streaming cache level; a no-op compiler-side when
// the builtin is unavailable (the hardware prefetcher still works).
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/0);
#else
  (void)p;
#endif
}

/// The portable Traits::compact: two SWAR half-shuffles per plane.  PEXT
/// does each in one instruction, but it is microcoded (tens of cycles) on
/// AMD before Zen 3, so only the AVX-512 kernels, which no such CPU runs,
/// use it.
inline CodeWord compact_portable(std::uint64_t lo, std::uint64_t hi) noexcept {
  using util::compress_even_bits;
  return {compress_even_bits(lo) | (compress_even_bits(hi) << 32),
          compress_even_bits(lo >> 1) | (compress_even_bits(hi >> 1) << 32)};
}

/// Code word of global word `w` (two packed words; words past the store
/// decode as A).
template <typename Traits>
inline CodeWord code_word(const TileCompileJob& job, std::size_t w) noexcept {
  const std::uint64_t lo = 2 * w < job.packed_words ? job.packed[2 * w] : 0;
  const std::uint64_t hi =
      2 * w + 1 < job.packed_words ? job.packed[2 * w + 1] : 0;
  return Traits::compact(lo, hi);
}

/// ScanKernel::compile_tile: one pass over the packed words fusing the
/// compaction of the 2-bit codes into lsb/msb bitplanes with the 12 plane
/// formulas, Traits::kWords plane words at a time (each lane's prev1/prev2
/// history comes from the word before it via prev_words).  The history of
/// the first word is the entry code word (the previous tile's capture, or
/// re-derived at a run start), so planes are bit-for-bit what a
/// whole-reference compile produces for the same words.  Chunks wholly
/// inside the reference take an unchecked path; only chunks holding the
/// reference's last word or the words past it (the overhang a query
/// straddling the end reads) pay the bounds checks.  A final partial chunk
/// writes up to kWords - 1 words past data_words, inside the guard words
/// the slack fill then zeroes.  The packed words kPrefetchWords ahead of
/// the compile cursor are software-prefetched.
template <typename Traits>
CodeWord compile_tile_t(const TileCompileJob& job, std::uint64_t* p,
                        std::size_t stride) {
  using V = typename Traits::Vec;
  constexpr unsigned kW = Traits::kWords;
  static_assert(kW <= kScanGuardWords, "a partial chunk must fit the guard");

  CodeWord entry;  // zero at the reference start: missing history reads A
  if (job.entry != nullptr)
    entry = *job.entry;
  else if (job.first_word > 0)
    entry = code_word<Traits>(job, job.first_word - 1);
  V prev_lsb = Traits::broadcast(entry.lsb);
  V prev_msb = Traits::broadcast(entry.msb);

  const std::uint64_t* const packed = job.packed;
  const std::size_t full_words = job.ref_size / 64;
  const unsigned tail = static_cast<unsigned>(job.ref_size & 63);
  for (std::size_t i = 0; i < job.data_words; i += kW) {
    const std::size_t w0 = job.first_word + i;
    std::uint64_t lsb_w[kW], msb_w[kW], valid_w[kW];
    if (w0 + kW <= full_words) {
      // The loop consumes 2 packed words per plane word; touch one 64-byte
      // line (8 packed words) kPrefetchWords ahead per 4 plane words.
      for (unsigned k = 0; k < kW; ++k)
        if (((i + k) & 3) == 0 &&
            2 * (w0 + k) + kPrefetchWords < job.packed_words)
          prefetch_ro(packed + 2 * (w0 + k) + kPrefetchWords);
      for (unsigned k = 0; k < kW; ++k) {
        const CodeWord c =
            Traits::compact(packed[2 * (w0 + k)], packed[2 * (w0 + k) + 1]);
        lsb_w[k] = c.lsb;
        msb_w[k] = c.msb;
        valid_w[k] = ~0ULL;
      }
    } else {
      for (unsigned k = 0; k < kW; ++k) {
        const std::size_t w = w0 + k;
        const CodeWord c = code_word<Traits>(job, w);
        lsb_w[k] = c.lsb;
        msb_w[k] = c.msb;
        valid_w[k] = w < full_words                  ? ~0ULL
                     : w == full_words && tail != 0 ? (1ULL << tail) - 1
                                                    : 0;
      }
    }
    const V lsb = Traits::load(lsb_w);
    const V msb = Traits::load(msb_w);
    const V valid = Traits::load(valid_w);
    const V pm = Traits::prev_words(msb, prev_msb);
    const V pl = Traits::prev_words(lsb, prev_lsb);
    const V eq_g = Traits::andnot(lsb, msb);
    const V eq_a = Traits::andnot(Traits::or_(lsb, msb), valid);
    const V not_lsb = Traits::andnot(lsb, valid);
    const V p1m = Traits::and_(
        Traits::or_(Traits::shl(msb, 1), Traits::shr(pm, 63)), valid);
    const V p2m = Traits::and_(
        Traits::or_(Traits::shl(msb, 2), Traits::shr(pm, 62)), valid);
    const V p2l = Traits::and_(
        Traits::or_(Traits::shl(lsb, 2), Traits::shr(pl, 62)), valid);

    const auto put = [&](std::size_t kind, V plane) {
      Traits::store(p + kind * stride + i, plane);
    };
    // Type I: occurrence planes.
    put(0, eq_a);
    put(1, Traits::andnot(msb, lsb));
    put(2, eq_g);
    put(3, Traits::and_(lsb, msb));
    // Type II conditions on the 2-bit code.
    put(4, lsb);
    put(5, not_lsb);
    put(6, Traits::andnot(eq_g, valid));
    put(7, Traits::andnot(msb, valid));
    // Type III: history-dependent selects between the S=1 and S=0 match
    // sets (BackElement::matches, vectorised).
    put(8, Traits::or_(Traits::and_(p1m, eq_a),
                       Traits::andnot(p1m, not_lsb)));           // Stop3
    put(9, Traits::andnot(Traits::and_(p2m, lsb), valid));       // Leu3
    put(10, Traits::or_(p2l, not_lsb));                          // Arg3
    put(11, valid);                                              // D
    prev_lsb = lsb;
    prev_msb = msb;
  }
  // Zero the slack: kernel guard fetches past the tile's last data word
  // must see 0, and the scratch holds whatever the previous tile (or the
  // allocator) left there.
  for (std::size_t k = 0; k < kElementKindCount; ++k)
    std::fill(p + k * stride + job.data_words, p + (k + 1) * stride, 0);
  return job.capture_w == static_cast<std::size_t>(-1)
             ? CodeWord{}
             : code_word<Traits>(job, job.capture_w);
}

}  // namespace

}  // namespace fabp::core::detail
