#pragma once
// Bit-sliced software scan kernels: score 64 candidate alignment positions
// per machine word instead of one element comparison per inner-loop step.
//
// The trick: every query element, whatever its type, is a *fixed predicate
// on (ref[j], ref[j-1], ref[j-2])* — so over a span of reference it
// compiles to one match bitplane (bit j = "this element matches at
// reference index j"), built from the 2-bit codes with a handful of
// AND/OR/NOT word ops.  Only 12 distinct predicates exist (4 Type I
// exacts, 4 Type II conditions, 4 Type III functions), so any query scans
// against at most 12 planes.  TileScanner (core/bitscan_tiled.hpp) walks
// the packed reference one L2-resident tile at a time; each ScanKernel
// both compiles a tile's planes (compile_tile: the 2-bit codes compacted
// into lsb/msb bitplanes — PEXT on the AVX-512 kernels, a SWAR
// half-shuffle elsewhere — fused with the 12 plane formulas) and scores
// them (range_batch); nothing is built for the whole reference.
//
// A kernel works a block of N positions at a time (N = its lane width):
// for each scored query element, fetch N bits of its kind's plane at bit
// offset (block_base + element offset) and add them into vertical
// (bit-sliced SWAR) counters, 16 elements at a time through a Harley–Seal
// carry-save tree of full adders — the software shape of FabP's Pop36
// column compression — with a feasibility early exit after every group;
// after all elements, a borrow-propagation compare against the threshold
// yields an N-bit hit mask, and Hit records are materialised only for set
// bits.
//
// Pop36 sums match bits, so the order the elements are added in is free.
// BitScanQuery fixes it once per compiled query: selective first, ranked
// by each kind's match probability on uniform bases (Type I exact 1/4,
// Stop3 3/8, UorC/AorG/AorC 1/2, NotG/Leu3/Arg3 3/4), stable within a
// rank.  Low partial scores after the first groups let the early exit
// abandon a block sooner.  AnyD elements (plane = every valid position)
// match at every scored position, so they are never loaded: a query with
// nD of them scores its other elements against max(0, threshold - nD) and
// adds nD to every emitted score.  The result is bit-for-bit identical to
// the scalar golden_hits oracle (locked down by the differential tests in
// tests/core/bitscan_test.cpp, bitscan_kernels_test.cpp and
// bitscan_csa_test.cpp).
//
// The kernels are ISA-dispatched: the same carry-save scorer is
// instantiated at 64 lanes (portable uint64_t SWAR), 256 lanes (AVX2) and
// 512 lanes (AVX-512F + BMI2, and again with AVX-512 VBMI2, whose funnel
// shift loads each element's bits in one instruction), each compiled in
// its own TU with the matching -m flags so the binary stays runnable on
// any x86-64.  The widest kernel the CPU + OS support is selected once at
// startup (util/cpuid.hpp); the
// FABP_FORCE_ISA=scalar|swar64|avx2|avx512|avx512vbmi2 environment
// variable overrides the choice — tile compile included — for testing
// (ignored when the named ISA is unavailable or the name unknown).

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fabp/core/golden.hpp"

namespace fabp::core {

/// Distinct comparator predicates an element can compile to: Type I per
/// nucleotide (0..3), Type II per condition (4..7), Type III per function
/// (8..11).
inline constexpr std::size_t kElementKindCount = 12;

/// Kind index of one element as used *away from the query start* (i >= 2,
/// where both history elements exist — the only placement back_translate
/// ever produces for Type III).
std::size_t element_kind(const BackElement& element) noexcept;

/// Zero guard words every compiled plane carries past its last data word:
/// the widest kernel (AVX-512, 8 words per vector) fetches
/// plane[w .. w + 8] for w up to the last data word, so 8 guard words keep
/// every unaligned fetch in bounds.
inline constexpr std::size_t kScanGuardWords = 8;

/// Non-owning view of the 12 compiled element-kind planes the scan kernels
/// consume: bit j of planes[kind] answers "does an element of `kind` match
/// at position j", for j in [0, size).  Each plane must stay readable for
/// kScanGuardWords words past its last data word.  The tiled scanner
/// builds one view per tile over its per-thread scratch buffer.
struct PlaneView {
  std::array<const std::uint64_t*, kElementKindCount> planes{};
  std::size_t size = 0;  // positions described by the planes

  const std::uint64_t* plane(std::size_t kind) const noexcept {
    return planes[kind];
  }
};

/// A query compiled to per-element plane indices.  Elements at offsets 0
/// and 1 get their kind adjusted so the scalar oracle's "missing history
/// reads as A" convention is reproduced exactly even for hand-built
/// queries that place Type III elements before offset 2.
class BitScanQuery {
 public:
  BitScanQuery() = default;
  explicit BitScanQuery(const std::vector<BackElement>& query);
  explicit BitScanQuery(const EncodedQuery& query);

  std::size_t size() const noexcept { return kinds_.size(); }
  bool empty() const noexcept { return kinds_.empty(); }

  const std::vector<std::uint8_t>& kinds() const noexcept { return kinds_; }

  /// Offsets of the elements the kernels load, in scoring order: rarest
  /// matching kind first, stable within a kind's rank; AnyD elements are
  /// left out (see always_matching()).
  const std::vector<std::uint32_t>& score_order() const noexcept {
    return order_;
  }

  /// Elements that match at every scored position (kind AnyD): size()
  /// minus score_order().size().
  std::size_t always_matching() const noexcept {
    return kinds_.size() - order_.size();
  }

 private:
  std::vector<std::uint8_t> kinds_;
  std::vector<std::uint32_t> order_;
};

/// lsb/msb code bitplanes of one 64-position reference word: bit j holds
/// the low/high bit of the 2-bit code at position 64*w + j.
struct CodeWord {
  std::uint64_t lsb = 0;
  std::uint64_t msb = 0;
};

/// One tile's plane compile: the 12 element-kind planes for global words
/// [first_word, first_word + data_words) of a 2-bit packed reference of
/// ref_size bases (packed words past the store decode as A, positions past
/// ref_size as invalid).
struct TileCompileJob {
  const std::uint64_t* packed = nullptr;
  std::size_t packed_words = 0;
  std::size_t ref_size = 0;
  std::size_t first_word = 0;
  std::size_t data_words = 0;
  /// Global word whose code word compile_tile returns (the entry history
  /// of the next tile); SIZE_MAX on a run's last tile.
  std::size_t capture_w = static_cast<std::size_t>(-1);
  /// Code word of first_word - 1, carried over from the previous tile of
  /// the run; nullptr at a run start, where the kernel derives it from the
  /// packed store (zero at the reference start).
  const CodeWord* entry = nullptr;
};

// ---------------------------------------------------------------------------
// ISA-dispatched scan kernels.

/// Instruction sets the block scan loop is instantiated for.  Scalar is a
/// per-position reference loop over the same planes (no SWAR counters) —
/// the slowest path, kept reachable for differential testing; Swar64 is
/// the portable baseline, always available.  Every other ISA runs the same
/// carry-save scorer; the two AVX-512 kernels also compact the tile codes
/// with BMI2 PEXT and need its CPUID bit.  Avx512Vbmi2 differs from Avx512
/// only in its element load (one VPSHRDVQ funnel shift instead of two
/// shifts and an OR) and needs the AVX512_VBMI2 CPUID bit.  Avx512Vbmi2
/// keeps position 4, the AVX-512 VPOPCNTDQ build it replaced.
enum class ScanIsa { Scalar, Swar64, Avx2, Avx512, Avx512Vbmi2 };

inline constexpr std::size_t kScanIsaCount = 5;

/// All ISA values, widest/most specialised last — handy for test sweeps.
inline constexpr std::array<ScanIsa, kScanIsaCount> kAllScanIsas{
    ScanIsa::Scalar, ScanIsa::Swar64, ScanIsa::Avx2, ScanIsa::Avx512,
    ScanIsa::Avx512Vbmi2};

/// One scan implementation at a fixed lane width: the tile plane compile
/// and the per-block scorer (plane fetch → carry-save counter add →
/// borrow-propagate threshold compare) over one compiled tile.  All
/// kernels compile identical planes and produce output bit-for-bit
/// identical to golden_hits (contents and order).
struct ScanKernel {
  ScanIsa isa;
  const char* name;     // "scalar" | "swar64" | "avx2" | "avx512" |
                        // "avx512vbmi2"
  unsigned lanes;       // positions scored per block (1, 64, 256, 512)

  /// Writes plane k's word i of `job` to planes[k * stride + i] for every
  /// kind k and i < data_words, and zeroes words [data_words, stride) of
  /// every plane — the kScanGuardWords padding a PlaneView promises.
  /// Returns the code word at job.capture_w.
  CodeWord (*compile_tile)(const TileCompileJob& job, std::uint64_t* planes,
                           std::size_t stride);

  /// Walks the reference blocks of [begin, end) once and scores every
  /// query against each block while its plane words are hot in cache.
  /// outs[q] receives the hits of (*queries[q], thresholds[q]) with
  /// position in [begin, end), clamped to the valid range of `reference`.
  void (*range_batch)(const BitScanQuery* const* queries,
                      const std::uint32_t* thresholds, std::size_t count,
                      const PlaneView& reference, std::size_t begin,
                      std::size_t end, std::vector<Hit>* outs);
};

/// Kernel for `isa`, or nullptr when it is not compiled in or the running
/// CPU/OS cannot execute it.  Scalar and Swar64 never return nullptr.
const ScanKernel* scan_kernel_for(ScanIsa isa) noexcept;

/// Parses a FABP_FORCE_ISA value ("scalar", "swar64", "avx2", "avx512",
/// "avx512vbmi2"); returns false on unknown names.
bool scan_isa_from_name(std::string_view name, ScanIsa& out) noexcept;

/// The kernel every TileScanner entry point without an explicit kernel
/// dispatches to: the widest ISA the host supports, unless FABP_FORCE_ISA
/// selects an available narrower one.  Resolved once on first use.
const ScanKernel& active_scan_kernel() noexcept;

}  // namespace fabp::core
