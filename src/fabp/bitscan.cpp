#include "fabp/core/bitscan.hpp"

#include <cstdlib>
#include <utility>

#include "bitscan_kernel_impl.hpp"
#include "fabp/util/cpuid.hpp"

namespace fabp::core {

namespace {

// Kind indices shared with element_kind(); named where the compile step
// needs to substitute a degenerate kind for missing history.
constexpr std::uint8_t kKindAorG = 4 + static_cast<std::uint8_t>(Condition::AorG);
constexpr std::uint8_t kKindAny = 8 + static_cast<std::uint8_t>(Function::AnyD);

// Match probability of each kind on uniform random bases, in eighths:
// Type I exact 2/8; UorC, AorG, AorC 4/8; NotG 6/8; Stop3 3/8 (p1 msb
// selects A of four or A|G of four, half the time each); Leu3 and Arg3
// 6/8; AnyD 8/8.  Only the rank matters — it orders the scored elements.
constexpr std::array<std::uint8_t, kElementKindCount> kMatchEighths{
    2, 2, 2, 2, 4, 4, 6, 4, 3, 6, 6, 8};

}  // namespace

std::size_t element_kind(const BackElement& element) noexcept {
  switch (element.type) {
    case ElementType::ExactI:
      return bio::code(element.exact);
    case ElementType::ConditionalII:
      return 4 + static_cast<std::size_t>(element.cond);
    case ElementType::DependentIII:
      return 8 + static_cast<std::size_t>(element.func);
  }
  return kKindAny;
}

BitScanQuery::BitScanQuery(const std::vector<BackElement>& query) {
  kinds_.reserve(query.size());
  std::array<std::uint32_t, 9> next{};  // loaded elements per rank (eighths)
  for (std::size_t i = 0; i < query.size(); ++i) {
    std::uint8_t kind = static_cast<std::uint8_t>(element_kind(query[i]));
    // The scalar oracle substitutes A for history reads before the query
    // start (i-1 at i==0, i-2 at i<2).  A's code is 00, which collapses
    // Stop3/Arg3 to the purine condition and Leu3 to "any".  Well-formed
    // queries never place Type III before offset 2, but the engine must
    // agree with the oracle on every input.
    if (i < 2 && query[i].type == ElementType::DependentIII) {
      switch (query[i].func) {
        case Function::Stop3:
          if (i == 0) kind = kKindAorG;
          break;
        case Function::Leu3:
          kind = kKindAny;
          break;
        case Function::Arg3:
          kind = kKindAorG;
          break;
        case Function::AnyD:
          break;
      }
    }
    kinds_.push_back(kind);
    if (kind != kKindAny) ++next[kMatchEighths[kind]];
  }
  // Stable counting sort of the loaded (non-AnyD) offsets by rank: each
  // offset goes after every lower rank and after its rank's earlier ones.
  std::uint32_t loaded = 0;
  for (std::uint32_t& slot : next) loaded += std::exchange(slot, loaded);
  order_.resize(loaded);
  for (std::size_t i = 0; i < kinds_.size(); ++i)
    if (kinds_[i] != kKindAny)
      order_[next[kMatchEighths[kinds_[i]]]++] = static_cast<std::uint32_t>(i);
}

BitScanQuery::BitScanQuery(const EncodedQuery& query) {
  std::vector<BackElement> elements;
  elements.reserve(query.size());
  for (const Instruction& instr : query) elements.push_back(instr.decode());
  *this = BitScanQuery{elements};
}

// ---------------------------------------------------------------------------
// Kernel dispatch.

const ScanKernel* scan_kernel_for(ScanIsa isa) noexcept {
  switch (isa) {
    case ScanIsa::Scalar:
      return detail::scalar_kernel();
    case ScanIsa::Swar64:
      return detail::swar64_kernel();
    case ScanIsa::Avx2:
      return util::cpu_has_avx2() ? detail::avx2_kernel() : nullptr;
    case ScanIsa::Avx512:
      return util::cpu_has_avx512f() && util::cpu_has_bmi2()
                 ? detail::avx512_kernel()
                 : nullptr;
    case ScanIsa::Avx512Vbmi2:
      return util::cpu_has_avx512vbmi2() && util::cpu_has_bmi2()
                 ? detail::avx512vbmi2_kernel()
                 : nullptr;
  }
  return nullptr;
}

bool scan_isa_from_name(std::string_view name, ScanIsa& out) noexcept {
  if (name == "scalar") out = ScanIsa::Scalar;
  else if (name == "swar64") out = ScanIsa::Swar64;
  else if (name == "avx2") out = ScanIsa::Avx2;
  else if (name == "avx512") out = ScanIsa::Avx512;
  else if (name == "avx512vbmi2") out = ScanIsa::Avx512Vbmi2;
  else return false;
  return true;
}

const ScanKernel& active_scan_kernel() noexcept {
  static const ScanKernel* const chosen = [] {
    if (const char* force = std::getenv("FABP_FORCE_ISA")) {
      // Unknown names and ISAs the host cannot run fall through to
      // auto-detection — the override is a test hook, not a way to crash.
      ScanIsa isa;
      if (scan_isa_from_name(force, isa))
        if (const ScanKernel* kernel = scan_kernel_for(isa)) return kernel;
    }
    for (ScanIsa isa :
         {ScanIsa::Avx512Vbmi2, ScanIsa::Avx512, ScanIsa::Avx2})
      if (const ScanKernel* kernel = scan_kernel_for(isa)) return kernel;
    return scan_kernel_for(ScanIsa::Swar64);  // always present
  }();
  return *chosen;
}

}  // namespace fabp::core
