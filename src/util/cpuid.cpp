#include "fabp/util/cpuid.hpp"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace fabp::util {

namespace {

#if defined(__x86_64__) || defined(__i386__)

// XCR0 via xgetbv (no -mxsave needed for the raw encoding).  Only called
// after CPUID reports OSXSAVE, so the instruction is guaranteed present.
std::uint64_t xcr0() noexcept {
  std::uint32_t eax, edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

struct Features {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512vbmi2 = false;
  bool bmi2 = false;
};

Features probe() noexcept {
  Features f;
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return f;
  // BMI2 works on general-purpose registers: no OS state to check.
  f.bmi2 = (ebx & (1u << 8)) != 0;                 // leaf 7.0 EBX.BMI2
  if (!osxsave) return f;  // OS never enabled extended state: stay baseline
  const std::uint64_t x = xcr0();
  const bool ymm_ok = (x & 0x06) == 0x06;          // XMM + YMM saved
  const bool zmm_ok = (x & 0xE6) == 0xE6;          // + opmask, zmm, hi16_zmm
  f.avx2 = ymm_ok && (ebx & (1u << 5)) != 0;       // leaf 7.0 EBX.AVX2
  f.avx512f = zmm_ok && (ebx & (1u << 16)) != 0;   // leaf 7.0 EBX.AVX512F
  // Leaf 7.0 ECX.AVX512_VBMI2; gated on AVX512F (and so on the zmm state)
  // so the implication in the header holds even on hypothetical CPUID
  // combinations.
  f.avx512vbmi2 = f.avx512f && (ecx & (1u << 6)) != 0;
  return f;
}

#else

struct Features {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512vbmi2 = false;
  bool bmi2 = false;
};

Features probe() noexcept { return {}; }

#endif

const Features& features() noexcept {
  static const Features f = probe();
  return f;
}

}  // namespace

bool cpu_has_avx2() noexcept { return features().avx2; }

bool cpu_has_avx512f() noexcept { return features().avx512f; }

bool cpu_has_avx512vbmi2() noexcept { return features().avx512vbmi2; }

bool cpu_has_bmi2() noexcept { return features().bmi2; }

const char* cpu_isa_summary() noexcept {
  const Features& f = features();
  if (f.avx512vbmi2) return "avx2+avx512f+vbmi2";
  if (f.avx512f) return "avx2+avx512f";
  if (f.avx2) return "avx2";
  return "baseline";
}

}  // namespace fabp::util
