#pragma once
// Runtime x86 feature detection for the SIMD scan kernels.  The binary is
// compiled for baseline x86-64; the AVX2/AVX-512 kernel TUs carry wider
// instructions, so the dispatcher must prove — once, at startup — that the
// CPU *and* the OS (XSAVE state for ymm/zmm registers) support them before
// any such code runs.  On non-x86 targets every probe reports false and
// the portable SWAR kernel is chosen.

namespace fabp::util {

/// CPU + OS support for AVX2 (256-bit ymm state enabled in XCR0).
bool cpu_has_avx2() noexcept;

/// CPU + OS support for AVX-512F (opmask + zmm state enabled in XCR0).
bool cpu_has_avx512f() noexcept;

/// CPU + OS support for AVX-512 VBMI2 (VPSHRDV funnel shifts); implies
/// cpu_has_avx512f().
bool cpu_has_avx512vbmi2() noexcept;

/// CPU support for BMI2 (PEXT/PDEP); general-purpose registers only, so
/// no OS state is involved.
bool cpu_has_bmi2() noexcept;

/// Human-readable summary of the probes above, e.g.
/// "avx2+avx512f+vbmi2", "avx2+avx512f", "avx2", or "baseline" — for
/// bench/CLI banners.
const char* cpu_isa_summary() noexcept;

}  // namespace fabp::util
