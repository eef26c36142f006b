#pragma once
// Cross-platform time and energy models that produce the Figure-6 rows.
//
//  * CPU (TBLASTN 1T): our pipeline is *measured* on a sampled reference,
//    converted to a per-base rate, rescaled to the target CPU via
//    CpuSpec::host_to_target_speed, then extrapolated to the full database.
//  * CPU 12T: 1T divided by threads * parallel_efficiency (the measuring
//    host has too few cores to measure 12 threads honestly).
//  * GPU: analytic throughput model (GpuSpec) over the same element-
//    comparison workload, plus PCIe/launch overheads.
//  * FabP: the Accelerator's timing estimate (cycle accounting) plus the
//    same host-side overheads (core::estimate_run).

#include <cstddef>

#include "fabp/bio/generate.hpp"
#include "fabp/blast/tblastn.hpp"
#include "fabp/core/host.hpp"
#include "fabp/perf/platform.hpp"

namespace fabp::perf {

struct PlatformResult {
  double seconds = 0.0;
  double watts = 0.0;
  double joules = 0.0;
};

/// Measured single-thread TBLASTN throughput for one query length.
struct CpuMeasurement {
  double host_seconds = 0.0;       // wall time on the sampled reference
  std::size_t sample_bases = 0;
  double bases_per_second = 0.0;   // on the measuring host
  blast::TblastnStats stats;       // pipeline stage counters
};

/// Runs the TBLASTN pipeline once on `sample` and derives the rate.
CpuMeasurement measure_tblastn(const bio::ProteinSequence& query,
                               const bio::NucleotideSequence& sample,
                               const blast::TblastnConfig& config = {});

/// Extrapolates a measurement to `db_bases` on the target CPU.
PlatformResult cpu_result(const CpuMeasurement& m, const CpuSpec& cpu,
                          std::size_t db_bases, bool multithreaded);

/// GPU model: workload = (db_elements - query_elements + 1) * query
/// elements comparisons, plus reference DMA at memory bandwidth and a
/// fixed launch overhead.
PlatformResult gpu_result(const GpuSpec& gpu, std::size_t db_elements,
                          std::size_t query_elements,
                          double launch_overhead_s = 50e-6);

/// FabP via the host timing estimate under `config`.
PlatformResult fabp_result(const core::HostConfig& config,
                           const bio::ProteinSequence& query,
                           std::uint32_t threshold, std::size_t db_bytes);

}  // namespace fabp::perf
