#include "fabp/perf/models.hpp"

#include "fabp/core/backend.hpp"
#include "fabp/util/timer.hpp"

namespace fabp::perf {

CpuMeasurement measure_tblastn(const bio::ProteinSequence& query,
                               const bio::NucleotideSequence& sample,
                               const blast::TblastnConfig& config) {
  CpuMeasurement m;
  m.sample_bases = sample.size();

  blast::Tblastn engine{query, config};
  util::Timer timer;
  const blast::TblastnResult result = engine.search(sample);
  m.host_seconds = timer.seconds();
  m.stats = result.stats;
  m.bases_per_second = m.host_seconds > 0.0
                           ? static_cast<double>(sample.size()) /
                                 m.host_seconds
                           : 0.0;
  return m;
}

PlatformResult cpu_result(const CpuMeasurement& m, const CpuSpec& cpu,
                          std::size_t db_bases, bool multithreaded) {
  PlatformResult out;
  const double target_rate = m.bases_per_second * cpu.host_to_target_speed;
  double seconds = target_rate > 0.0
                       ? static_cast<double>(db_bases) / target_rate
                       : 0.0;
  if (multithreaded) seconds /= cpu.speedup_12t();
  out.seconds = seconds;
  out.watts =
      multithreaded ? cpu.watts_all_threads : cpu.watts_single_thread;
  out.joules = out.watts * out.seconds;
  return out;
}

PlatformResult gpu_result(const GpuSpec& gpu, std::size_t db_elements,
                          std::size_t query_elements,
                          double launch_overhead_s) {
  PlatformResult out;
  if (db_elements < query_elements) return out;
  const double positions =
      static_cast<double>(db_elements - query_elements + 1);
  const double comparisons =
      positions * static_cast<double>(query_elements);
  const double compute_s = comparisons / gpu.comparisons_per_second();
  // Streaming the 2-bit packed reference through the memory hierarchy;
  // every element is reused query_elements times from shared memory, so
  // DRAM traffic is ~one pass over the packed database.
  const double dma_s =
      (static_cast<double>(db_elements) / 4.0) / gpu.memory_bandwidth_bps;
  out.seconds = std::max(compute_s, dma_s) + launch_overhead_s;
  out.watts = gpu.watts;
  out.joules = out.watts * out.seconds;
  return out;
}

PlatformResult fabp_result(const core::HostConfig& config,
                           const bio::ProteinSequence& query,
                           std::uint32_t threshold, std::size_t db_bytes) {
  const core::HostRunReport report = core::estimate_run(
      config, *core::compile_query(query), threshold, db_bytes);
  PlatformResult out;
  out.seconds = report.total_s;
  out.watts = report.watts;
  out.joules = report.joules;
  return out;
}

}  // namespace fabp::perf
