#include "fabp/perf/figure6.hpp"

#include <cmath>

#include "fabp/util/stats.hpp"

namespace fabp::perf {

std::vector<Figure6Row> run_figure6(const Figure6Config& config) {
  std::vector<Figure6Row> rows;

  // One synthetic sample reference with planted genes long enough for the
  // largest query; CPU throughput is measured on it per query length.
  const std::size_t max_len =
      *std::max_element(config.query_lengths.begin(),
                        config.query_lengths.end());
  bio::DatabaseSpec db_spec;
  db_spec.total_bases = config.cpu_sample_bases;
  db_spec.gene_count = 8;
  db_spec.gene_length = max_len + 10;
  db_spec.seed = config.seed;
  const bio::SyntheticDatabase sample = bio::SyntheticDatabase::build(db_spec);

  for (std::size_t length : config.query_lengths) {
    Figure6Row row;
    row.query_length = length;
    row.query_elements = 3 * length;

    bio::QuerySpec qspec;
    qspec.length = length;
    qspec.seed = config.seed + length;
    const bio::QuerySet queries = bio::sample_queries(sample, 1, qspec);
    const bio::ProteinSequence& query = queries.queries.front();

    // CPU: measure 1T on the sample, extrapolate to the nominal database.
    const CpuMeasurement m = measure_tblastn(query, sample.dna);
    row.cpu1 = cpu_result(m, config.cpu, config.db_bases, false);
    row.cpu12 = cpu_result(m, config.cpu, config.db_bases, true);

    // GPU: analytic over the same element workload (db bases == elements).
    row.gpu = gpu_result(config.gpu, config.db_bases, row.query_elements);

    // FabP: host estimate over the nominal database (2-bit packed bytes).
    const auto threshold = static_cast<std::uint32_t>(std::llround(
        config.threshold_fraction * static_cast<double>(row.query_elements)));
    row.fabp =
        fabp_result(config.host, query, threshold, config.db_bases / 4);

    const auto ratio = [](double base, double x) {
      return x > 0.0 ? base / x : 0.0;
    };
    row.speedup_cpu12 = ratio(row.cpu1.seconds, row.cpu12.seconds);
    row.speedup_gpu = ratio(row.cpu1.seconds, row.gpu.seconds);
    row.speedup_fabp = ratio(row.cpu1.seconds, row.fabp.seconds);
    row.energy_cpu12 = ratio(row.cpu1.joules, row.cpu12.joules);
    row.energy_gpu = ratio(row.cpu1.joules, row.gpu.joules);
    row.energy_fabp = ratio(row.cpu1.joules, row.fabp.joules);

    rows.push_back(row);
  }
  return rows;
}

Figure6Summary summarize(const std::vector<Figure6Row>& rows) {
  Figure6Summary s;
  if (rows.empty()) return s;
  std::vector<double> vs_gpu, vs_cpu12, e_gpu, e_cpu12;
  for (const Figure6Row& row : rows) {
    if (row.gpu.seconds > 0) vs_gpu.push_back(row.gpu.seconds / row.fabp.seconds);
    if (row.cpu12.seconds > 0)
      vs_cpu12.push_back(row.cpu12.seconds / row.fabp.seconds);
    if (row.fabp.joules > 0) {
      e_gpu.push_back(row.gpu.joules / row.fabp.joules);
      e_cpu12.push_back(row.cpu12.joules / row.fabp.joules);
    }
  }
  s.fabp_over_gpu_speedup = util::mean(vs_gpu);
  s.fabp_over_cpu12_speedup = util::mean(vs_cpu12);
  s.fabp_over_gpu_energy = util::mean(e_gpu);
  s.fabp_over_cpu12_energy = util::mean(e_cpu12);
  return s;
}

}  // namespace fabp::perf
