#include "fabp/perf/models.hpp"

#include <gtest/gtest.h>

#include "fabp/core/engine.hpp"
#include "fabp/perf/figure6.hpp"

namespace fabp::perf {
namespace {

TEST(Platforms, SpecsAreSane) {
  const CpuSpec cpu = i7_8700k();
  EXPECT_EQ(cpu.threads, 12u);
  EXPECT_GT(cpu.watts_all_threads, cpu.watts_single_thread);
  EXPECT_GT(cpu.speedup_12t(), 1.0);
  EXPECT_LT(cpu.speedup_12t(), 12.0);

  const GpuSpec gpu = gtx_1080ti();
  EXPECT_EQ(gpu.cuda_cores, 3584u);
  EXPECT_GT(gpu.comparisons_per_second(), 1e12);
  EXPECT_LT(gpu.comparisons_per_second(), 1e14);
}

TEST(CpuModel, MeasurementProducesRate) {
  util::Xoshiro256 rng{211};
  const bio::ProteinSequence query = bio::random_protein(30, rng);
  const bio::NucleotideSequence sample = bio::random_dna(200'000, rng);
  const CpuMeasurement m = measure_tblastn(query, sample);
  EXPECT_EQ(m.sample_bases, 200'000u);
  EXPECT_GT(m.host_seconds, 0.0);
  EXPECT_GT(m.bases_per_second, 0.0);
  EXPECT_GT(m.stats.word_probes, 0u);
}

TEST(CpuModel, ExtrapolationIsLinearInDbSize) {
  CpuMeasurement m;
  m.bases_per_second = 1e6;
  const CpuSpec cpu = i7_8700k();
  const PlatformResult small = cpu_result(m, cpu, 1'000'000, false);
  const PlatformResult large = cpu_result(m, cpu, 10'000'000, false);
  EXPECT_NEAR(large.seconds / small.seconds, 10.0, 1e-9);
}

TEST(CpuModel, MultithreadScalesByEfficiency) {
  CpuMeasurement m;
  m.bases_per_second = 1e6;
  const CpuSpec cpu = i7_8700k();
  const PlatformResult one = cpu_result(m, cpu, 1'000'000, false);
  const PlatformResult twelve = cpu_result(m, cpu, 1'000'000, true);
  EXPECT_NEAR(one.seconds / twelve.seconds, cpu.speedup_12t(), 1e-9);
  EXPECT_GT(twelve.watts, one.watts);
}

TEST(GpuModel, ScalesWithWorkload) {
  const GpuSpec gpu = gtx_1080ti();
  const PlatformResult a = gpu_result(gpu, 1'000'000'000, 150);
  const PlatformResult b = gpu_result(gpu, 1'000'000'000, 300);
  EXPECT_GT(b.seconds, a.seconds * 1.8);
  EXPECT_LT(b.seconds, a.seconds * 2.2);
}

TEST(GpuModel, TinyWorkloadDominatedByLaunch) {
  const GpuSpec gpu = gtx_1080ti();
  const PlatformResult r = gpu_result(gpu, 10'000, 150);
  EXPECT_NEAR(r.seconds, 50e-6, 10e-6);
}

TEST(GpuModel, EnergyIsPowerTimesTime) {
  const GpuSpec gpu = gtx_1080ti();
  const PlatformResult r = gpu_result(gpu, 1'000'000'000, 450);
  EXPECT_NEAR(r.joules, r.seconds * gpu.watts, 1e-9);
}

TEST(FabpModel, MatchesEngineEstimate) {
  util::Xoshiro256 rng{223};
  const core::Engine engine;
  const bio::ProteinSequence query = bio::random_protein(50, rng);
  const PlatformResult r =
      fabp_result(engine.host_config(), query, 120, 1 << 26);
  const core::HostRunReport direct = engine.estimate(query, 120, 1 << 26);
  EXPECT_DOUBLE_EQ(r.seconds, direct.total_s);
  EXPECT_DOUBLE_EQ(r.joules, direct.joules);
}

TEST(Figure6, SmallSweepHasPaperShape) {
  // A reduced sweep (tiny sample, small nominal DB) must still show the
  // paper's ordering: FabP and GPU comparable, both far ahead of CPU-12T,
  // and FabP far ahead on energy.
  Figure6Config cfg;
  cfg.query_lengths = {50, 150, 250};
  cfg.cpu_sample_bases = 60'000;       // keep the measured stage quick
  cfg.db_bases = std::size_t{1} << 26; // 64 Mbase nominal
  const auto rows = run_figure6(cfg);
  ASSERT_EQ(rows.size(), 3u);

  for (const Figure6Row& row : rows) {
    EXPECT_GT(row.speedup_fabp, row.speedup_cpu12) << row.query_length;
    EXPECT_GT(row.energy_fabp, row.energy_gpu) << row.query_length;
    EXPECT_GT(row.cpu1.seconds, row.cpu12.seconds);
  }

  const Figure6Summary s = summarize(rows);
  EXPECT_GT(s.fabp_over_cpu12_speedup, 2.0);
  EXPECT_GT(s.fabp_over_gpu_energy, 5.0);
  // FabP and the GPU are the same order of magnitude (paper: 8.1% apart).
  EXPECT_GT(s.fabp_over_gpu_speedup, 0.3);
  EXPECT_LT(s.fabp_over_gpu_speedup, 5.0);
}

TEST(Figure6, ExecutionTimeGrowsWithQueryLength) {
  Figure6Config cfg;
  cfg.query_lengths = {50, 250};
  cfg.cpu_sample_bases = 60'000;
  cfg.db_bases = std::size_t{1} << 26;
  const auto rows = run_figure6(cfg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_GT(rows[1].gpu.seconds, rows[0].gpu.seconds);
  EXPECT_GT(rows[1].fabp.seconds, rows[0].fabp.seconds);
}

}  // namespace
}  // namespace fabp::perf
