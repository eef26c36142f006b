#include "fabp/core/accelerator.hpp"

#include <gtest/gtest.h>

#include "fabp/bio/generate.hpp"

namespace fabp::core {
namespace {

using bio::NucleotideSequence;
using bio::PackedNucleotides;
using bio::ProteinSequence;

AcceleratorConfig config_with_threshold(std::uint32_t t) {
  AcceleratorConfig cfg;
  cfg.threshold = t;
  return cfg;
}

TEST(Accelerator, RequiresLoadedQuery) {
  Accelerator acc;
  EXPECT_THROW(acc.run(PackedNucleotides{}), std::logic_error);
  EXPECT_THROW(acc.estimate(1000), std::logic_error);
  EXPECT_THROW(acc.load_query(ProteinSequence{}), std::invalid_argument);
}

TEST(Accelerator, HitsMatchGoldenModelRandomized) {
  // The central property: the cycle-level simulator produces exactly the
  // golden model's hits, across query lengths spanning beat boundaries
  // and references of several beats.
  util::Xoshiro256 rng{111};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t residues = 4 + rng.bounded(40);  // 12..132 elements
    const ProteinSequence protein = bio::random_protein(residues, rng);
    NucleotideSequence ref = bio::random_dna(300 + rng.bounded(1500), rng);
    // Plant the query so high-threshold hits exist.
    const NucleotideSequence coding =
        bio::random_coding_sequence(protein, rng);
    const std::size_t pos = rng.bounded(ref.size() - coding.size());
    for (std::size_t i = 0; i < coding.size(); ++i) ref[pos + i] = coding[i];

    const auto threshold = static_cast<std::uint32_t>(
        (residues * 3 * (60 + rng.bounded(41))) / 100);  // 60-100%

    Accelerator acc{config_with_threshold(threshold)};
    acc.load_query(protein);
    const AcceleratorRun run = acc.run(PackedNucleotides{ref});

    const auto expected =
        golden_hits(back_translate(protein), ref, threshold);
    EXPECT_EQ(run.hits, expected) << "trial " << trial << " residues "
                                  << residues << " t " << threshold;
  }
}

TEST(Accelerator, LutPathIdenticalToBehavioralPath) {
  // Both paths share one cycle model: equal hits and equal timing, clean
  // and unsegmented, segmented (250 aa = 750 elements on kintex7), and
  // with a stall-storm injector (one per accelerator, same seed and
  // stream, so both draw the same schedule).
  util::Xoshiro256 rng{113};
  const PackedNucleotides packed{bio::random_dna(6000, rng)};
  hw::FaultConfig storms;
  storms.stall_rate = 0.25;
  storms.stall_cycles = 7;
  for (const std::size_t residues : {20u, 250u}) {
    const ProteinSequence protein = bio::random_protein(residues, rng);
    for (const bool faulty : {false, true}) {
      hw::FaultInjector fast_storms{storms, 3}, lut_storms{storms, 3};
      AcceleratorConfig fast = config_with_threshold(
          static_cast<std::uint32_t>(residues * 2));
      if (faulty) fast.fault_injector = &fast_storms;
      AcceleratorConfig lut = fast;
      lut.use_lut_path = true;
      if (faulty) lut.fault_injector = &lut_storms;

      Accelerator a{fast}, b{lut};
      a.load_query(protein);
      b.load_query(protein);
      EXPECT_EQ(a.mapping().segments > 1, residues == 250u);
      const AcceleratorRun ra = a.run(packed), rb = b.run(packed);
      SCOPED_TRACE(testing::Message()
                   << residues << " aa, faulty " << faulty);
      EXPECT_EQ(ra.hits, rb.hits);
      EXPECT_EQ(ra.beats, rb.beats);
      EXPECT_EQ(ra.cycles, rb.cycles);
      EXPECT_EQ(ra.stall_cycles, rb.stall_cycles);
      EXPECT_EQ(ra.compute_cycles, rb.compute_cycles);
      EXPECT_EQ(fast_storms.log().empty(), !faulty);
    }
  }
}

TEST(Accelerator, QueryLongerThanBeat) {
  // 100 residues = 300 elements > 256: positions span three beats.
  util::Xoshiro256 rng{117};
  const ProteinSequence protein = bio::random_protein(100, rng);
  NucleotideSequence ref = bio::random_dna(3000, rng);
  const NucleotideSequence coding = random_template_coding(protein, rng);
  for (std::size_t i = 0; i < coding.size(); ++i) ref[411 + i] = coding[i];

  const auto threshold = static_cast<std::uint32_t>(coding.size());
  Accelerator acc{config_with_threshold(threshold)};
  acc.load_query(protein);
  const AcceleratorRun run = acc.run(PackedNucleotides{ref});
  ASSERT_EQ(run.hits.size(),
            golden_hits(back_translate(protein), ref, threshold).size());
  bool found = false;
  for (const Hit& h : run.hits)
    if (h.position == 411) found = true;
  EXPECT_TRUE(found);
}

TEST(Accelerator, ReferenceShorterThanQueryYieldsNoHits) {
  util::Xoshiro256 rng{119};
  const ProteinSequence protein = bio::random_protein(30, rng);
  Accelerator acc{config_with_threshold(0)};
  acc.load_query(protein);
  const AcceleratorRun run = acc.run(PackedNucleotides{
      bio::random_dna(50, rng)});
  EXPECT_TRUE(run.hits.empty());
}

TEST(Accelerator, CycleAccountingIsConsistent) {
  util::Xoshiro256 rng{127};
  const ProteinSequence protein = bio::random_protein(10, rng);
  Accelerator acc{config_with_threshold(31)};
  acc.load_query(protein);
  const AcceleratorRun run =
      acc.run(PackedNucleotides{bio::random_dna(10'000, rng)});

  EXPECT_EQ(run.beats, (10'000 + 255) / 256);
  EXPECT_EQ(run.cycles, run.beats + run.stall_cycles + run.compute_cycles +
                            run.wb_cycles + acc.config().pipeline_depth);
  EXPECT_GT(run.kernel_seconds, 0.0);
  EXPECT_GT(run.watts, 0.0);
  EXPECT_NEAR(run.joules, run.watts * run.kernel_seconds, 1e-12);
}

TEST(Accelerator, StallsMatchAxiEfficiency) {
  util::Xoshiro256 rng{131};
  const ProteinSequence protein = bio::random_protein(10, rng);
  Accelerator acc{config_with_threshold(30)};
  acc.load_query(protein);
  const AcceleratorRun run =
      acc.run(PackedNucleotides{bio::random_dna(100'000, rng)});
  const double measured_eff =
      static_cast<double>(run.beats) /
      static_cast<double>(run.beats + run.stall_cycles);
  EXPECT_NEAR(measured_eff, acc.mapping().axi_efficiency, 0.01);
}

TEST(Accelerator, SegmentedQueryAddsComputeCycles) {
  util::Xoshiro256 rng{137};
  const ProteinSequence protein = bio::random_protein(250, rng);
  Accelerator acc{config_with_threshold(750)};
  const FabpMapping& m = acc.load_query(protein);
  ASSERT_GT(m.segments, 1u);
  const AcceleratorRun run =
      acc.run(PackedNucleotides{bio::random_dna(20'000, rng)});
  EXPECT_EQ(run.compute_cycles, run.beats * (m.segments - 1));
}

TEST(Accelerator, EstimateMatchesRunTimingClosely) {
  util::Xoshiro256 rng{139};
  const ProteinSequence protein = bio::random_protein(50, rng);
  Accelerator acc{config_with_threshold(150)};
  acc.load_query(protein);

  const std::size_t elements = 200'000;
  const AcceleratorRun run =
      acc.run(PackedNucleotides{bio::random_dna(elements, rng)});
  const AcceleratorRun est = acc.estimate(elements);
  EXPECT_NEAR(static_cast<double>(est.cycles),
              static_cast<double>(run.cycles),
              static_cast<double>(run.cycles) * 0.02);
}

TEST(Accelerator, EstimateBandwidthMatchesMapping) {
  util::Xoshiro256 rng{149};
  for (std::size_t residues : {50u, 250u}) {
    const ProteinSequence protein = bio::random_protein(residues, rng);
    Accelerator acc{config_with_threshold(0)};
    acc.load_query(protein);
    const AcceleratorRun est = acc.estimate(100'000'000);
    EXPECT_NEAR(est.effective_bandwidth_bps,
                acc.mapping().effective_bandwidth_bps,
                acc.mapping().effective_bandwidth_bps * 0.02)
        << residues;
  }
}

TEST(Accelerator, ThresholdZeroEmitsEveryPosition) {
  util::Xoshiro256 rng{151};
  const ProteinSequence protein = bio::random_protein(5, rng);
  Accelerator acc{config_with_threshold(0)};
  acc.load_query(protein);
  const NucleotideSequence ref = bio::random_dna(700, rng);
  const AcceleratorRun run = acc.run(PackedNucleotides{ref});
  EXPECT_EQ(run.hits.size(), ref.size() - 15 + 1);
}

TEST(Accelerator, RunIsDeterministic) {
  util::Xoshiro256 rng{159};
  const ProteinSequence protein = bio::random_protein(15, rng);
  Accelerator acc{config_with_threshold(30)};
  acc.load_query(protein);
  const PackedNucleotides packed{bio::random_dna(5000, rng)};
  const AcceleratorRun a = acc.run(packed);
  const AcceleratorRun b = acc.run(packed);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
}

TEST(Accelerator, ReloadingQueryReplacesState) {
  util::Xoshiro256 rng{160};
  Accelerator acc{config_with_threshold(0)};
  acc.load_query(bio::random_protein(10, rng));
  EXPECT_EQ(acc.encoded_query().size(), 30u);
  acc.load_query(bio::random_protein(20, rng));
  EXPECT_EQ(acc.encoded_query().size(), 60u);
  EXPECT_EQ(acc.mapping().query_elements, 60u);
}

TEST(Accelerator, MappingExposedAfterLoad) {
  util::Xoshiro256 rng{157};
  Accelerator acc;
  const ProteinSequence protein = bio::random_protein(50, rng);
  const FabpMapping& m = acc.load_query(protein);
  EXPECT_EQ(m.query_elements, 150u);
  EXPECT_EQ(acc.encoded_query().size(), 150u);
}

// ---------------------------------------------------------------------------
// Clean beat timing in closed form.  A zero-rate injector makes
// stream_beat_timing step its cycle loop (the fault path) without drawing
// a single storm, so it is the stepped oracle for the null-injector form.

StreamBeatTiming stepped_timing(const hw::AxiTimingConfig& axi,
                                std::size_t beats, std::size_t channels,
                                std::size_t segments) {
  hw::FaultInjector quiet{hw::FaultConfig{}, 0};
  return stream_beat_timing(axi, &quiet, beats, channels, segments);
}

TEST(StreamBeatTiming, ClosedFormMatchesSteppedLoopOnGrid) {
  const std::vector<hw::AxiTimingConfig> configs{
      hw::AxiTimingConfig{},                    // defaults
      hw::AxiTimingConfig{4, 2, 1'000'000, 0},  // burst gaps only
      hw::AxiTimingConfig{1'000'000, 0, 4, 3},  // page penalty only
      hw::AxiTimingConfig{4, 2, 6, 3},          // page not a burst multiple
      hw::AxiTimingConfig{3, 1, 7, 5},          // ragged everything
      hw::AxiTimingConfig{64, 0, 2048, 0},      // perfect stream
      hw::AxiTimingConfig{16, 12, 64, 20},      // long gaps: S >= 2 stalls
      hw::AxiTimingConfig{8, 30, 32, 40},       // AXI slower than 1/S
  };
  std::vector<std::size_t> beat_counts;
  for (std::size_t beats = 0; beats <= 300; ++beats)
    beat_counts.push_back(beats);
  for (const std::size_t beats : {511u, 2047u, 2048u, 2049u, 4096u, 10'007u,
                                  16'384u, 65'536u})
    beat_counts.push_back(beats);
  for (std::size_t c = 0; c < configs.size(); ++c)
    for (std::size_t channels = 1; channels <= 4; ++channels)
      for (std::size_t segments = 1; segments <= 6; ++segments)
        for (const std::size_t beats : beat_counts) {
          const StreamBeatTiming clean = stream_beat_timing(
              configs[c], nullptr, beats, channels, segments);
          const StreamBeatTiming stepped =
              stepped_timing(configs[c], beats, channels, segments);
          ASSERT_EQ(clean.beats, stepped.beats);
          ASSERT_EQ(clean.stall_cycles, stepped.stall_cycles)
              << "config " << c << " ch " << channels << " S " << segments
              << " beats " << beats;
          ASSERT_EQ(clean.compute_cycles, stepped.compute_cycles)
              << "config " << c << " ch " << channels << " S " << segments
              << " beats " << beats;
        }
}

TEST(InvocationStrandTiming, MatchesSteppedPerPeSumWithHalo) {
  AcceleratorConfig acc;
  acc.axi = hw::AxiTimingConfig{16, 12, 64, 20};
  const std::size_t total_beats = 1003, halo_beats = 2, hits = 77;
  for (const std::size_t pe_count : {1u, 2u, 4u})
    for (const std::size_t segments : {1u, 3u}) {
      std::size_t slowest = 0, busy = 0;
      for (std::size_t p = 0; p < pe_count; ++p) {
        std::size_t beats = (p + 1) * total_beats / pe_count -
                            p * total_beats / pe_count;
        if (p + 1 < pe_count) beats += halo_beats;
        const StreamBeatTiming t = stepped_timing(acc.axi, beats, 2, segments);
        const std::size_t cycles =
            (t.beats + 1) / 2 + t.stall_cycles + t.compute_cycles;
        busy += cycles;
        slowest = std::max(slowest, cycles);
      }
      const InvocationStrandTiming timing = invocation_strand_timing(
          acc, nullptr, total_beats, 2, segments, pe_count, halo_beats, hits);
      SCOPED_TRACE(testing::Message()
                   << "pe " << pe_count << " S " << segments);
      EXPECT_EQ(timing.pe_busy_cycles, busy);
      EXPECT_EQ(timing.cycles,
                slowest + (hits * acc.wb_bytes_per_hit + 63) / 64 +
                    acc.pipeline_depth);
      EXPECT_DOUBLE_EQ(timing.seconds, static_cast<double>(timing.cycles) /
                                           acc.device.clock_hz);
    }
}

}  // namespace
}  // namespace fabp::core
