#include "fabp/core/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/comparator.hpp"
#include "fabp/util/bitops.hpp"

namespace fabp::core {

using bio::Nucleotide;

namespace {

/// The element-by-element oracle: every alignment position through the
/// generated comparator LUTs, beat by beat over the Reference Stream
/// buffer.
std::vector<Hit> lut_path_hits(const EncodedQuery& query,
                               const bio::PackedNucleotides& reference,
                               std::uint32_t threshold) {
  std::vector<Hit> hits;
  const std::size_t elements_per_beat = bio::kElementsPerBeat;
  const std::size_t lq = query.size();
  const std::size_t last_position = reference.size() - lq;  // inclusive

  // Reference Stream buffer: previous L_q tail + the incoming 256 elements
  // (§III-C: L_ref_stream = L_q + 256).  Front-padded with A for beat 0.
  std::vector<Nucleotide> window(lq + elements_per_beat, Nucleotide::A);
  for (std::size_t beat = 0; beat < reference.beat_count(); ++beat) {
    // Shift the tail and load the 256 new elements from the beat words.
    std::copy(window.end() - static_cast<std::ptrdiff_t>(lq), window.end(),
              window.begin());
    const auto words = reference.beat(beat);
    for (std::size_t k = 0; k < elements_per_beat; ++k) {
      const std::uint64_t word = words[k / 32];
      const unsigned shift = 2 * static_cast<unsigned>(k % 32);
      window[lq + k] = bio::nucleotide_from_code(
          static_cast<std::uint8_t>((word >> shift) & 3));
    }

    // Alignment positions completed by this beat: p needs elements
    // [p, p+lq) and those must all have arrived (p + lq <= end) with the
    // last one arriving in *this* beat (p + lq > end - 256).
    const std::size_t window_start_abs = beat * elements_per_beat;
    const auto end = static_cast<std::ptrdiff_t>(window_start_abs +
                                                 elements_per_beat);
    const auto slq = static_cast<std::ptrdiff_t>(lq);
    const std::ptrdiff_t first_abs = std::max<std::ptrdiff_t>(
        0, end - static_cast<std::ptrdiff_t>(elements_per_beat) - slq + 1);
    const std::ptrdiff_t last_abs = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(last_position), end - slq);

    for (std::ptrdiff_t p = first_abs; p <= last_abs; ++p) {
      // Window index of absolute element a: a - (window_start_abs - lq).
      const std::size_t base =
          static_cast<std::size_t>(p) + lq - window_start_abs;
      std::uint32_t score = 0;
      for (std::size_t i = 0; i < lq; ++i) {
        const Nucleotide r = window[base + i];
        const Nucleotide im1 =
            base + i >= 1 ? window[base + i - 1] : Nucleotide::A;
        const Nucleotide im2 =
            base + i >= 2 ? window[base + i - 2] : Nucleotide::A;
        if (comparator_eval(query[i], r, im1, im2)) ++score;
      }
      if (score >= threshold)
        hits.push_back(Hit{static_cast<std::size_t>(p), score});
    }
  }
  return hits;
}

}  // namespace

StreamBeatTiming stream_beat_timing(const hw::AxiTimingConfig& axi_config,
                                    hw::FaultInjector* injector,
                                    std::size_t total_beats,
                                    std::size_t channels,
                                    std::size_t segments) {
  StreamBeatTiming out;
  out.beats = total_beats;
  // Beats arrive in lockstep groups of `channels`; every consumed group
  // holds the datapath for segments - 1 further cycles.
  const std::size_t total_groups =
      util::ceil_div(total_beats, std::max<std::size_t>(1, channels));
  out.compute_cycles = (segments - 1) * total_groups;
  if (injector == nullptr && segments == 1) {
    // Clean unsegmented stream: each group is consumed the cycle it lands,
    // so the stalls are exactly the AXI burst pattern's dead cycles.
    out.stall_cycles =
        hw::AxiReadStream::cycles_for_beats(axi_config, total_groups) -
        total_groups;
    return out;
  }

  // Stepped model, for injected stall storms and for the segmented pipe,
  // whose FIFO backpressure pauses the AXI pattern.  The AXI side refills
  // the FIFO every cycle it can, so DRAM stalls hide behind busy cycles;
  // one inner-loop iteration is one cycle.
  hw::FaultyAxiStream axi{axi_config, injector};
  constexpr std::size_t kFifoDepth = 8;  // AXI read FIFO, in beat groups
  std::size_t fetched_groups = 0, fifo = 0, busy = 0;
  for (std::size_t group = 0; group < total_groups; ++group) {
    for (;;) {
      if (fetched_groups < total_groups && fifo < kFifoDepth &&
          axi.advance()) {
        ++fifo;
        ++fetched_groups;
      }
      if (busy > 0) {
        --busy;
        continue;
      }
      if (fifo == 0) {
        ++out.stall_cycles;
        continue;
      }
      break;  // a group is ready and the datapath is free: consume it
    }
    --fifo;
    busy = segments - 1;
  }
  return out;
}

InvocationStrandTiming invocation_strand_timing(
    const AcceleratorConfig& acc, hw::FaultInjector* injector,
    std::size_t total_beats, std::size_t channels, std::size_t segments,
    std::size_t pe_count, std::size_t halo_beats, std::size_t total_hits) {
  InvocationStrandTiming out;
  const std::size_t pes = std::max<std::size_t>(1, pe_count);
  const std::size_t ch = std::max<std::size_t>(1, channels);
  std::size_t slowest = 0;
  for (std::size_t p = 0; p < pes; ++p) {
    std::size_t beats = (p + 1) * total_beats / pes - p * total_beats / pes;
    if (p + 1 < pes) beats += halo_beats;
    if (beats == 0) continue;
    const StreamBeatTiming t =
        stream_beat_timing(acc.axi, injector, beats, ch, segments);
    const std::size_t cycles =
        util::ceil_div(t.beats, ch) + t.stall_cycles + t.compute_cycles;
    out.pe_busy_cycles += cycles;
    slowest = std::max(slowest, cycles);
  }
  const std::size_t wb = util::ceil_div(total_hits * acc.wb_bytes_per_hit, 64);
  out.cycles = slowest + wb + acc.pipeline_depth;
  out.seconds = static_cast<double>(out.cycles) / acc.device.clock_hz;
  return out;
}

FabpMapping map_query(const AcceleratorConfig& config,
                      std::size_t query_elements) {
  if (query_elements == 0)
    throw std::invalid_argument{"Accelerator: empty query"};
  FabpMapping mapping = map_design(config.device, query_elements,
                                   config.mapper, config.axi);
  if (!mapping.feasible)
    throw std::invalid_argument{
        "Accelerator: query does not fit the device even fully segmented"};
  return mapping;
}

Accelerator::Accelerator(AcceleratorConfig config)
    : config_{std::move(config)} {}

const FabpMapping& Accelerator::load_query(
    const bio::ProteinSequence& protein) {
  return load_encoded(encode_query(protein));
}

const FabpMapping& Accelerator::load_encoded(EncodedQuery query) {
  mapping_ = map_query(config_, query.size());
  query_ = std::move(query);
  elements_.clear();
  elements_.reserve(query_.size());
  for (const Instruction& instr : query_)
    elements_.push_back(instr.decode());
  return mapping_;
}

AcceleratorRun Accelerator::run(const bio::PackedNucleotides& reference) const {
  if (query_.empty())
    throw std::logic_error{"Accelerator: no query loaded"};

  AcceleratorRun out;
  out.mapping = mapping_;
  const std::size_t lr = reference.size();
  if (lr < query_.size()) {
    finalize_timing(out, lr);
    return out;
  }

  // Functional hits: by default the tile-fused bit-sliced scan, streaming
  // the 2-bit packed reference directly (bit-exact with the per-position
  // behavioral evaluation — see tests/core/bitscan_test.cpp); the LUT path
  // keeps the element-by-element evaluation as the oracle.  Either way the
  // cycles are stream_beat_timing's, the accounting the device batch
  // scheduler shares.
  out.hits = config_.use_lut_path
                 ? lut_path_hits(query_, reference, config_.threshold)
                 : TileScanner{reference}.hits(BitScanQuery{elements_},
                                               config_.threshold);
  const StreamBeatTiming timing =
      stream_beat_timing(config_.axi, config_.fault_injector,
                         reference.beat_count(), mapping_.channels,
                         mapping_.segments);
  out.beats = timing.beats;
  out.stall_cycles = timing.stall_cycles;
  out.compute_cycles = timing.compute_cycles;
  finalize_timing(out, lr);
  return out;
}

AcceleratorRun Accelerator::estimate(std::size_t reference_elements,
                                     double expected_hit_density) const {
  if (query_.empty())
    throw std::logic_error{"Accelerator: no query loaded"};
  AcceleratorRun out;
  out.mapping = mapping_;
  out.beats = util::ceil_div(reference_elements, bio::kElementsPerBeat);
  // Steady state of the FIFO-overlapped pipeline: beats arrive in groups
  // of `channels` per cycle; cycles per group = max(1/efficiency,
  // segments); stalls only surface when the AXI side is slower than the
  // segmented datapath.
  const std::size_t groups =
      util::ceil_div(out.beats, std::max<std::size_t>(1, mapping_.channels));
  const double axi_eff = mapping_.axi_efficiency;
  const double segs = static_cast<double>(mapping_.segments);
  const double per_group = std::max(1.0 / axi_eff, segs);
  out.compute_cycles = groups * (mapping_.segments - 1);
  out.stall_cycles = static_cast<std::size_t>(std::llround(
      static_cast<double>(groups) * (per_group - segs)));
  const double hits = expected_hit_density *
                      static_cast<double>(reference_elements);
  out.hits.clear();
  out.wb_cycles = static_cast<std::size_t>(std::llround(
      hits * static_cast<double>(config_.wb_bytes_per_hit) / 64.0));
  out.cycles = groups + out.stall_cycles + out.compute_cycles +
               out.wb_cycles + config_.pipeline_depth;
  const double freq = config_.device.clock_hz;
  out.kernel_seconds = static_cast<double>(out.cycles) / freq;
  out.effective_bandwidth_bps =
      (static_cast<double>(reference_elements) / 4.0) / out.kernel_seconds;
  const hw::FpgaPowerModel power{config_.power};
  out.watts = power.watts(config_.device, mapping_.used, mapping_.channels);
  out.joules = out.watts * out.kernel_seconds;
  return out;
}

void Accelerator::finalize_timing(AcceleratorRun& out,
                                  std::size_t reference_elements) const {
  out.wb_cycles = util::ceil_div(
      out.hits.size() * config_.wb_bytes_per_hit, 64);
  const std::size_t groups =
      util::ceil_div(out.beats, std::max<std::size_t>(1, mapping_.channels));
  out.cycles = groups + out.stall_cycles + out.compute_cycles +
               out.wb_cycles + config_.pipeline_depth;
  out.kernel_seconds =
      static_cast<double>(out.cycles) / config_.device.clock_hz;
  out.effective_bandwidth_bps =
      out.kernel_seconds == 0.0
          ? 0.0
          : (static_cast<double>(reference_elements) / 4.0) /
                out.kernel_seconds;
  const hw::FpgaPowerModel power{config_.power};
  out.watts = power.watts(config_.device, mapping_.used, mapping_.channels);
  out.joules = out.watts * out.kernel_seconds;
}

}  // namespace fabp::core
