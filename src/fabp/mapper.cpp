#include "fabp/core/mapper.hpp"

#include <algorithm>
#include <cmath>

#include "fabp/hw/popcount.hpp"
#include "fabp/util/bitops.hpp"

namespace fabp::core {

namespace {

hw::ResourceBudget estimate(const MapperConstants& c,
                            std::size_t query_elements, std::size_t segments,
                            std::size_t channels, FabpMapping& breakdown) {
  const std::size_t seg =
      util::ceil_div(query_elements, std::max<std::size_t>(1, segments));
  const bool segmented = segments > 1;
  const std::size_t n = c.instances_per_beat * channels;

  const std::size_t comp = n * seg * c.comparator_luts_per_element;
  const std::size_t pop_luts = hw::popcounter_luts_handcrafted(seg);
  const std::size_t pop = n * pop_luts;
  const std::size_t mux =
      segmented ? static_cast<std::size_t>(
                      std::llround(static_cast<double>(n * seg) *
                                   c.segment_mux_luts_per_element))
                : 0;
  const std::size_t datapath = static_cast<std::size_t>(std::llround(
      static_cast<double>(n * seg) * c.datapath_luts_per_element));
  const std::size_t accum = segmented ? n * c.score_bits : 0;

  // §IV-B ablation: BRAM-resident buffers need fanout replication logic
  // at every instance (the congestion cost the paper's FF choice avoids).
  const std::size_t bram_fanout =
      c.buffers_in_bram
          ? static_cast<std::size_t>(std::llround(
                static_cast<double>(n * seg) *
                c.bram_fanout_luts_per_element))
          : 0;

  const double raw =
      static_cast<double>(comp + pop + mux + datapath + accum + bram_fanout);
  const std::size_t luts = static_cast<std::size_t>(
      std::llround(raw * c.lut_overhead)) + c.fixed_luts * channels;

  // FFs: match-bit pipeline registers (double-buffered when segmented),
  // pop-counter internal pipeline, score + partial accumulator, shared
  // query/stream storage ("FabP uses distributed memory resources (FFs)
  // for the query sequence and the reference stream buffer", §IV-B).
  const std::size_t match_regs = seg * (segmented ? 2 : 1);
  const std::size_t pop_ffs = static_cast<std::size_t>(std::llround(
      static_cast<double>(pop_luts) * c.pop_ff_per_lut));
  const std::size_t per_instance_ffs =
      match_regs + pop_ffs + c.score_bits + (segmented ? c.score_bits : 0);
  const std::size_t buffer_bits =
      6 * query_elements + 2 * (query_elements + 256);
  const std::size_t shared_ffs =
      ((c.buffers_in_bram ? 0 : buffer_bits) + c.fixed_ffs) * channels;
  const std::size_t ffs = n * per_instance_ffs + shared_ffs;

  const std::size_t dsps =
      n * (segmented ? 2 : 1) + c.fixed_dsps * channels;

  std::size_t bram_bits = static_cast<std::size_t>(std::llround(
      (c.bram_base_bits +
       c.bram_stream_bits / static_cast<double>(segments)) *
      static_cast<double>(channels)));
  if (c.buffers_in_bram) {
    // 18Kb block granularity: each buffer rounds up to whole blocks.
    constexpr std::size_t kBlockBits = 18 * 1024;
    bram_bits += util::ceil_div(buffer_bits, kBlockBits) * kBlockBits *
                 channels;
  }

  breakdown.comparator_luts = comp;
  breakdown.popcounter_luts = pop;
  breakdown.mux_luts = mux + datapath;
  breakdown.accumulator_luts = accum;
  breakdown.fixed_luts = c.fixed_luts * channels;
  breakdown.segment_elements = seg;

  return hw::ResourceBudget{luts, ffs, bram_bits, dsps};
}

/// Smallest segment count that fits `channels` beat-groups on the device,
/// or 0 when even full segmentation does not fit.
std::size_t min_segments(const hw::FpgaDevice& device,
                         const MapperConstants& constants,
                         std::size_t query_elements, std::size_t channels) {
  const std::size_t max_segments = std::max<std::size_t>(1, query_elements);
  for (std::size_t s = 1; s <= max_segments; ++s) {
    FabpMapping scratch;
    if (estimate(constants, query_elements, s, channels, scratch)
            .fits_in(device.capacity))
      return s;
  }
  return 0;
}

}  // namespace

FabpMapping map_design(const hw::FpgaDevice& device,
                       std::size_t query_elements,
                       const MapperConstants& constants,
                       const hw::AxiTimingConfig& axi) {
  FabpMapping mapping;
  mapping.query_elements = query_elements;
  mapping.capacity = device.capacity;
  mapping.axi_efficiency = hw::AxiReadStream::steady_state_efficiency(axi);

  // Pick the channel count maximizing effective bandwidth
  // channels * channel_bw * min(efficiency, 1/S(channels)); prefer fewer
  // channels on ties (less power, less BRAM).
  std::size_t best_channels = 1;
  std::size_t best_segments = 0;
  double best_bw = -1.0;
  const std::size_t max_channels =
      std::max<std::size_t>(1, device.memory_channels);
  for (std::size_t ch = 1; ch <= max_channels; ++ch) {
    const std::size_t s = min_segments(device, constants, query_elements, ch);
    if (s == 0) continue;
    const double bw =
        static_cast<double>(ch) * device.channel_bandwidth_bps *
        std::min(mapping.axi_efficiency, 1.0 / static_cast<double>(s));
    if (bw > best_bw + 0.5) {  // strict improvement beyond rounding noise
      best_bw = bw;
      best_channels = ch;
      best_segments = s;
    }
  }

  if (best_segments == 0) {
    // Nothing fits: report the single-channel, fully-segmented attempt.
    mapping.feasible = false;
    mapping.channels = 1;
    mapping.segments = std::max<std::size_t>(1, query_elements);
    mapping.used = estimate(constants, query_elements, mapping.segments, 1,
                            mapping);
  } else {
    mapping.feasible = true;
    mapping.channels = best_channels;
    mapping.segments = best_segments;
    mapping.used = estimate(constants, query_elements, best_segments,
                            best_channels, mapping);
  }

  const auto util = [](std::size_t used, std::size_t cap) {
    return cap == 0 ? 0.0
                    : static_cast<double>(used) / static_cast<double>(cap);
  };
  mapping.lut_util = util(mapping.used.luts, device.capacity.luts);
  mapping.ff_util = util(mapping.used.ffs, device.capacity.ffs);
  mapping.bram_util = util(mapping.used.bram_bits, device.capacity.bram_bits);
  mapping.dsp_util = util(mapping.used.dsps, device.capacity.dsps);

  mapping.effective_bandwidth_bps =
      static_cast<double>(mapping.channels) * device.channel_bandwidth_bps *
      std::min(mapping.axi_efficiency,
               1.0 / static_cast<double>(mapping.segments));
  mapping.bottleneck =
      (mapping.segments > 1 ||
       mapping.lut_util >= constants.resource_bound_utilization)
          ? Bottleneck::Resources
          : Bottleneck::Bandwidth;
  return mapping;
}

}  // namespace fabp::core
