#pragma once
// Cycle-level simulator of the FabP accelerator (paper §III-C, Fig. 3).
//
// Per valid 512-bit AXI beat, 256 reference elements enter the Reference
// Stream buffer (which keeps the previous L_q-element tail so alignment
// positions spanning two beats are covered).  All alignment positions whose
// last element arrived with this beat are evaluated: L_q comparator matches
// are counted by the pop-counter and compared against the user threshold
// (DSP); hits go to the write-back buffer and ultimately to DRAM.  When the
// resource mapper assigns S > 1 segments, each beat occupies the datapath
// for S cycles and the AXI stream is throttled accordingly, which is
// exactly the effective-bandwidth loss Table I reports for long queries.
//
// run() is functional + timing and bit-exact against the golden model (the
// match bits come from the generated comparator LUTs when `use_lut_path`).
// estimate() is timing-only (closed form over the same cycle accounting)
// for database-scale workloads where a functional scan is not the point.

#include <cstdint>
#include <vector>

#include "fabp/bio/packed.hpp"
#include "fabp/core/golden.hpp"
#include "fabp/core/mapper.hpp"
#include "fabp/hw/axi.hpp"
#include "fabp/hw/device.hpp"
#include "fabp/hw/fault.hpp"
#include "fabp/hw/power.hpp"

namespace fabp::core {

struct AcceleratorConfig {
  hw::FpgaDevice device = hw::kintex7();
  hw::AxiTimingConfig axi{};
  MapperConstants mapper{};
  hw::PowerModelConfig power{};
  std::uint32_t threshold = 0;     // user-defined hit threshold (score >=)
  bool use_lut_path = false;       // evaluate matches through the LUT pair
  std::size_t pipeline_depth = 12; // fill latency, cycles
  std::size_t wb_bytes_per_hit = 8;  // position + score record

  /// Optional fault injection on the AXI read channel: when set, run()
  /// streams beats through a FaultyAxiStream so stall storms surface as
  /// ordinary fifo-empty stalls (inflating kernel time, which is how the
  /// host watchdog sees them).  Non-owning; null = clean channel.
  hw::FaultInjector* fault_injector = nullptr;
};

struct AcceleratorRun {
  std::vector<Hit> hits;

  FabpMapping mapping;
  std::size_t beats = 0;            // AXI beats consumed
  std::size_t cycles = 0;           // total kernel cycles
  std::size_t stall_cycles = 0;     // cycles with no valid AXI data
  std::size_t compute_cycles = 0;   // beats * segments
  std::size_t wb_cycles = 0;        // write-back interleave cycles

  double kernel_seconds = 0.0;
  double effective_bandwidth_bps = 0.0;  // reference bytes / kernel time
  double watts = 0.0;
  double joules = 0.0;
};

/// Raw cycle accounting of streaming `total_beats` through the
/// FIFO-overlapped datapath: beats arrive in lockstep groups of `channels`
/// per cycle through the AXI burst model (optionally fault-injected stall
/// storms), and a `segments`-segment datapath occupies the pipe for
/// `segments` cycles per group.  Accelerator::run and the device batch
/// scheduler both price beats here, so a per-PE reference slice costs
/// exactly what a full run does.  A clean (null-injector) unsegmented
/// stream is priced in closed form; storms and segmented FIFO
/// backpressure are stepped cycle by cycle.
struct StreamBeatTiming {
  std::size_t beats = 0;
  std::size_t stall_cycles = 0;
  std::size_t compute_cycles = 0;
};

StreamBeatTiming stream_beat_timing(const hw::AxiTimingConfig& axi,
                                    hw::FaultInjector* injector,
                                    std::size_t total_beats,
                                    std::size_t channels,
                                    std::size_t segments);

/// Invocation kernel timing of one strand (DESIGN.md §4d): the reference
/// splits into `pe_count` contiguous slices, each streamed through
/// stream_beat_timing with an L_q-1 element halo (`halo_beats`) appended
/// to every slice but the last so windows spanning a boundary are
/// covered; the invocation retires when the slowest PE drains, plus
/// write-back and pipeline fill.  With pe_count == 1 this is
/// cycle-identical to Accelerator::run.
struct InvocationStrandTiming {
  std::size_t cycles = 0;         ///< makespan: slowest PE + wb + fill
  std::size_t pe_busy_cycles = 0; ///< sum of per-PE busy cycles
  double seconds = 0.0;
};

InvocationStrandTiming invocation_strand_timing(
    const AcceleratorConfig& acc, hw::FaultInjector* injector,
    std::size_t total_beats, std::size_t channels, std::size_t segments,
    std::size_t pe_count, std::size_t halo_beats, std::size_t total_hits);

/// The mapping of a `query_elements`-element query on `config`'s device
/// (map_design); throws std::invalid_argument if the query is empty or
/// cannot be placed even fully segmented.
FabpMapping map_query(const AcceleratorConfig& config,
                      std::size_t query_elements);

class Accelerator {
 public:
  explicit Accelerator(AcceleratorConfig config = {});

  /// Host-side step: back-translate + encode the protein query and map the
  /// design.  Returns the mapping (throws std::invalid_argument if the
  /// query is empty or cannot be placed even fully segmented).
  const FabpMapping& load_query(const bio::ProteinSequence& protein);

  /// Same, from a pre-encoded query.
  const FabpMapping& load_encoded(EncodedQuery query);

  /// Functional + timing simulation over a packed reference.
  AcceleratorRun run(const bio::PackedNucleotides& reference) const;

  /// Timing-only estimate for a reference of `reference_elements` 2-bit
  /// elements with an expected hit density (hits per reference element).
  AcceleratorRun estimate(std::size_t reference_elements,
                          double expected_hit_density = 1e-7) const;

  const AcceleratorConfig& config() const noexcept { return config_; }
  const FabpMapping& mapping() const noexcept { return mapping_; }
  const EncodedQuery& encoded_query() const noexcept { return query_; }

 private:
  void finalize_timing(AcceleratorRun& run, std::size_t reference_elements)
      const;

  AcceleratorConfig config_;
  EncodedQuery query_;
  std::vector<BackElement> elements_;  // decoded view for the fast path
  FabpMapping mapping_;
};

}  // namespace fabp::core
