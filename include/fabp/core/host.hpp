#pragma once
// Host runtime — the OpenCL host program of §IV, modeled: it encodes
// queries, transfers query + reference from host DRAM to FPGA DRAM over
// PCIe, invokes the kernel (the Accelerator), and reads results back.
// All reported end-to-end times include those transfers, matching the
// paper's measurement methodology ("we measured the end-to-end execution
// time that includes reading both query and reference sequences from the
// FPGA DRAM, aligning the sequences, and writing the results").
//
// This header holds the host-side configuration and report types; the
// machinery that uses them lives in three layers (DESIGN.md §"Layered
// host runtime"):
//   - compile:  core/query_compiler.hpp  (query -> CompiledQuery, LRU)
//   - backend:  core/backend.hpp         (ScanBackend: hw-sim + recovery,
//                                         tiled)
//   - engine:   core/engine.hpp          (the client API: synchronous
//                                         align_sync/align_batch_sync, and
//                                         submit with queue, workers and
//                                         coalescing)

#include <cstdint>
#include <vector>

#include "fabp/core/accelerator.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/error.hpp"
#include "fabp/hw/fault.hpp"
#include "fabp/hw/scheduler.hpp"

namespace fabp::core {

/// Detection + bounded-retry policy for the card (the host side of the
/// fault-tolerance layer; injection rates live in HostConfig::fault).
struct RecoveryConfig {
  /// Kernel attempts per strand before the invocation counts as failed.
  std::size_t max_attempts = 4;
  /// Retry backoff: attempt k waits backoff_base_s * 2^k (modeled time,
  /// charged to RecoveryStats::recovery_s).
  double backoff_base_s = 100e-6;
  /// Watchdog deadline on one kernel attempt's modeled time; 0 disables.
  /// Stall storms inflate kernel time, which is how a hung card surfaces.
  double watchdog_s = 0.0;
  /// Per-tile CRC32 of the streamed reference against the upload-time
  /// checksums, plus a CRC over the readback hit buffer.  Detected tiles
  /// are repaired by re-scanning only the affected reference range.
  /// Turning this off delivers corrupted data as-is (the chaos suite uses
  /// that to prove injected faults are real, not cosmetic).
  bool verify_integrity = true;
  /// Golden spot-check sampler: K windows (256 positions each) per strand
  /// re-scored from the resident store and compared against the returned
  /// hits.  Catches corruption even with CRC checking off.  0 disables.
  std::size_t spot_check_samples = 0;
  /// Consecutive failed invocations before the card's health-state
  /// machine degrades to the software path.
  std::size_t degrade_after = 3;
  /// Degraded cards (and invocations that exhausted their attempts)
  /// serve the hit lists the software scan already produced with zero
  /// card time; with this off they return typed errors instead.
  bool allow_software_fallback = true;
};

/// What the recovery machinery did for one run (or, merged, one batch).
struct RecoveryStats {
  std::size_t attempts = 0;          ///< kernel attempts (per strand)
  std::size_t retries = 0;           ///< attempts after the first
  std::size_t transfer_faults = 0;   ///< transient PCIe transfer failures
  std::size_t timeouts = 0;          ///< watchdog-expired attempts
  std::size_t crc_faults = 0;        ///< reference tiles failing CRC
  std::size_t readback_faults = 0;   ///< corrupted readbacks (re-read)
  std::size_t rescanned_tiles = 0;   ///< tiles repaired by range re-scan
  std::size_t spot_checks = 0;       ///< golden spot-check windows sampled
  std::size_t spot_check_faults = 0; ///< windows that failed and were fixed
  std::size_t fallbacks = 0;         ///< strand runs served in software
  bool degraded = false;             ///< card Degraded after this run
  double recovery_s = 0.0;           ///< modeled time lost to recovery

  void merge(const RecoveryStats& other) noexcept;
};

/// Card health-state machine: Healthy until `degrade_after` consecutive
/// invocations exhaust their attempts, then Degraded (software path or
/// DeviceLost errors, per RecoveryConfig::allow_software_fallback).
enum class HealthState { Healthy, Degraded };

struct HostConfig {
  AcceleratorConfig accelerator{};
  /// Also scan the reverse-complement strand (genes sit on either strand;
  /// the card streams a pre-built RC copy of the database, doubling the
  /// kernel time).
  bool search_both_strands = false;
  /// Tile geometry of the software scan (the tile-fused compile+scan that
  /// streams the packed reference).
  TileScanConfig tile{};
  double pcie_bandwidth_bps = 12e9;   // host <-> card effective PCIe gen3 x16
  double invoke_overhead_s = 30e-6;   // kernel launch + fence
  bool reference_resident = true;     // DB transferred once, reused across
                                      // queries (the paper's usage model)
  /// Fault injection rates (all zero by default: the clean fast path takes
  /// one `enabled()` branch and none of the recovery machinery runs).
  hw::FaultConfig fault{};
  /// Detection / retry / degradation policy (see RecoveryConfig).
  RecoveryConfig recovery{};
  /// Device batch scheduler shape for the hw-sim backend (DESIGN.md §4d):
  /// how many compiled queries pack into one device invocation, how many
  /// ping/pong DMA buffers the card holds, and how many PE arrays split
  /// the reference.  Ignored by the software backends.
  hw::DeviceBatchConfig device_batch{};
};

struct HostRunReport {
  std::vector<Hit> hits;
  /// Hits found on the reverse-complement strand, reported in *forward*
  /// coordinates of the window start (empty unless search_both_strands).
  std::vector<Hit> reverse_hits;
  FabpMapping mapping;

  double reference_transfer_s = 0.0;  // amortized to 0 when resident
  double query_transfer_s = 0.0;
  double kernel_s = 0.0;
  double readback_s = 0.0;
  double total_s = 0.0;

  double watts = 0.0;
  double joules = 0.0;  // FPGA energy over total_s

  /// What recovery did for this run; total_s includes recovery.recovery_s.
  RecoveryStats recovery;

  /// Database generation the request was admitted under (0 before the
  /// first upload).  Lets swap-under-load callers pin hit-for-hit results
  /// to the snapshot that actually served them.
  std::uint64_t generation = 0;
};

/// Batch-align report (Engine::align_batch_sync).
struct BatchReport {
  std::vector<HostRunReport> per_query;
  double total_s = 0.0;
  double total_joules = 0.0;
  std::size_t total_hits = 0;
  double queries_per_second = 0.0;  // modeled card throughput
  RecoveryStats recovery;           // merged over the whole batch
};

}  // namespace fabp::core
