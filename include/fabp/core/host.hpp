#pragma once
// Host runtime — the OpenCL host program of §IV, modeled: it encodes
// queries, transfers query + reference from host DRAM to FPGA DRAM over
// PCIe, invokes the kernel (the Accelerator), and reads results back.
// All reported end-to-end times include those transfers, matching the
// paper's measurement methodology ("we measured the end-to-end execution
// time that includes reading both query and reference sequences from the
// FPGA DRAM, aligning the sequences, and writing the results").
//
// Since the layering refactor (DESIGN.md §"Layered host runtime") the
// machinery lives in three layers under this header's types:
//   - compile:  core/query_compiler.hpp  (query -> CompiledQuery, LRU)
//   - backend:  core/backend.hpp         (ScanBackend: hw-sim + recovery,
//                                         tiled)
//   - engine:   core/engine.hpp          (queue, workers, coalescing)
// `Session` remains the stable public API: a thin synchronous facade over
// one Engine, with behavior bit-for-bit identical to the pre-refactor
// monolith (pinned by tests/core/host_test.cpp and chaos_test.cpp).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabp/core/accelerator.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/error.hpp"
#include "fabp/hw/fault.hpp"
#include "fabp/hw/scheduler.hpp"

namespace fabp::core {

class Engine;

/// Detection + bounded-retry policy for the session (the host side of the
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
  /// Consecutive failed invocations before the session health-state
  /// machine degrades to the software path.
  std::size_t degrade_after = 3;
  /// Degraded sessions (and invocations that exhausted their attempts)
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
  bool degraded = false;             ///< session Degraded after this run
  double recovery_s = 0.0;           ///< modeled time lost to recovery

  void merge(const RecoveryStats& other) noexcept;
};

/// Session health-state machine: Healthy until `degrade_after` consecutive
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

/// Batch-align report (kept at namespace scope since the layering refactor
/// — the Engine returns it too; Session::BatchReport aliases it for source
/// compatibility).
struct BatchReport {
  std::vector<HostRunReport> per_query;
  double total_s = 0.0;
  double total_joules = 0.0;
  std::size_t total_hits = 0;
  double queries_per_second = 0.0;  // modeled card throughput
  RecoveryStats recovery;           // merged over the whole batch
};

/// One attached "card": owns the reference database in FPGA DRAM and runs
/// queries against it.  A thin synchronous facade over core::Engine (which
/// adds the admission queue, worker pool and request coalescing for
/// concurrent serving; see core/engine.hpp) — everything here executes on
/// the caller's thread and no worker threads are ever spawned.
class Session {
 public:
  /// Throws FaultError{InvalidConfig} when the configuration is rejected
  /// by validate_host_config (zero tile sizes, zero retry budgets,
  /// non-positive bandwidths, out-of-range fault rates, ...).
  explicit Session(HostConfig config = {});
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  /// Transfers the reference database to FPGA DRAM (models the one-time
  /// cost; recorded and amortized per config.reference_resident).
  void upload_reference(const bio::NucleotideSequence& reference);
  void upload_reference(bio::PackedNucleotides reference);

  /// End-to-end aligned search of one protein query (functional).  Under
  /// an injected fault schedule the recovery machinery retries, repairs
  /// and (if allowed) degrades so the returned hits are always bit-exact
  /// with the golden model; throws FaultError only when the schedule is
  /// unrecoverable (and std::logic_error never — use try_align for the
  /// non-throwing boundary).
  HostRunReport align(const bio::ProteinSequence& query,
                      std::uint32_t threshold);

  /// Non-throwing form of align(): the typed error surface.
  Expected<HostRunReport> try_align(const bio::ProteinSequence& query,
                                    std::uint32_t threshold);

  /// Timing-only estimate against a hypothetical reference of `bytes`
  /// bytes (2-bit packed), for database-scale projections.
  HostRunReport estimate(const bio::ProteinSequence& query,
                         std::uint32_t threshold, std::size_t bytes) const;

  /// Aligns a batch of queries against the resident reference, reusing
  /// the card (the paper's deployment model: the database is transferred
  /// once, queries stream through).  Thresholds are per-query fractions of
  /// the query's element count.  The functional hit lists for the whole
  /// batch are produced in one multi-query pass over the reference — each
  /// freshly compiled tile is scored against every query while hot in
  /// cache — and the per-query accelerator runs reduce to cycle/energy
  /// accounting; reports are bit-for-bit identical to calling align() per
  /// query.  Pass a pool to chunk the batch scan over threads.
  using BatchReport = ::fabp::core::BatchReport;
  BatchReport align_batch(std::span<const bio::ProteinSequence> queries,
                          double threshold_fraction,
                          util::ThreadPool* pool = nullptr);

  /// Non-throwing form of align_batch(); the first unrecoverable
  /// per-query error aborts and is returned for the whole batch.
  Expected<BatchReport> try_align_batch(
      std::span<const bio::ProteinSequence> queries,
      double threshold_fraction, util::ThreadPool* pool = nullptr);

  /// Pure-software scan of the resident reference through the bit-sliced
  /// engine (no accelerator timing model): returns exactly the hits
  /// align() reports for the forward strand.  The packed reference is
  /// streamed directly (nothing is compiled or cached).  Pass a pool to
  /// chunk the scan over threads (output is identical either way).
  std::vector<Hit> software_hits(const bio::ProteinSequence& query,
                                 std::uint32_t threshold,
                                 util::ThreadPool* pool = nullptr);

  /// Batch form of software_hits: all queries are scored in one tile-fused
  /// pass over the reference; element [q] of the result equals
  /// software_hits(queries[q], thresholds[q]) exactly.
  /// thresholds.size() must equal queries.size().
  std::vector<std::vector<Hit>> software_hits_batch(
      std::span<const bio::ProteinSequence> queries,
      std::span<const std::uint32_t> thresholds,
      util::ThreadPool* pool = nullptr);

  const bio::PackedNucleotides& reference() const noexcept;
  const HostConfig& config() const noexcept;

  /// Health-state machine position (degrades after repeated failures).
  HealthState health() const noexcept;

  /// Every fault event injected over this session's lifetime, in draw
  /// order — the replayable schedule a chaos failure is reported with.
  const std::vector<hw::FaultEvent>& fault_log() const noexcept;

  /// The engine this facade wraps, for callers that want the asynchronous
  /// serving surface (submit/Ticket) on top of the same card state.
  Engine& engine() noexcept { return *engine_; }
  const Engine& engine() const noexcept { return *engine_; }

 private:
  std::unique_ptr<Engine> engine_;
};

}  // namespace fabp::core
