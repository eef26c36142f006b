#pragma once
// Backend layer of the serving engine (DESIGN.md §"Layered host runtime").
//
// A ScanBackend is one way of answering "all hits of this compiled query
// against the uploaded reference": the tile-fused software scanner, or the
// cycle-accurate hardware simulation (Accelerator) scheduled as packed
// device invocations and wrapped in the fault-detection/recovery
// machinery.  Every backend consumes a CompiledQuery (the compile layer's
// artifact) and returns hits + per-run stats through one uniform
// BackendRun, so the engine's coalescing scheduler and its synchronous
// path schedule them interchangeably — the architecture ASAP and the
// FPGA-alignment surveys frame for alignment accelerators behind a host
// runtime.
//
// Functional contract shared by all backends: the forward hit list, and
// the reverse-strand list mapped to forward window coordinates, are
// bit-for-bit what golden_hits computes (the software scanner by the
// PR-1/PR-3 pinning, the hw-sim by the accelerator's own differential
// tests, faults included — recovery repairs to golden or reports a typed
// error).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "fabp/core/host.hpp"
#include "fabp/core/query_compiler.hpp"

namespace fabp::core {

/// Backend selection: which implementation serves a request.
enum class BackendKind : std::uint8_t {
  HwSim,  ///< Accelerator model + fault recovery (the full card model)
  Tiled,  ///< tile-fused software compile+scan (TileScanner)
};

const char* to_string(BackendKind kind) noexcept;

/// The "FPGA DRAM" of the model: the packed reference (and its
/// reverse-complement copy when both strands are searched), shared by every
/// backend of an engine.  upload() fills it before any backend is built
/// over it; backends may cache derived artifacts (tile CRCs) lazily because
/// the store never changes under them.
struct ReferenceStore {
  bio::PackedNucleotides forward;
  bio::PackedNucleotides reverse;  ///< RC copy; empty unless both strands
  bool uploaded = false;

  void upload(bio::PackedNucleotides packed, bool both_strands);
  const bio::PackedNucleotides& strand(bool reverse_strand) const noexcept {
    return reverse_strand ? reverse : forward;
  }
};

/// The elements [begin, begin + size) of a store's forward strand that a
/// backend takes for its whole reference: one shard card's DRAM slice
/// (DESIGN.md §4e).  The default window is the whole store.  A backend
/// over a card's window accounts only (the router scans the whole store
/// once; the card's scan_batch throws std::logic_error), and it cuts a
/// packed image of its window only when a fault, a spot check or a CRC
/// needs the words.
struct StoreWindow {
  static constexpr std::size_t kWhole = static_cast<std::size_t>(-1);
  std::size_t begin = 0;
  std::size_t size = kWhole;
};

// --- versioned reference management (DESIGN.md §4g) ----------------------
//
// A service cannot mutate the store a scan is reading.  The versioned path
// wraps each uploaded database generation in an immutable, refcounted
// snapshot: in-flight work pins the generation it was admitted under via
// shared_ptr, a swap publishes a *new* snapshot (with its own backend set
// built over it) and retires the old one, and the retired generation's
// memory — packed strands, cut card images, per-backend caches — is
// reclaimed by the last pin dropping, never by an explicit free racing a
// scan.
// Epoch-style reclamation with the shared_ptr control block as the epoch
// counter.

/// One immutable generation of a database's reference.  The store is
/// filled at construction and never mutated afterwards; everything built
/// over it (backends, shard plans, tile-CRC caches) hangs off the subclassing
/// owner and dies with the snapshot.  Polymorphic so the engine can attach
/// its per-generation backend set while the reclamation layer tracks only
/// this base.
struct ReferenceSnapshot {
  std::uint64_t generation = 0;  ///< monotonically increasing per database
  ReferenceStore store;

  virtual ~ReferenceSnapshot() = default;
};

/// Publication point + reclamation ledger for one database's snapshots.
/// publish() retires the previously active generation onto a weak_ptr
/// ledger; status() prunes entries whose last pin has dropped and counts
/// them as reclaimed.  Thread-safe; the returned shared_ptrs are the pins.
class VersionedStore {
 public:
  struct GenerationStatus {
    std::uint64_t generation = 0;
    long pins = 0;       ///< live shared_ptr count (active incl. the store's)
    bool active = false; ///< false = retired, still pinned by in-flight work
  };

  /// The currently active snapshot (never null once publish() ran).
  std::shared_ptr<const ReferenceSnapshot> active() const;

  /// Publishes `next` as the active generation and retires the previous
  /// one.  Returns the generation id assigned to `next` (caller sets the
  /// field before publishing; this just echoes it).
  std::uint64_t publish(std::shared_ptr<const ReferenceSnapshot> next);

  /// Next generation id to assign (starts at 1; 0 is the empty pre-upload
  /// generation).
  std::uint64_t next_generation();

  /// Active + still-pinned retired generations, pruning reclaimed ones.
  std::vector<GenerationStatus> status() const;

  /// Retired generations whose last pin has dropped (cumulative).
  std::size_t reclaimed() const;

 private:
  void prune_locked() const;

  mutable std::mutex mutex_;
  std::shared_ptr<const ReferenceSnapshot> active_;
  mutable std::vector<std::weak_ptr<const ReferenceSnapshot>> retired_;
  std::uint64_t next_generation_ = 1;
  mutable std::size_t reclaimed_ = 0;
};

/// One backend invocation's raw result: both strands' hits plus the cycle/
/// energy accounting and what recovery did.  Software backends report
/// measured wall time in kernel_seconds and no card power; the hw-sim
/// reports the modeled kernel.  finalize_run() turns this into the
/// HostRunReport the public API ships.
struct BackendRun {
  std::vector<Hit> hits;          ///< forward strand, position order
  std::vector<Hit> reverse_hits;  ///< forward window coords, sorted
  FabpMapping mapping;            ///< empty for pure-software backends
  std::size_t cycles = 0;
  double kernel_seconds = 0.0;
  double watts = 0.0;
  RecoveryStats recovery;
};

/// One request as a backend sees it, with its strand hit lists from
/// scan_batch: forward_hits in forward coordinates, reverse_hits raw
/// RC-strand positions (the backend maps them; an empty list when only the
/// forward strand is searched).  The backend accounts for the run over
/// these lists; it never scans for them itself.
struct BackendRequest {
  const CompiledQuery* query = nullptr;
  std::uint32_t threshold = 0;
  const std::vector<Hit>* forward_hits = nullptr;
  const std::vector<Hit>* reverse_hits = nullptr;
};

/// Cumulative device-pipeline accounting of a backend that schedules work
/// as packed device invocations (DESIGN.md §4d).  Software backends report
/// all-zero stats.  Times are modeled seconds over the backend's lifetime;
/// serial_s is what the same invocations would have cost with a single
/// buffer and no transfer/compute overlap, so serial_s / pipelined_s is the
/// modeled double-buffering + multi-PE speedup.
struct DevicePipelineStats {
  std::size_t invocations = 0;         ///< packed device calls issued
  std::size_t tasks = 0;               ///< queries carried by those calls
  std::size_t retried_invocations = 0; ///< re-enqueued after a fault
  std::size_t pe_count = 0;
  std::size_t buffer_depth = 0;
  std::size_t largest_invocation = 0;  ///< max tasks packed into one call
  double transfer_s = 0.0;             ///< DMA busy time (ctrl + payload)
  double compute_s = 0.0;              ///< PE-array busy time (max over PEs)
  double serial_s = 0.0;               ///< depth-1 single-buffer baseline
  double pipelined_s = 0.0;            ///< modeled makespan with overlap
  double pe_busy_s = 0.0;              ///< sum of per-PE busy time

  double occupancy() const noexcept {
    return pipelined_s > 0.0 ? compute_s / pipelined_s : 0.0;
  }
  /// Fraction of the overlappable time actually hidden: 1.0 = perfect
  /// double buffering, 0.0 = fully serial.
  double overlap_efficiency() const noexcept {
    const double hideable = transfer_s < compute_s ? transfer_s : compute_s;
    if (hideable <= 0.0 || pipelined_s <= 0.0) return 0.0;
    const double hidden = serial_s - pipelined_s;
    return hidden <= 0.0 ? 0.0 : (hidden >= hideable ? 1.0 : hidden / hideable);
  }
  double pe_utilization() const noexcept {
    const double cap = compute_s * static_cast<double>(pe_count);
    return cap > 0.0 ? pe_busy_s / cap : 0.0;
  }
  double modeled_qps() const noexcept {
    return pipelined_s > 0.0 ? static_cast<double>(tasks) / pipelined_s : 0.0;
  }
};

class ScanBackend {
 public:
  virtual ~ScanBackend() = default;

  virtual BackendKind kind() const noexcept = 0;
  std::string_view name() const noexcept { return to_string(kind()); }

  /// A coalesced batch as one call, in request order: element [i] is the
  /// result for requests[i].  Device accounting plus fault detection and
  /// repair over the given hit lists; the hw-sim backend packs the batch
  /// into device invocations (double-buffered DMA, multi-PE slices —
  /// DESIGN.md §4d).  The engine always passes both lists; a null list
  /// (servebench/replay.cpp passes them for a batch of one) is filled from
  /// this backend's own scan_batch first, and a scan that throws fails
  /// every request typed BadArgument.
  std::vector<Expected<BackendRun>> run_many(
      std::span<const BackendRequest> requests);

  /// Lifetime device-pipeline accounting (all-zero for software backends).
  virtual DevicePipelineStats pipeline_stats() const noexcept { return {}; }

  /// Raw hit lists for a whole batch in one pass over one strand of the
  /// reference: element [q] is the golden strand hit list of (queries[q],
  /// thresholds[q]); reverse-strand lists are in raw RC coordinates
  /// (run_many maps them).  Reads only the immutable store, so it is safe
  /// to call concurrently with itself and with run_many.
  virtual std::vector<std::vector<Hit>> scan_batch(
      std::span<const CompiledQueryPtr> queries,
      std::span<const std::uint32_t> thresholds, bool reverse_strand,
      util::ThreadPool* pool) const = 0;

  /// Every backend's run_many takes the lists scan_batch produced; kept
  /// for servebench/replay.cpp, which still asks.
  bool supports_precomputed_hits() const noexcept { return true; }

  /// Health machine position; software backends never degrade.
  virtual HealthState health() const noexcept { return HealthState::Healthy; }

  /// Injected fault events over this backend's lifetime (hw-sim only).
  virtual const std::vector<hw::FaultEvent>& fault_log() const noexcept;

 protected:
  /// run_many's accounting over requests whose lists are all non-null.
  /// Mutates backend state (fault streams, health, pipeline stats): the
  /// caller serializes calls (the engine's per-database exec_mutex).
  virtual std::vector<Expected<BackendRun>> account(
      std::span<const BackendRequest> requests) = 0;
};

/// Constructs a backend over `window` of `store` for `kind`.  The store
/// and config must outlive the backend (the engine owns all three).
std::unique_ptr<ScanBackend> make_backend(BackendKind kind,
                                          const HostConfig& config,
                                          const ReferenceStore& store,
                                          StoreWindow window = {});

/// Turns a backend run into the public HostRunReport: adds the PCIe
/// transfer model (query upload, readback, optional reference transfer),
/// charges recovery time, and prices energy.
HostRunReport finalize_run(const HostConfig& config,
                           const CompiledQuery& query, BackendRun run,
                           std::size_t reference_bytes);

/// Timing-only projection against a hypothetical reference of `bytes`
/// packed bytes (Engine::estimate).
HostRunReport estimate_run(const HostConfig& config,
                           const CompiledQuery& query, std::uint32_t threshold,
                           std::size_t bytes);

/// Typed construction-time validation of a HostConfig: zero/absurd tile
/// sizes, non-positive bandwidths, zero retry budgets and out-of-range
/// fault probabilities are rejected with ErrorCode::InvalidConfig before
/// they can fail deep inside a scan.  Returns ErrorCode::None when valid.
Error validate_host_config(const HostConfig& config) noexcept;

}  // namespace fabp::core
