#pragma once
// Shard router layer — the multi-card scale-out of the serving engine
// (DESIGN.md §4e).
//
// One ReferenceStore models one card's DRAM.  A ShardedBackend models N
// cards over one shared store: the uploaded reference is split into N
// contiguous owned ranges of window-start positions, and each card's
// backend takes for its DRAM a window of the store (StoreWindow): its
// owned range plus a *halo* of max_query_elements - 1 trailing elements,
// so every alignment that starts inside the owned range lies entirely
// inside the window.  An alignment starting in card s's halo starts inside
// card s+1's owned range, which is how boundary hits are deduplicated: at
// gather time each card keeps exactly the hits whose alignment *starts* in
// its owned range, rebases them from window-local to global coordinates,
// and the ascending-card concatenation reproduces the unsharded
// position-ordered hit list bit for bit.
//
// Reverse strand: a card's RC image is RC(R[a, b)) = RC(R)[S - b, S - a)
// — exactly the RC alignments whose forward extent lies in the window.  A
// card's mapped reverse hit at local forward coordinate f is the global
// hit at f + a (the same rebase as the forward strand), and the same
// owned-range filter applies.  The halo math is worked through in
// DESIGN.md §4e.
//
// The cards account; they do not scan.  scan_batch is the unsharded
// backend's scan_batch over the whole store (one pooled
// TileScanner::hits_batch, or the LUT oracle) plus the halo's oversize
// check.  account() narrows each request's global hit lists to every
// card's window and runs ONE run_many per card, inline on its caller:
// each card prices the whole batch as its own device invocations, with
// its own fault stream, health machine and pipeline stats.  A card cuts
// a packed image of its window from the shared store only when a fault,
// a spot check or a CRC needs the words, so a clean run holds no copy.
// The router starts no thread.  A card the health machine has given up on
// stays in the fleet: its hw-sim backend's degraded branch serves the
// window's given lists with zero card time and counts a fallback per
// strand, so the gathered hits stay bit-identical and the router needs no
// second backend per card.

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fabp/core/backend.hpp"

namespace fabp::core {

/// Knobs of the shard router.  shard_count == 1 is a valid degenerate
/// router (one card, window == whole reference) — the engine only builds a
/// router at all when shard_count > 1.
struct ShardConfig {
  std::size_t shard_count = 1;
  /// Largest compiled query (in nucleotide elements, i.e. 3x residues) the
  /// sharded layout supports; every card's window carries a halo of
  /// max_query_elements - 1 elements past its owned range.  Longer queries
  /// fail with a typed BadArgument instead of silently losing boundary
  /// hits.
  std::size_t max_query_elements = 1536;  // 512 residues
  /// Chaos knob: when set, fault injection stays enabled only on this
  /// shard — every other shard's fault rates are zeroed.  Used to prove
  /// fault isolation (one bad card must not perturb its peers).
  static constexpr std::size_t kAllShards = static_cast<std::size_t>(-1);
  std::size_t fault_only_shard = kAllShards;
};

/// Construction-time validation (ErrorCode::None when valid).
Error validate_shard_config(const ShardConfig& config) noexcept;

/// Point-in-time router view of one shard (Engine::shard_status()).
struct ShardStatus {
  std::size_t index = 0;
  std::size_t owned_begin = 0;  ///< global window-start ownership [begin,end)
  std::size_t owned_end = 0;
  std::size_t slice_elements = 0;  ///< the card's window: owned + halo
  HealthState health = HealthState::Healthy;
  std::size_t batches_executed = 0;  ///< batches this card accounted
  std::size_t fault_events = 0;      ///< injected faults on this card
  RecoveryStats recovery;            ///< merged over the shard's lifetime
  DevicePipelineStats pipeline;      ///< this card's scheduler accounting
};

/// N ScanBackend cards behind one ScanBackend face.  kind() reports the
/// cards' backend kind, so the engine stays oblivious.
/// Thread-safety contract matches every other backend: run_many (and
/// the status readers) are serialized externally (the engine's
/// per-database exec_mutex), while scan_batch is const, touches no card,
/// and may run concurrently with them and with itself.
class ShardedBackend final : public ScanBackend {
 public:
  /// `config` and `store` must outlive the backend (the engine owns both).
  /// The store is the *global* reference, already uploaded (or empty):
  /// each card's backend reads its window of it, and nothing is copied.
  ShardedBackend(BackendKind kind, const HostConfig& config,
                 const ReferenceStore& store, const ShardConfig& shard);
  ~ShardedBackend() override;

  BackendKind kind() const noexcept override { return kind_; }
  /// Merged cross-card view: counts summed, makespans max'ed (the cards
  /// run in parallel), tasks = requests through the busiest card — so
  /// modeled_qps() is the system throughput, not one card's.
  DevicePipelineStats pipeline_stats() const noexcept override;
  std::vector<std::vector<Hit>> scan_batch(
      std::span<const CompiledQueryPtr> queries,
      std::span<const std::uint32_t> thresholds, bool reverse_strand,
      util::ThreadPool* pool) const override;
  /// Worst health over the fleet (Degraded if any card degraded).
  HealthState health() const noexcept override;
  /// Union of every card's fault log, appended in gather order.
  const std::vector<hw::FaultEvent>& fault_log() const noexcept override;

  const ShardConfig& shard_config() const noexcept { return shard_config_; }
  std::size_t shard_count() const noexcept;
  std::vector<ShardStatus> shard_status() const;
  /// Router overhead accounting: time spent narrowing a batch's hit lists
  /// to the windows and rebasing and merging the cards' hits, outside any
  /// card's own accounting.
  double scatter_seconds() const noexcept {
    return scatter_s_.load(std::memory_order_relaxed);
  }
  double gather_seconds() const noexcept {
    return gather_s_.load(std::memory_order_relaxed);
  }

 protected:
  /// Scatters the given lists narrowed to each window, runs ONE run_many
  /// per card on the calling thread, and gathers the owned, rebased hits.
  std::vector<Expected<BackendRun>> account(
      std::span<const BackendRequest> requests) override;

 private:
  struct Shard;
  Expected<BackendRun> gather_request(
      std::size_t request_index,
      std::vector<std::vector<Expected<BackendRun>>>& per_shard);
  void harvest_shard_stats(Shard& shard);

  BackendKind kind_;
  const HostConfig& config_;
  const ReferenceStore& store_;  // the global image; cards read windows
  ShardConfig shard_config_;
  std::unique_ptr<ScanBackend> scanner_;  // unsharded: the one scan
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<hw::FaultEvent> merged_fault_log_;
  std::atomic<double> scatter_s_{0.0};
  std::atomic<double> gather_s_{0.0};
};

/// Constructs the router (same ownership contract as make_backend).
std::unique_ptr<ShardedBackend> make_sharded_backend(
    BackendKind kind, const HostConfig& config, const ReferenceStore& store,
    const ShardConfig& shard);

}  // namespace fabp::core
