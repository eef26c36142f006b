#pragma once
// Shard router layer — the multi-card scale-out of the serving engine
// (DESIGN.md §4e).
//
// One ReferenceStore models one card's DRAM.  A ShardedBackend models N
// cards: the uploaded reference is split into N contiguous owned ranges of
// window-start positions, and each card's DRAM holds its owned range plus
// a *halo* of max_query_elements - 1 trailing elements, so every alignment
// window that starts inside the owned range lies entirely inside the
// slice.  A window starting in shard s's halo starts inside shard s+1's
// owned range, which is how boundary hits are deduplicated: at gather time
// each shard keeps exactly the hits whose window *starts* in its owned
// range, rebases them from slice-local to global coordinates, and the
// ascending-shard concatenation reproduces the unsharded position-ordered
// hit list bit for bit.
//
// Reverse strand: each shard's store is built with
// ReferenceStore::upload(slice, both_strands), so its RC copy is
// RC(R[a, b)) = RC(R)[S - b, S - a) — exactly the RC windows whose forward
// extent lies in the slice.  A shard's mapped reverse hit at local forward
// coordinate f is the global hit at f + a (the same rebase as the forward
// strand), and the same owned-range filter applies; raw RC scan
// coordinates rebase by S - b per shard and concatenate in *descending*
// shard order (ascending RC position).  The halo math is worked through in
// DESIGN.md §4e.
//
// Routing: each shard has its own one-worker util::ThreadPool, the card
// worker.  It is the per-card command queue plus accounting: it keeps each
// card's ordering, routing and run_many on one thread (DESIGN.md §4e has
// the measurement that rejected one shared pool in its place).  A
// coalesced engine batch fans out as ONE run_many/scan_batch per shard,
// never one per request.  scan_batch forwards its pool argument to every
// card's scan, so on the serving path each card's tile runs execute on
// the engine's scan pool while the card worker waits for them.  Deadlock
// rule (same as the engine's): a scan-pool task never waits on the scan
// pool; only engine workers and card workers do.  The health machine
// folds into routing: a shard whose primary backend has degraded sheds
// its slice to a software fallback backend over the same slice instead
// of stalling its card, and the gathered hits stay bit-identical (the
// fallback scans the same DRAM image).

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabp/core/backend.hpp"

namespace fabp::core {

/// Knobs of the shard router.  shard_count == 1 is a valid degenerate
/// router (one card, slice == whole reference) — the engine only builds a
/// router at all when shard_count > 1.
struct ShardConfig {
  std::size_t shard_count = 1;
  /// Largest compiled query (in nucleotide elements, i.e. 3x residues) the
  /// sharded layout supports; every slice carries a halo of
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
  std::size_t slice_elements = 0;  ///< owned + halo actually resident
  HealthState health = HealthState::Healthy;
  bool routed_to_fallback = false;  ///< slice shed to the software backend
  std::size_t batches_executed = 0;  ///< fan-out jobs this shard ran
  std::size_t fallback_batches = 0;  ///< of those, served by the fallback
  std::size_t fault_events = 0;      ///< injected faults on this card
  RecoveryStats recovery;            ///< merged over the shard's lifetime
  DevicePipelineStats pipeline;      ///< this card's scheduler accounting
};

/// N ScanBackend cards behind one ScanBackend face.  kind() reports the
/// primary backend kind, so the engine and facade stay oblivious.
/// Thread-safety contract matches every other backend: run/run_many are
/// serialized externally (the engine's per-database exec_mutex), while
/// scan_batch is const and may run concurrently with them and with
/// itself.  Both queue their per-card tasks on the same card workers; the
/// router counters they share are relaxed atomics.
class ShardedBackend final : public ScanBackend {
 public:
  /// `config` and `store` must outlive the backend (the engine owns both).
  /// The store is the *global* reference, already uploaded (or empty):
  /// the constructor slices it once per shard.
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
  /// Router overhead accounting: time spent splitting batches / rebasing
  /// and merging hits, outside any shard's own scan.
  double scatter_seconds() const noexcept {
    return scatter_s_.load(std::memory_order_relaxed);
  }
  double gather_seconds() const noexcept {
    return gather_s_.load(std::memory_order_relaxed);
  }

 protected:
  /// Scatters the given lists narrowed to each slice, runs ONE run_many
  /// per card, and gathers the owned, rebased hits.
  std::vector<Expected<BackendRun>> account(
      std::span<const BackendRequest> requests) override;

 private:
  struct Shard;
  /// One card's share of a fan-out: (shard index, routed backend, whether
  /// it is the software fallback).
  using ShardTask = std::function<void(std::size_t, ScanBackend&, bool)>;

  /// Routes every card (primary, or shed to its fallback), runs `task` on
  /// each card's worker, waits for all of them and rethrows the first
  /// failure.
  void for_each_shard(const ShardTask& task) const;
  Expected<BackendRun> gather_request(
      std::size_t request_index,
      std::vector<std::vector<Expected<BackendRun>>>& per_shard);
  void harvest_shard_stats(Shard& shard);

  BackendKind kind_;
  const HostConfig& config_;
  const ReferenceStore& store_;  // the global image; shards hold slices
  ShardConfig shard_config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<hw::FaultEvent> merged_fault_log_;
  std::atomic<double> scatter_s_{0.0};
  mutable std::atomic<double> gather_s_{0.0};
};

/// Constructs the router (same ownership contract as make_backend).
std::unique_ptr<ShardedBackend> make_sharded_backend(
    BackendKind kind, const HostConfig& config, const ReferenceStore& store,
    const ShardConfig& shard);

}  // namespace fabp::core
