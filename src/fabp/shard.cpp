#include "fabp/core/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fabp/util/timer.hpp"

namespace fabp::core {

namespace {

// Per-card fault streams must be independent: the same seed on every card
// would replay identical fault schedules in lockstep across the fleet.
constexpr std::uint64_t kShardSeedStride = 0x9e3779b97f4a7c15ull;

// Position of the first hit at or past `position` in a sorted hit list.
std::vector<Hit>::const_iterator hit_lower_bound(const std::vector<Hit>& hits,
                                                 std::size_t position) {
  return std::lower_bound(
      hits.begin(), hits.end(), position,
      [](const Hit& hit, std::size_t value) { return hit.position < value; });
}

}  // namespace

Error validate_shard_config(const ShardConfig& config) noexcept {
  if (config.shard_count == 0)
    return Error{ErrorCode::InvalidConfig, "shard.shard_count must be positive"};
  if (config.shard_count > 64)
    return Error{ErrorCode::InvalidConfig, "shard.shard_count above 64 is absurd"};
  if (config.max_query_elements == 0)
    return Error{ErrorCode::InvalidConfig,
                 "shard.max_query_elements must be positive"};
  if (config.fault_only_shard != ShardConfig::kAllShards &&
      config.fault_only_shard >= config.shard_count)
    return Error{ErrorCode::InvalidConfig,
                 "shard.fault_only_shard is not a shard index"};
  return Error{};
}

// One modeled card: its window of the shared store (owned range + halo)
// and its backend over that window.  Touched only by account() and the
// status readers, which the caller serializes (the engine's execution
// lock).
struct ShardedBackend::Shard {
  std::size_t index = 0;
  std::size_t owned_begin = 0;  // global window-start ownership [begin, end)
  std::size_t owned_end = 0;
  std::size_t slice_elements = 0;  // the window: owned range + halo

  HostConfig config;  // per-card fault stream / chaos gating
  std::unique_ptr<ScanBackend> backend;

  // Router-side lifetime accounting.
  std::size_t batches_executed = 0;
  std::size_t fault_log_consumed = 0;
  RecoveryStats recovery;

  std::size_t owned_elements() const noexcept {
    return owned_end - owned_begin;
  }

  /// Ownership filter + rebase of one window-local forward-coordinate hit
  /// list: keeps the hits whose window starts in the owned range and lifts
  /// them to global coordinates.  Halo hits are each owned by the next
  /// shard — dropping them here is the dedup, and ascending-shard
  /// concatenation reproduces the unsharded position order exactly.
  void append_owned(const std::vector<Hit>& local,
                    std::vector<Hit>& out) const {
    const auto end = hit_lower_bound(local, owned_elements());
    for (auto it = local.begin(); it != end; ++it)
      out.push_back(Hit{it->position + owned_begin, it->score});
  }
};

ShardedBackend::ShardedBackend(BackendKind kind, const HostConfig& config,
                               const ReferenceStore& store,
                               const ShardConfig& shard)
    : kind_{kind}, config_{config}, store_{store}, shard_config_{shard} {
  if (Error error = validate_shard_config(shard_config_);
      error.code != ErrorCode::None)
    throw FaultError{std::move(error)};
  scanner_ = make_backend(kind_, config_, store_);
  const std::size_t total = store_.forward.size();
  const std::size_t count = shard_config_.shard_count;
  const std::size_t halo = shard_config_.max_query_elements - 1;
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->index = s;
    sh->config = config_;
    sh->config.fault.seed += kShardSeedStride * (s + 1);
    if (shard_config_.fault_only_shard != ShardConfig::kAllShards &&
        s != shard_config_.fault_only_shard) {
      const std::uint64_t seed = sh->config.fault.seed;
      sh->config.fault = hw::FaultConfig{};
      sh->config.fault.seed = seed;
    }
    // Natural ragged partition of window-start ownership: shard s owns
    // [s*S/N, (s+1)*S/N); the card's window extends `halo` elements past
    // the owned range (clamped at the reference end) so every alignment
    // window starting in the owned range lies inside it.
    sh->owned_begin = s * total / count;
    sh->owned_end = (s + 1) * total / count;
    sh->slice_elements =
        std::min(total, sh->owned_end + halo) - sh->owned_begin;
    const StoreWindow window{sh->owned_begin, sh->slice_elements};
    sh->backend = make_backend(kind_, sh->config, store_, window);
    shards_.push_back(std::move(sh));
  }
}

ShardedBackend::~ShardedBackend() = default;

std::size_t ShardedBackend::shard_count() const noexcept {
  return shards_.size();
}

HealthState ShardedBackend::health() const noexcept {
  for (const auto& sh : shards_)
    if (sh->backend->health() == HealthState::Degraded)
      return HealthState::Degraded;
  return HealthState::Healthy;
}

const std::vector<hw::FaultEvent>& ShardedBackend::fault_log()
    const noexcept {
  return merged_fault_log_;
}

void ShardedBackend::harvest_shard_stats(Shard& shard) {
  const std::vector<hw::FaultEvent>& log = shard.backend->fault_log();
  for (std::size_t i = shard.fault_log_consumed; i < log.size(); ++i)
    merged_fault_log_.push_back(log[i]);
  shard.fault_log_consumed = log.size();
}

Expected<BackendRun> ShardedBackend::gather_request(
    std::size_t request_index,
    std::vector<std::vector<Expected<BackendRun>>>& per_shard) {
  // First shard error fails the request (the shards see identical request
  // shapes, so the first error is the representative one).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Expected<BackendRun>& result = per_shard[s][request_index];
    if (!result) return result.error();
  }
  BackendRun out;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    const BackendRun& part = per_shard[s][request_index].value();
    // The reverse list is already mapped to window-local *forward*
    // coordinates by each card's backend, so the same rule applies.
    sh.append_owned(part.hits, out.hits);
    sh.append_owned(part.reverse_hits, out.reverse_hits);
    // The cards run in parallel: makespan accounting is max over cards,
    // energy is summed.
    out.cycles = std::max(out.cycles, part.cycles);
    out.kernel_seconds = std::max(out.kernel_seconds, part.kernel_seconds);
    out.watts += part.watts;
    if (s == 0) out.mapping = part.mapping;
    out.recovery.merge(part.recovery);
    sh.recovery.merge(part.recovery);
  }
  return out;
}

std::vector<Expected<BackendRun>> ShardedBackend::account(
    std::span<const BackendRequest> requests) {
  std::vector<Expected<BackendRun>> out;
  out.reserve(requests.size());
  if (requests.empty()) return out;
  if (!store_.uploaded)
    return std::vector<Expected<BackendRun>>(
        requests.size(),
        Error{ErrorCode::NoReference, "no reference uploaded"});
  // The lists come from scan_batch, which refuses a query longer than the
  // halo supports (it would lose boundary hits); refuse it here too.
  for (const BackendRequest& request : requests)
    if (request.query->size() > shard_config_.max_query_elements)
      return std::vector<Expected<BackendRun>>(
          requests.size(),
          Error{ErrorCode::BadArgument,
                "query exceeds shard.max_query_elements (halo too small)"});

  util::Timer scatter_timer;
  const std::size_t total = store_.forward.size();

  // Scatter: one request list per card, the given hit lists narrowed to
  // each window (exactly what a scan of that card's window would produce,
  // so the given-hits contract holds card-locally).
  struct ShardBatch {
    std::vector<std::vector<Hit>> forward_arena;
    std::vector<std::vector<Hit>> reverse_arena;
    std::vector<BackendRequest> requests;
  };
  std::vector<ShardBatch> batches(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    ShardBatch& batch = batches[s];
    const std::size_t slice_begin = sh.owned_begin;
    const std::size_t slice_end = slice_begin + sh.slice_elements;
    batch.forward_arena.resize(requests.size());
    batch.reverse_arena.resize(requests.size());
    batch.requests.reserve(requests.size());
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const BackendRequest& original = requests[j];
      const std::size_t lq = original.query->size();
      // Window-local forward list: global positions in [begin, end - lq],
      // rebased by -begin.  (Positions past end - lq cannot start an
      // alignment inside the window and never appear window-locally.)
      const std::vector<Hit>& forward = *original.forward_hits;
      std::vector<Hit>& local_forward = batch.forward_arena[j];
      const std::size_t last =
          slice_end - slice_begin >= lq ? slice_end - lq + 1 : slice_begin;
      for (auto it = hit_lower_bound(forward, slice_begin),
                end = hit_lower_bound(forward, last);
           it != end; ++it)
        local_forward.push_back(Hit{it->position - slice_begin, it->score});
      // Raw RC coordinates: the global raw position q maps to forward
      // start f = S - lq - q; the card sees alignments with f in
      // [begin, end - lq], i.e. q in [S - end, S - lq - begin], shifted
      // by -(S - end) into the window's own RC frame.  The global list is
      // ascending in q, so the kept subrange stays ascending locally.
      const std::vector<Hit>& reverse = *original.reverse_hits;
      std::vector<Hit>& local_reverse = batch.reverse_arena[j];
      if (slice_end - slice_begin >= lq && total >= slice_end) {
        const std::size_t shift = total - slice_end;
        const std::size_t hi = total - lq - slice_begin;  // inclusive
        for (auto it = hit_lower_bound(reverse, shift),
                  end = hit_lower_bound(reverse, hi + 1);
             it != end; ++it)
          local_reverse.push_back(Hit{it->position - shift, it->score});
      }
      batch.requests.push_back(BackendRequest{
          original.query, original.threshold, &local_forward, &local_reverse});
    }
  }
  scatter_s_.fetch_add(scatter_timer.seconds(), std::memory_order_relaxed);

  // Account: ONE run_many per card, inline on the caller — the hw-sim
  // cards each pack the whole batch into device invocations over their
  // own window.  A lost card is still its own backend: its degraded
  // branch serves the window's lists with zero card time.
  std::vector<std::vector<Expected<BackendRun>>> shard_results(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    ++sh.batches_executed;
    shard_results[s] = sh.backend->run_many(batches[s].requests);
  }

  util::Timer gather_timer;
  for (std::size_t i = 0; i < requests.size(); ++i)
    out.push_back(gather_request(i, shard_results));
  for (auto& sh : shards_) harvest_shard_stats(*sh);
  gather_s_.fetch_add(gather_timer.seconds(), std::memory_order_relaxed);
  return out;
}

std::vector<std::vector<Hit>> ShardedBackend::scan_batch(
    std::span<const CompiledQueryPtr> queries,
    std::span<const std::uint32_t> thresholds, bool reverse_strand,
    util::ThreadPool* pool) const {
  if (queries.empty() || store_.strand(reverse_strand).size() == 0)
    return std::vector<std::vector<Hit>>(queries.size());
  for (const CompiledQueryPtr& query : queries)
    if (query->size() > shard_config_.max_query_elements)
      throw std::invalid_argument{
          "ShardedBackend::scan_batch: query exceeds shard.max_query_elements"};
  return scanner_->scan_batch(queries, thresholds, reverse_strand, pool);
}

DevicePipelineStats ShardedBackend::pipeline_stats() const noexcept {
  DevicePipelineStats out;
  for (const auto& sh : shards_) {
    const DevicePipelineStats part = sh->backend->pipeline_stats();
    out.invocations += part.invocations;
    // Every routed request reaches every card: "tasks served by the
    // fleet" is the busiest card's count, not the N-fold sum — so
    // modeled_qps() stays requests/second, not shard-requests/second.
    out.tasks = std::max(out.tasks, part.tasks);
    out.retried_invocations += part.retried_invocations;
    out.pe_count += part.pe_count;
    out.buffer_depth = std::max(out.buffer_depth, part.buffer_depth);
    out.largest_invocation =
        std::max(out.largest_invocation, part.largest_invocation);
    // The cards transfer and compute in parallel: busy totals sum, the
    // system makespan is the slowest card's, and the serial baseline is
    // the one-card sum (what a single buffer-depth-1 card would take).
    out.transfer_s += part.transfer_s;
    out.compute_s = std::max(out.compute_s, part.compute_s);
    out.serial_s += part.serial_s;
    out.pipelined_s = std::max(out.pipelined_s, part.pipelined_s);
    out.pe_busy_s += part.pe_busy_s;
  }
  return out;
}

std::vector<ShardStatus> ShardedBackend::shard_status() const {
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStatus status;
    status.index = sh->index;
    status.owned_begin = sh->owned_begin;
    status.owned_end = sh->owned_end;
    status.slice_elements = sh->slice_elements;
    status.health = sh->backend->health();
    status.batches_executed = sh->batches_executed;
    status.fault_events = sh->backend->fault_log().size();
    status.recovery = sh->recovery;
    status.pipeline = sh->backend->pipeline_stats();
    out.push_back(std::move(status));
  }
  return out;
}

std::unique_ptr<ShardedBackend> make_sharded_backend(
    BackendKind kind, const HostConfig& config, const ReferenceStore& store,
    const ShardConfig& shard) {
  return std::make_unique<ShardedBackend>(kind, config, store, shard);
}

}  // namespace fabp::core
