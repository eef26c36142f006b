#pragma once
// Engine layer of the serving runtime (DESIGN.md §"Layered host runtime").
//
// align_sync and align_batch_sync answer on the caller's thread.  A
// deployment answers many callers at once against one card: requests
// arrive concurrently, wait in a bounded admission queue, and the scarce
// resource — one pass over the resident reference — wants to be shared.
// The Engine is that serving loop: submit() enqueues a request and hands
// back a future-like Ticket; a small worker pool drains the queue, and
// whenever more than one request is waiting it *coalesces* them into one
// multi-query scan over the reference (the PR-2/PR-3 batch machinery), so
// queue depth converts into per-query scan cost savings instead of pure
// latency.  Requests carry optional deadlines and can be cancelled while
// queued; every outcome — including queue-full rejection, cancellation,
// deadline expiry and shutdown — is a typed core::Error, never a hang.
//
// Multi-tenant reference management (DESIGN.md §4g): the engine hosts any
// number of *named databases*, each a sequence of immutable, refcounted
// reference generations with their own backend set (shard plans rebuilt
// per generation).  upload_database() publishes a new generation while
// in-flight requests finish on the one they were admitted under; the old
// snapshot is reclaimed when its last pin drops (epoch-style, see
// VersionedStore).  Admission is tenant-aware: per-tenant queues drained
// by a weighted stride scheduler (fair share ∝ weight), per-tenant
// queue-depth quotas, and typed UnknownDatabase / TenantQuotaExceeded
// refusals.
//
// Determinism contract: the hits of a coalesced request are bit-for-bit
// the hits of align_sync on the same query/threshold and generation
// (pinned by the engine differential tests for every backend).
//
// Scan pool: the engine owns one util::ThreadPool, one worker per CPU in
// the process affinity mask (util::schedulable_cpus()), started beside
// the engine workers so a sync-only caller spawns no thread.  Every
// async batch scans on it: TileScanner splits each strand scan into tile
// runs (TileScanner::scan_runs), a sharded generation's one whole-store
// scan included.  Deadlock rule: a scan-pool task never waits on the scan
// pool.  Only engine workers wait on it; the chaos splices and the
// null-list fill in
// ScanBackend::run_many stay serial.  On a 1-CPU mask the pool has one
// worker and every scan runs in place on its caller.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fabp/core/backend.hpp"
#include "fabp/core/shard.hpp"
#include "fabp/util/thread_pool.hpp"

namespace fabp::core {

/// Admission-time identity and share of one tenant.  Unregistered tenant
/// names fall back to the EngineConfig defaults, so registration is only
/// needed to differentiate weights or quotas.
struct TenantConfig {
  std::string name;
  /// Fair-share weight: the stride scheduler dequeues tenants' requests
  /// in proportion to their weights whenever both have work queued.
  double weight = 1.0;
  /// Most requests this tenant may have waiting at once; submissions
  /// beyond it fail typed TenantQuotaExceeded.  0 = bounded only by the
  /// engine-wide queue_capacity.
  std::size_t queue_quota = 0;
};

struct EngineConfig {
  HostConfig host{};
  /// Which backend serves requests (the full card model by default).
  BackendKind backend = BackendKind::HwSim;
  /// Reference sharding (DESIGN.md §4e).  shard_count == 1 keeps the
  /// single-card path; > 1 routes through a ShardedBackend: one scan of
  /// the whole store, then N card backends each accounting over a
  /// contiguous window of card DRAM (+ halo), scatter/gather with global
  /// rebase.  Applied per database generation — a swap rebuilds the
  /// shard plans over the new snapshot.
  ShardConfig shard{};
  /// Worker threads draining the queue.  A worker claims a batch, hands
  /// its scan to the engine's scan pool (sized by the affinity mask, not
  /// by this knob) and waits for it without any lock, then accounts and
  /// fulfils.  Only the device accounting is serialized per database (one
  /// modeled card each); distinct databases account in parallel.
  std::size_t workers = 2;
  /// Admission queue bound across all tenants; submissions beyond it are
  /// rejected with ErrorCode::QueueFull instead of growing latency
  /// without bound.
  std::size_t queue_capacity = 256;
  /// Most queued requests one coalesced batch may absorb.
  std::size_t max_coalesce = 16;
  /// QueryCompiler LRU capacity (compiled artifacts shared across requests).
  std::size_t compiler_capacity = 128;
  /// Spawn workers lazily on the first submit().  Turn off to hold the
  /// queue closed until an explicit start() — requests then accumulate
  /// (or reject) deterministically, which the queue/cancel/deadline tests
  /// rely on.
  bool autostart = true;
  /// Pre-registered tenants (weight/quota overrides).  Unlisted tenant
  /// names are admitted with the defaults below.
  std::vector<TenantConfig> tenants{};
  double default_tenant_weight = 1.0;
  std::size_t default_tenant_quota = 0;
};

/// Per-request knobs.
struct RequestOptions {
  /// Seconds the request may wait before it is failed with
  /// DeadlineExceeded instead of run; 0 = no deadline.  Checked when a
  /// worker claims the request *and again* at the device dispatch point
  /// (after the claiming batch wins the execution lock), so a request
  /// that expired behind a long-running batch never rides into a device
  /// invocation and inflates batch latency for live requests.
  double timeout_s = 0.0;
  /// Named database to search; empty = Engine::kDefaultDatabase.  An
  /// unknown name fails typed UnknownDatabase at submit.
  std::string database;
  /// Tenant the request is billed to; empty = the default tenant.
  std::string tenant;
};

/// Monotonic counters over an engine's lifetime (snapshot via stats()).
struct EngineStats {
  std::size_t submitted = 0;         ///< accepted into the queue
  std::size_t completed = 0;         ///< finished with a value
  std::size_t failed = 0;            ///< finished with a typed error
  std::size_t rejected = 0;          ///< refused at submit (queue/quota full)
  std::size_t cancelled = 0;         ///< cancelled while queued
  std::size_t expired = 0;           ///< deadline passed while queued
  std::size_t coalesced_batches = 0; ///< multi-query scans issued
  std::size_t coalesced_requests = 0;///< requests served by those scans
  std::size_t largest_batch = 0;     ///< widest coalesced scan so far

  /// Mean requests per coalesced batch (0 when none formed).
  double batch_occupancy() const noexcept {
    return coalesced_batches == 0
               ? 0.0
               : static_cast<double>(coalesced_requests) /
                     static_cast<double>(coalesced_batches);
  }
};

/// Point-in-time view of one resident database (database_status()).
struct DatabaseStatus {
  std::string name;
  std::uint64_t active_generation = 0;
  std::size_t swaps = 0;          ///< uploads published over the lifetime
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double qps = 0.0;               ///< completed / engine uptime
  double p50_ms = 0.0;            ///< admit-to-outcome latency percentiles
  double p99_ms = 0.0;
  /// The active generation's card is lost (the worst card when
  /// sharded): its requests are served in software with zero card time.
  bool degraded = false;
  std::size_t reclaimed_generations = 0;
  /// Active + still-pinned retired generations with live refcounts.
  std::vector<VersionedStore::GenerationStatus> generations;
};

/// Point-in-time view of one tenant (tenant_status()).
struct TenantStatus {
  std::string name;
  double weight = 1.0;
  std::size_t quota = 0;          ///< 0 = engine queue bound only
  std::size_t queue_depth = 0;
  std::size_t peak_depth = 0;
  std::size_t submitted = 0;
  std::size_t dequeued = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t quota_rejections = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

namespace detail {

/// Queue-entry lifecycle.  The atomic phase is the single arbitration
/// point between the claiming worker and a concurrent cancel: whoever
/// CASes Pending away owns the promise and fulfils it exactly once.
enum class RequestPhase : int { Pending = 0, Claimed = 1, Cancelled = 2 };

struct EngineCounters {
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> cancelled{0};
  std::atomic<std::size_t> expired{0};
  std::atomic<std::size_t> coalesced_batches{0};
  std::atomic<std::size_t> coalesced_requests{0};
  std::atomic<std::size_t> largest_batch{0};
};

/// One resident generation of a database: the immutable snapshot plus the
/// backend set built over it.  Constructing the backends over a fresh
/// snapshot is what "shard plans rebuilt per generation" means — the
/// ShardedBackend constructor places its card windows over the new store
/// — and it also guarantees no stale derived artifacts (tile CRCs, cut
/// card images) can survive a swap.  Requests pin this whole object for
/// their lifetime; the last pin dropping reclaims strands, images and
/// caches in one sweep
/// (see VersionedStore).
struct Generation final : ReferenceSnapshot {
  std::unique_ptr<ScanBackend> backend;  ///< serves healthy and lost cards
  ShardedBackend* sharded = nullptr;  ///< backend downcast when sharded
};

/// Small mutex-guarded circular window of request latencies (ms), shared
/// shape for per-database, per-tenant and server percentile reporting,
/// plus the exact maximum over every sample ever recorded.
struct LatencyRing {
  static constexpr std::size_t kCapacity = 1024;

  void record(double value_ms);
  std::vector<double> snapshot() const;  ///< valid samples, unordered
  double max_ms() const;                 ///< all-time, not just the window

 private:
  mutable std::mutex mutex_;
  std::vector<double> ms_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  double max_ms_ = 0.0;
};

/// One named database resident in the engine.  Never destroyed while the
/// engine lives, so raw pointers into the map are stable.
struct Database {
  std::string name;
  /// Guards the active-generation pointer and publication order.
  mutable std::mutex swap_mutex;
  /// Serializes run_many, the device accounting, for this database (one
  /// modeled card per database; backend-side mutable state is not
  /// thread-safe).  The const scan_batch runs outside it.  Distinct
  /// databases account in parallel.
  mutable std::mutex exec_mutex;
  std::shared_ptr<Generation> active;  ///< typed pin; same control block
                                       ///< the VersionedStore tracks
  VersionedStore versions;

  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> swaps{0};
  LatencyRing latency;
};

struct RequestState;

/// One tenant's admission queue + stride-scheduler state.  Queue, pass
/// and the plain counters are guarded by the engine's queue mutex; the
/// completion counters and latency ring are touched at fulfil time.
struct TenantQueue {
  std::string name;
  double weight = 1.0;
  std::size_t quota = 0;
  std::deque<std::shared_ptr<RequestState>> waiting;
  /// Stride virtual time: each executed request advances it by 1/weight,
  /// so a weight-4 tenant is picked 4x as often as a weight-1 one while
  /// both have work queued.
  double pass = 0.0;
  std::size_t submitted = 0;
  std::size_t dequeued = 0;
  std::size_t quota_rejections = 0;
  std::size_t peak_depth = 0;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  LatencyRing latency;
};

struct RequestState {
  CompiledQueryPtr query;
  std::uint32_t threshold = 0;
  std::chrono::steady_clock::time_point deadline{};  // epoch = none
  bool has_deadline = false;
  std::atomic<int> phase{static_cast<int>(RequestPhase::Pending)};
  std::promise<Expected<HostRunReport>> promise;
  std::shared_ptr<EngineCounters> counters;  // outlives the engine
  /// Raw strand hit lists from the batch's scan_batch, taken before the
  /// execution lock; run_many accounts over them.
  std::vector<Hit> forward_hits;
  std::vector<Hit> reverse_hits;

  /// The generation this request was admitted under.  The shared_ptr IS
  /// the epoch pin: as long as any in-flight request holds it, the
  /// snapshot (strands, card images, caches) cannot be reclaimed.
  std::shared_ptr<Generation> generation;
  Database* database = nullptr;     // stable for the engine's lifetime
  TenantQueue* tenant = nullptr;    // stable for the engine's lifetime
  std::chrono::steady_clock::time_point enqueued{};

  /// CAS Pending -> to; true means the caller now owns the promise.
  bool claim(RequestPhase to) noexcept {
    int expected = static_cast<int>(RequestPhase::Pending);
    return phase.compare_exchange_strong(expected, static_cast<int>(to));
  }
};

/// Fails every already-claimed batch entry whose deadline is at or past
/// `now` with DeadlineExceeded (bumping the expired counter) and drops it
/// from the batch.  Called by execute_batch once it holds the execution
/// lock (after the lock-free scan) — the second deadline checkpoint after
/// the claim-time one.
void drop_expired(std::vector<std::shared_ptr<RequestState>>& batch,
                  std::chrono::steady_clock::time_point now);

}  // namespace detail

/// Handle to one submitted request.  wait() blocks for the outcome and
/// may be called once; cancel() races the workers for a still-queued
/// request.  Tickets share ownership of the request state, so they stay
/// valid after the engine is destroyed (the outcome is then a
/// ShuttingDown error if the request never ran).
class Ticket {
 public:
  Ticket() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the request finishes and consumes the outcome.
  Expected<HostRunReport> wait() { return future_.get(); }

  /// True once the outcome is available (wait() will not block), blocking
  /// up to `within` for it; returns the moment the request settles.
  bool ready(std::chrono::microseconds within = {}) const {
    return future_.valid() &&
           future_.wait_for(within) == std::future_status::ready;
  }

  /// Cancels the request if no worker has claimed it yet.  Returns true
  /// when this call won the race (wait() then yields ErrorCode::Cancelled);
  /// false when the request already ran, failed, or was cancelled before.
  bool cancel();

 private:
  friend class Engine;
  explicit Ticket(std::shared_ptr<detail::RequestState> state)
      : state_{std::move(state)}, future_{state_->promise.get_future()} {}

  std::shared_ptr<detail::RequestState> state_;
  std::future<Expected<HostRunReport>> future_;
};

/// Construction-time validation of the engine knobs + the wrapped
/// HostConfig (ErrorCode::None when valid, InvalidConfig otherwise).
Error validate_engine_config(const EngineConfig& config) noexcept;

class Engine {
 public:
  /// The database upload_reference() publishes to and requests with no
  /// database name are routed to.
  static constexpr const char* kDefaultDatabase = "default";
  /// The tenant unlabelled requests are billed to.
  static constexpr const char* kDefaultTenant = "default";

  /// Throws FaultError{InvalidConfig} when validate_engine_config rejects
  /// the configuration.  Worker threads start lazily on the first
  /// submit(), so purely synchronous use (align_sync, align_batch_sync
  /// without a pool, software_hits) never spawns a thread.
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- reference lifecycle ------------------------------------------------
  /// Transfers the reference to card DRAM: publishes a new generation
  /// of kDefaultDatabase.  In-flight requests finish on the snapshot they
  /// were admitted under; fresh backends per generation preserve the
  /// "no stale CRCs after re-upload" contract by construction.
  void upload_reference(const bio::NucleotideSequence& reference);
  void upload_reference(bio::PackedNucleotides reference);

  /// Publishes a new generation of the named database, creating the
  /// database on first upload.  The whole new snapshot — RC strand,
  /// backend set, shard plans — is built off-lock while the old
  /// generation keeps serving; the swap itself is a pointer publication.
  /// Returns the generation id just published.
  std::uint64_t upload_database(const std::string& name,
                                const bio::NucleotideSequence& reference);
  std::uint64_t upload_database(const std::string& name,
                                bio::PackedNucleotides reference);

  bool has_database(const std::string& name) const;
  std::vector<std::string> database_names() const;

  bool has_reference() const;
  /// The default database's active forward strand.  Stable until the next
  /// upload to the default database.
  const bio::PackedNucleotides& reference() const;

  // --- asynchronous serving ----------------------------------------------
  /// Enqueues one aligned search.  Never throws and never blocks beyond
  /// the queue lock: a full queue, an exhausted tenant quota, an unknown
  /// database, a compile failure (unencodable residue) and shutdown all
  /// come back as already-failed tickets with typed errors.
  Ticket submit(const bio::ProteinSequence& query, std::uint32_t threshold,
                RequestOptions options = {});

  /// Spawns the worker pool if it is not running yet (no-op afterwards).
  /// Only needed with autostart off.
  void start();

  // --- synchronous paths -------------------------------------------------
  /// End-to-end aligned search of one protein query on the caller's
  /// thread, against the default database's active generation.  Under an
  /// injected fault schedule the recovery machinery retries, repairs and
  /// (if allowed) degrades, so the returned hits are always bit-exact with
  /// the golden model; a typed error comes back only when the schedule is
  /// unrecoverable or no reference is uploaded (NoReference).  Callers
  /// that want an exception use value_or_throw().  An unencodable residue
  /// throws.
  Expected<HostRunReport> align_sync(const bio::ProteinSequence& query,
                                     std::uint32_t threshold);

  /// Aligns a batch against the resident reference (the paper's
  /// deployment model: the database is transferred once, queries stream
  /// through).  Thresholds are per-query fractions of the query's element
  /// count.  One multi-query pass over the reference (chunked over `pool`
  /// when given) produces every hit list; each query is then accounted as
  /// its own device invocation, so every per-query report is bit-for-bit
  /// what align_sync returns for it.  The first failing query's error is
  /// returned for the whole batch.
  Expected<BatchReport> align_batch_sync(
      std::span<const bio::ProteinSequence> queries, double threshold_fraction,
      util::ThreadPool* pool = nullptr);

  /// Timing-only estimate against a hypothetical reference of `bytes`
  /// bytes (2-bit packed), for database-scale projections.
  HostRunReport estimate(const bio::ProteinSequence& query,
                         std::uint32_t threshold, std::size_t bytes) const;

  /// Pure-software scan of the resident forward strand (no accelerator
  /// timing model): exactly the hits align_sync reports for it.  The
  /// batch form scores every query in one tile-fused pass; element [q]
  /// equals software_hits(queries[q], thresholds[q]).  Pass a pool to
  /// chunk the scan over threads (output is identical either way).
  /// Throws std::logic_error when no reference is uploaded and
  /// std::invalid_argument when thresholds.size() != queries.size().
  std::vector<Hit> software_hits(const bio::ProteinSequence& query,
                                 std::uint32_t threshold,
                                 util::ThreadPool* pool = nullptr);
  std::vector<std::vector<Hit>> software_hits_batch(
      std::span<const bio::ProteinSequence> queries,
      std::span<const std::uint32_t> thresholds,
      util::ThreadPool* pool = nullptr);

  // --- introspection ------------------------------------------------------
  /// Requests currently waiting for a worker claim, across all tenants.
  /// The service edge (net::WireServer) sheds on this before enqueueing
  /// more work.
  std::size_t queue_depth() const {
    std::lock_guard lock{queue_mutex_};
    return queued_total_;
  }

  const EngineConfig& config() const noexcept { return config_; }
  const HostConfig& host_config() const noexcept { return config_.host; }
  BackendKind backend_kind() const noexcept { return config_.backend; }
  EngineStats stats() const noexcept;
  QueryCompilerStats compiler_stats() const { return compiler_.stats(); }

  /// Per-database and per-tenant observability (QPS, latency percentiles,
  /// queue depths, per-generation refcounts) — the `fabp serve` stats
  /// dump renders these.
  std::vector<DatabaseStatus> database_status() const;
  std::vector<TenantStatus> tenant_status() const;
  double uptime_seconds() const;

  /// Backend health / fault schedule of the default database's active
  /// generation.  Stable only while no worker is executing (synchronous
  /// use, or after draining) and until the next upload.
  HealthState health() const;
  const std::vector<hw::FaultEvent>& fault_log() const;

  /// Device batch scheduler accounting of the default database's active
  /// backend (all-zero for the software backends).  With sharding this is
  /// the *merged* cross-card view (counts summed, makespans max'ed — see
  /// ShardedBackend).  Takes the execution lock for a stable snapshot.
  DevicePipelineStats pipeline_stats() const;

  /// Per-shard router view (owned ranges, health, batch counts, recovery,
  /// per-card pipeline stats) of the default database's active generation.
  /// Empty when shard_count == 1 (no router).  Takes the execution lock
  /// for a stable snapshot.
  std::vector<ShardStatus> shard_status() const;
  std::size_t shard_count() const noexcept {
    return config_.shard.shard_count > 1 ? config_.shard.shard_count : 1;
  }
  /// Router scatter/gather wall time of the active generation (0 when
  /// unsharded).  Two relaxed atomics: takes no execution lock, so a
  /// stats scrape never waits behind a running batch.
  double shard_overhead_seconds() const;

 private:
  using StatePtr = std::shared_ptr<detail::RequestState>;

  void worker_loop();
  void ensure_workers();
  /// Runs one claimed batch (1..max_coalesce requests, all pinned to the
  /// same generation): scan_batch per strand on the scan pool without the
  /// lock, then one run_many call under it (the hw-sim device batch
  /// scheduler's unit), then fulfils.  The calling worker only waits on
  /// the scan.
  void execute_batch(std::vector<StatePtr> batch);
  /// The one synchronous body behind align_sync and align_batch_sync:
  /// pins the default database, fails typed NoReference before an
  /// upload, compiles, scans every query with one scan_strands call (on
  /// `pool`, or in place when null), then under the execution lock
  /// accounts each query with its own one-request run_many and finalizes
  /// it.  The first failing query's error is the result.
  Expected<std::vector<HostRunReport>> run_sync(
      std::span<const bio::ProteinSequence> queries,
      const std::function<std::uint32_t(const CompiledQuery&)>& threshold_of,
      util::ThreadPool* pool);

  /// Looks up a resident database (nullptr when unknown).
  detail::Database* find_database(const std::string& name) const;
  /// Finds or creates a database (generation-0 backend set over an empty
  /// store, matching the pre-upload engine of old).
  detail::Database& ensure_database(const std::string& name);
  /// Builds the backend set (sharded when configured) over gen's store.
  void build_backends(detail::Generation& gen) const;
  /// Pins the active generation of `db`.
  static std::shared_ptr<detail::Generation> pin_active(detail::Database& db);
  /// Finds or creates the tenant queue; caller holds queue_mutex_.
  detail::TenantQueue& tenant_queue_locked(const std::string& name);
  /// Min-pass non-empty tenant whose head request matches `match` (any
  /// generation when null); caller holds queue_mutex_.
  detail::TenantQueue* pick_tenant_locked(const detail::Generation* match);

  EngineConfig config_;
  mutable QueryCompiler compiler_;
  std::shared_ptr<detail::EngineCounters> counters_;
  std::chrono::steady_clock::time_point start_time_;

  /// Guards the database map's structure; Database objects themselves are
  /// never destroyed while the engine lives.
  mutable std::mutex db_mutex_;
  std::map<std::string, std::unique_ptr<detail::Database>> databases_;
  detail::Database* default_db_ = nullptr;  ///< always resident

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::map<std::string, std::unique_ptr<detail::TenantQueue>> tenants_;
  std::size_t queued_total_ = 0;
  /// Pass of the most recently dequeued tenant; newly active tenants jump
  /// here so an idle tenant cannot bank credit and burst.
  double virtual_time_ = 0.0;
  std::vector<std::thread> workers_;
  /// The scan pool (see the header comment); started with the workers.
  std::unique_ptr<util::ThreadPool> scan_pool_;
  bool workers_started_ = false;
  bool stopping_ = false;
};

}  // namespace fabp::core
