#include "fabp/core/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fabp/util/benchenv.hpp"
#include "fabp/util/stats.hpp"

namespace fabp::core {

using detail::Database;
using detail::Generation;
using detail::RequestPhase;
using detail::RequestState;
using detail::TenantQueue;

namespace {

/// Raw strand hit lists of one batch (reverse: one empty list per query
/// when only the forward strand is searched).
struct StrandHits {
  std::vector<std::vector<Hit>> forward;
  std::vector<std::vector<Hit>> reverse;
};

/// The one place the engine's hits come from: scan_batch on the
/// generation's backend, per strand, whatever its health (every
/// backend's scan_batch returns the golden lists).  Reads only the
/// immutable snapshot, so callers run it before taking the execution lock.
/// A scan that throws comes back typed BadArgument.
Expected<StrandHits> scan_strands(const Generation& gen, bool both_strands,
                                  std::span<const CompiledQueryPtr> queries,
                                  std::span<const std::uint32_t> thresholds,
                                  util::ThreadPool* pool) {
  StrandHits out;
  try {
    out.forward = gen.backend->scan_batch(queries, thresholds, false, pool);
    out.reverse = both_strands ? gen.backend->scan_batch(queries, thresholds,
                                                         true, pool)
                               : std::vector<std::vector<Hit>>(queries.size());
  } catch (const std::exception& e) {
    return Error{ErrorCode::BadArgument, e.what()};
  }
  return out;
}

}  // namespace

bool Ticket::cancel() {
  if (!state_) return false;
  if (!state_->claim(RequestPhase::Cancelled)) return false;
  // Counters are bumped before the promise is fulfilled, so a waiter that
  // unblocks always observes its own request in stats().
  state_->counters->cancelled.fetch_add(1, std::memory_order_relaxed);
  state_->promise.set_value(
      Error{ErrorCode::Cancelled, "request cancelled while queued"});
  return true;
}

namespace detail {

void drop_expired(std::vector<std::shared_ptr<RequestState>>& batch,
                  std::chrono::steady_clock::time_point now) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    RequestState& state = *batch[i];
    if (state.has_deadline && now >= state.deadline) {
      state.counters->expired.fetch_add(1, std::memory_order_relaxed);
      state.promise.set_value(
          Error{ErrorCode::DeadlineExceeded,
                "request deadline passed before device dispatch"});
      state.generation.reset();  // settled: release the epoch pin
      continue;
    }
    if (keep != i) batch[keep] = std::move(batch[i]);
    ++keep;
  }
  batch.resize(keep);
}

void LatencyRing::record(double value_ms) {
  std::lock_guard lock{mutex_};
  if (ms_.empty()) ms_.resize(kCapacity, 0.0);
  ms_[next_] = value_ms;
  next_ = (next_ + 1) % kCapacity;
  count_ = std::min(count_ + 1, kCapacity);
  max_ms_ = std::max(max_ms_, value_ms);
}

std::vector<double> LatencyRing::snapshot() const {
  std::lock_guard lock{mutex_};
  return {ms_.begin(), ms_.begin() + static_cast<std::ptrdiff_t>(count_)};
}

double LatencyRing::max_ms() const {
  std::lock_guard lock{mutex_};
  return max_ms_;
}

}  // namespace detail

Error validate_engine_config(const EngineConfig& config) noexcept {
  if (config.workers == 0)
    return Error{ErrorCode::InvalidConfig, "engine.workers must be positive"};
  if (config.workers > 1024)
    return Error{ErrorCode::InvalidConfig,
                 "engine.workers above 1024 is absurd"};
  if (config.queue_capacity == 0)
    return Error{ErrorCode::InvalidConfig,
                 "engine.queue_capacity must be positive"};
  if (config.max_coalesce == 0)
    return Error{ErrorCode::InvalidConfig,
                 "engine.max_coalesce must be positive"};
  if (config.compiler_capacity == 0)
    return Error{ErrorCode::InvalidConfig,
                 "engine.compiler_capacity must be positive"};
  if (!(config.default_tenant_weight > 0.0))
    return Error{ErrorCode::InvalidConfig,
                 "engine.default_tenant_weight must be positive"};
  for (const TenantConfig& tenant : config.tenants) {
    if (tenant.name.empty())
      return Error{ErrorCode::InvalidConfig,
                   "engine.tenants entries need non-empty names"};
    if (!(tenant.weight > 0.0))
      return Error{ErrorCode::InvalidConfig,
                   "tenant '" + tenant.name + "' weight must be positive"};
  }
  if (config.backend == BackendKind::HwSim) {
    // A coalesced claim wider than the device's in-flight window
    // (invocation capacity x ping/pong buffers) would stall the pipeline
    // on the card: reject the shape instead of silently queueing.
    const hw::DeviceBatchConfig& batch = config.host.device_batch;
    if (batch.invocation_tasks != 0 && batch.buffer_depth != 0 &&
        config.max_coalesce > batch.invocation_tasks * batch.buffer_depth)
      return Error{ErrorCode::InvalidConfig,
                   "engine.max_coalesce exceeds the device batch window "
                   "(device_batch.invocation_tasks * buffer_depth)"};
  }
  if (Error error = validate_shard_config(config.shard);
      error.code != ErrorCode::None)
    return error;
  return validate_host_config(config.host);
}

Engine::Engine(EngineConfig config)
    : config_{std::move(config)},
      compiler_{config_.compiler_capacity},
      counters_{std::make_shared<detail::EngineCounters>()},
      start_time_{std::chrono::steady_clock::now()} {
  if (Error error = validate_engine_config(config_);
      error.code != ErrorCode::None)
    throw FaultError{std::move(error)};
  default_db_ = &ensure_database(kDefaultDatabase);
  // Pre-register configured tenants so the stats surface shows them (and
  // their weights) before their first request arrives.
  std::lock_guard lock{queue_mutex_};
  tenant_queue_locked(kDefaultTenant);
  for (const TenantConfig& tenant : config_.tenants)
    tenant_queue_locked(tenant.name);
}

Engine::~Engine() {
  {
    std::lock_guard lock{queue_mutex_};
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Whatever is still queued never ran: fail it with a typed outcome so
  // every Ticket::wait() unblocks.
  for (auto& [name, tenant] : tenants_) {
    for (const StatePtr& state : tenant->waiting) {
      if (state->claim(RequestPhase::Cancelled)) {
        counters_->failed.fetch_add(1, std::memory_order_relaxed);
        state->promise.set_value(
            Error{ErrorCode::ShuttingDown,
                  "engine destroyed before the request ran"});
      }
      state->generation.reset();  // workers joined; no scheduler reads
    }
    tenant->waiting.clear();
  }
}

void Engine::build_backends(Generation& gen) const {
  if (config_.shard.shard_count > 1) {
    // Multi-card scale-out: the router presents N per-window card
    // backends as one ScanBackend.  Constructing it over the new snapshot
    // places the card windows — the per-generation shard plan rebuild.
    auto sharded = make_sharded_backend(config_.backend, config_.host,
                                        gen.store, config_.shard);
    gen.sharded = sharded.get();
    gen.backend = std::move(sharded);
  } else {
    gen.backend = make_backend(config_.backend, config_.host, gen.store);
  }
}

Database* Engine::find_database(const std::string& name) const {
  std::lock_guard lock{db_mutex_};
  auto it = databases_.find(name);
  return it != databases_.end() ? it->second.get() : nullptr;
}

Database& Engine::ensure_database(const std::string& name) {
  std::lock_guard lock{db_mutex_};
  auto it = databases_.find(name);
  if (it != databases_.end()) return *it->second;
  auto db = std::make_unique<Database>();
  db->name = name;
  // Generation 0: an empty store behind a live backend set, so pre-upload
  // behavior (NoReference from scans, Healthy health) matches the
  // single-store engine of old.
  auto gen0 = std::make_shared<Generation>();
  gen0->generation = 0;
  build_backends(*gen0);
  db->active = gen0;
  db->versions.publish(gen0);
  auto [pos, inserted] = databases_.emplace(name, std::move(db));
  return *pos->second;
}

std::shared_ptr<Generation> Engine::pin_active(Database& db) {
  std::lock_guard lock{db.swap_mutex};
  return db.active;
}

void Engine::upload_reference(const bio::NucleotideSequence& reference) {
  upload_reference(bio::PackedNucleotides{reference});
}

void Engine::upload_reference(bio::PackedNucleotides reference) {
  upload_database(kDefaultDatabase, std::move(reference));
}

std::uint64_t Engine::upload_database(const std::string& name,
                                      const bio::NucleotideSequence& reference) {
  return upload_database(name, bio::PackedNucleotides{reference});
}

std::uint64_t Engine::upload_database(const std::string& name,
                                      bio::PackedNucleotides reference) {
  if (name.empty())
    throw FaultError{
        Error{ErrorCode::BadArgument, "database name must be non-empty"}};
  Database& db = ensure_database(name);
  // Build the entire new generation off-lock: packing the RC strand and
  // constructing the backend set can be expensive, and in-flight scans
  // keep serving the old snapshot the whole time.  A scan after the swap
  // can never read stale derived artifacts (tile checksums) because the
  // new generation's backends were built over the new store: the
  // re-upload contract host_test.cpp regression-tests holds by
  // construction.
  auto gen = std::make_shared<Generation>();
  gen->generation = db.versions.next_generation();
  const std::uint64_t published = gen->generation;
  gen->store.upload(std::move(reference), config_.host.search_both_strands);
  build_backends(*gen);
  {
    std::lock_guard swap_lock{db.swap_mutex};
    db.active = gen;
    db.versions.publish(std::move(gen));
  }
  db.swaps.fetch_add(1, std::memory_order_relaxed);
  return published;
}

bool Engine::has_database(const std::string& name) const {
  return find_database(name) != nullptr;
}

std::vector<std::string> Engine::database_names() const {
  std::lock_guard lock{db_mutex_};
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, db] : databases_) names.push_back(name);
  return names;
}

bool Engine::has_reference() const {
  return pin_active(*default_db_)->store.uploaded;
}

const bio::PackedNucleotides& Engine::reference() const {
  return pin_active(*default_db_)->store.forward;
}

void Engine::ensure_workers() {
  // Callers hold queue_mutex_.
  if (workers_started_) return;
  workers_started_ = true;
  scan_pool_ = std::make_unique<util::ThreadPool>(util::schedulable_cpus());
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Engine::start() {
  std::lock_guard lock{queue_mutex_};
  if (!stopping_) ensure_workers();
}

TenantQueue& Engine::tenant_queue_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  auto tenant = std::make_unique<TenantQueue>();
  tenant->name = name;
  tenant->weight = config_.default_tenant_weight;
  tenant->quota = config_.default_tenant_quota;
  for (const TenantConfig& configured : config_.tenants) {
    if (configured.name != name) continue;
    tenant->weight = configured.weight;
    tenant->quota = configured.queue_quota;
    break;
  }
  tenant->pass = virtual_time_;
  auto [pos, inserted] = tenants_.emplace(name, std::move(tenant));
  return *pos->second;
}

Ticket Engine::submit(const bio::ProteinSequence& query,
                      std::uint32_t threshold, RequestOptions options) {
  auto state = std::make_shared<RequestState>();
  state->threshold = threshold;
  state->counters = counters_;
  Ticket ticket{state};

  const auto fail = [&](ErrorCode code, std::string message,
                        bool as_rejected) {
    state->phase.store(static_cast<int>(RequestPhase::Claimed));
    state->promise.set_value(Error{code, std::move(message)});
    state->generation.reset();  // settled: release the epoch pin
    auto& counter = as_rejected ? counters_->rejected : counters_->failed;
    counter.fetch_add(1, std::memory_order_relaxed);
  };

  const std::string& db_name =
      options.database.empty() ? kDefaultDatabase : options.database;
  Database* db = find_database(db_name);
  if (db == nullptr) {
    fail(ErrorCode::UnknownDatabase,
         "no database named '" + db_name + "' is resident", false);
    return ticket;
  }

  try {
    state->query = compiler_.compile(query);
  } catch (const std::exception& e) {
    fail(ErrorCode::BadArgument, e.what(), false);
    return ticket;
  }
  // Refused here so a batch's lock-free scan never meets a query the
  // shard router would refuse (it would lose boundary hits to the halo).
  if (config_.shard.shard_count > 1 &&
      state->query->size() > config_.shard.max_query_elements) {
    fail(ErrorCode::BadArgument,
         "query exceeds shard.max_query_elements (halo too small for it)",
         false);
    return ticket;
  }
  if (options.timeout_s > 0.0) {
    state->has_deadline = true;
    state->deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>{options.timeout_s});
  }

  // Pin the generation *at admission*: a swap between here and execution
  // must not move the request — hit-for-hit results belong to the
  // snapshot the caller was admitted under.
  state->database = db;
  state->generation = pin_active(*db);

  const std::string& tenant_name =
      options.tenant.empty() ? kDefaultTenant : options.tenant;
  {
    std::lock_guard lock{queue_mutex_};
    if (stopping_) {
      fail(ErrorCode::ShuttingDown, "engine is shutting down", false);
      return ticket;
    }
    if (queued_total_ >= config_.queue_capacity) {
      fail(ErrorCode::QueueFull, "engine admission queue is full", true);
      return ticket;
    }
    TenantQueue& tenant = tenant_queue_locked(tenant_name);
    if (tenant.quota > 0 && tenant.waiting.size() >= tenant.quota) {
      ++tenant.quota_rejections;
      fail(ErrorCode::TenantQuotaExceeded,
           "tenant '" + tenant_name + "' queue quota exhausted", true);
      return ticket;
    }
    if (config_.autostart) ensure_workers();
    // A tenant going idle must not bank stride credit: on reactivation it
    // rejoins at the scheduler's current virtual time.
    if (tenant.waiting.empty()) tenant.pass = std::max(tenant.pass, virtual_time_);
    state->tenant = &tenant;
    state->enqueued = std::chrono::steady_clock::now();
    tenant.waiting.push_back(state);
    ++tenant.submitted;
    tenant.peak_depth = std::max(tenant.peak_depth, tenant.waiting.size());
    ++queued_total_;
    counters_->submitted.fetch_add(1, std::memory_order_relaxed);
    db->submitted.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return ticket;
}

TenantQueue* Engine::pick_tenant_locked(const Generation* match) {
  TenantQueue* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant->waiting.empty()) continue;
    // Coalescing constraint: one batch = one generation (one backend, one
    // snapshot).  Cross-tenant coalescing is fine as long as the head
    // requests agree on the generation.
    if (match != nullptr && tenant->waiting.front()->generation.get() != match)
      continue;
    if (best == nullptr || tenant->pass < best->pass) best = tenant.get();
  }
  return best;
}

void Engine::worker_loop() {
  for (;;) {
    std::vector<StatePtr> batch;
    {
      std::unique_lock lock{queue_mutex_};
      queue_cv_.wait(lock, [this] { return stopping_ || queued_total_ > 0; });
      if (stopping_) return;  // destructor fails whatever is left
      // Opportunistic coalescing with weighted fair share: each pick
      // dequeues from the lowest-pass tenant (stride scheduling, rate ∝
      // weight) whose head request rides the batch's generation.  Under
      // load the queues refill while the backend runs, so batches form
      // without any artificial delay.
      const auto now = std::chrono::steady_clock::now();
      const Generation* match = nullptr;
      while (batch.size() < config_.max_coalesce) {
        TenantQueue* tenant = pick_tenant_locked(match);
        if (tenant == nullptr) break;
        StatePtr state = std::move(tenant->waiting.front());
        tenant->waiting.pop_front();
        --queued_total_;
        if (!state->claim(RequestPhase::Claimed)) {
          // Cancelled while queued: Ticket::cancel fulfilled the promise
          // but deliberately left the generation pin alone (the scheduler
          // reads it lock-free through waiting.front()); drop it here,
          // under the queue lock, now that the entry is off the deque.
          state->generation.reset();
          continue;
        }
        if (state->has_deadline && now >= state->deadline) {
          counters_->expired.fetch_add(1, std::memory_order_relaxed);
          state->promise.set_value(
              Error{ErrorCode::DeadlineExceeded,
                    "request deadline passed while queued"});
          state->generation.reset();  // settled: release the epoch pin
          continue;
        }
        // Only executed work advances a tenant's pass (cancelled/expired
        // entries are free), and the scheduler clock follows the winner.
        virtual_time_ = tenant->pass;
        tenant->pass += 1.0 / tenant->weight;
        ++tenant->dequeued;
        if (match == nullptr) match = state->generation.get();
        batch.push_back(std::move(state));
      }
    }
    if (!batch.empty()) execute_batch(std::move(batch));
  }
}

void Engine::execute_batch(std::vector<StatePtr> batch) {
  // The claim loop pinned every entry to the same generation; the batch
  // holds the epoch pin until the last promise is fulfilled, so a
  // concurrent swap cannot reclaim the snapshot under this scan.
  Database& db = *batch.front()->database;
  const std::shared_ptr<Generation> gen = batch.front()->generation;

  const auto fulfil = [&](RequestState& state,
                          Expected<HostRunReport> outcome) {
    const bool ok = outcome.has_value();
    auto& counter = ok ? counters_->completed : counters_->failed;
    counter.fetch_add(1, std::memory_order_relaxed);
    (ok ? db.completed : db.failed).fetch_add(1, std::memory_order_relaxed);
    if (state.tenant != nullptr) {
      (ok ? state.tenant->completed : state.tenant->failed)
          .fetch_add(1, std::memory_order_relaxed);
      const double latency_ms =
          std::chrono::duration<double, std::milli>{
              std::chrono::steady_clock::now() - state.enqueued}
              .count();
      state.tenant->latency.record(latency_ms);
      db.latency.record(latency_ms);
    }
    state.forward_hits = {};  // the outcome carries its own copies
    state.reverse_hits = {};
    state.promise.set_value(std::move(outcome));
    // Settle = unpin.  The batch-local `gen` keeps the snapshot alive for
    // the remainder of this run; releasing the request's own pin here
    // makes a retired generation reclaimable once its last ticket
    // settles, rather than when the caller destroys the Ticket.
    state.generation.reset();
  };

  // One multi-query scan of each strand produces every request's hit
  // list, a batch of one included, before the execution lock: the scan
  // reads only the pinned snapshot, so concurrent batches scan in
  // parallel and the lock covers device accounting alone.
  std::vector<CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  queries.reserve(batch.size());
  thresholds.reserve(batch.size());
  for (const StatePtr& state : batch) {
    queries.push_back(state->query);
    thresholds.push_back(state->threshold);
  }
  Expected<StrandHits> scanned = scan_strands(
      *gen, config_.host.search_both_strands, queries, thresholds,
      scan_pool_.get());
  if (!scanned) {
    for (const StatePtr& state : batch) fulfil(*state, scanned.error());
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->forward_hits = std::move(scanned->forward[i]);
    batch[i]->reverse_hits = std::move(scanned->reverse[i]);
  }
  if (batch.size() >= 2) {
    counters_->coalesced_batches.fetch_add(1, std::memory_order_relaxed);
    counters_->coalesced_requests.fetch_add(batch.size(),
                                            std::memory_order_relaxed);
    std::size_t prev = counters_->largest_batch.load(std::memory_order_relaxed);
    while (prev < batch.size() &&
           !counters_->largest_batch.compare_exchange_weak(
               prev, batch.size(), std::memory_order_relaxed)) {
    }
  }

  std::lock_guard exec_lock{db.exec_mutex};

  // Second deadline checkpoint: the claim-time check above ran before
  // this batch won the execution lock, and a long-running predecessor
  // batch may have burned a claimed request's whole budget in between.
  // Fail those now instead of letting a dead request widen the device
  // invocation and inflate latency for the live ones.
  detail::drop_expired(batch, std::chrono::steady_clock::now());
  if (batch.empty()) return;

  // The whole claimed batch goes to the backend as one run_many call over
  // the scanned lists: the hw-sim backend packs it into device invocations
  // and pipelines them (double-buffered DMA + multi-PE, DESIGN.md §4d);
  // software backends account per request.  Outcomes stay per request,
  // bit-identical to sequential align_sync calls, a lost card's included
  // (its degraded branch serves the lists with zero card time).
  std::vector<BackendRequest> requests;
  requests.reserve(batch.size());
  for (const StatePtr& state : batch)
    requests.push_back(BackendRequest{state->query.get(), state->threshold,
                                      &state->forward_hits,
                                      &state->reverse_hits});

  std::vector<Expected<BackendRun>> runs;
  try {
    runs = gen->backend->run_many(requests);
  } catch (const std::exception& e) {
    const Error error{ErrorCode::BadArgument, e.what()};
    for (const StatePtr& state : batch) fulfil(*state, error);
    return;
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    RequestState& state = *batch[i];
    if (i >= runs.size()) {
      fulfil(state, Error{ErrorCode::BadArgument,
                          "backend returned a short batch"});
      continue;
    }
    if (!runs[i]) {
      fulfil(state, runs[i].error());
      continue;
    }
    try {
      HostRunReport report =
          finalize_run(config_.host, *state.query, std::move(runs[i]).value(),
                       gen->store.forward.byte_size());
      report.generation = gen->generation;
      fulfil(state, std::move(report));
    } catch (const std::exception& e) {
      fulfil(state, Error{ErrorCode::BadArgument, e.what()});
    }
  }
}

Expected<std::vector<HostRunReport>> Engine::run_sync(
    std::span<const bio::ProteinSequence> queries,
    const std::function<std::uint32_t(const CompiledQuery&)>& threshold_of,
    util::ThreadPool* pool) {
  Database& db = *default_db_;
  const std::shared_ptr<Generation> gen = pin_active(db);
  if (!gen->store.uploaded)
    return Error{ErrorCode::NoReference, "no reference uploaded"};

  // Compile failures (unencodable residues) propagate as exceptions.
  std::vector<CompiledQueryPtr> compiled;
  std::vector<std::uint32_t> thresholds;
  compiled.reserve(queries.size());
  thresholds.reserve(queries.size());
  for (const bio::ProteinSequence& query : queries) {
    compiled.push_back(compiler_.compile(query));
    thresholds.push_back(threshold_of(*compiled.back()));
  }

  // One multi-query pass over the reference produces every hit list up
  // front — each freshly compiled tile is scored against the whole batch
  // while hot in cache.  The per-query runs below then reduce to
  // cycle/energy accounting.
  Expected<StrandHits> scanned = scan_strands(
      *gen, config_.host.search_both_strands, compiled, thresholds, pool);
  if (!scanned) return scanned.error();

  // One single-request run_many per query, never the whole batch in one
  // call: the hw-sim backend splits a packed invocation's kernel time
  // across its tasks, and each report here must equal a solo align's.
  std::vector<HostRunReport> reports;
  reports.reserve(queries.size());
  std::lock_guard lock{db.exec_mutex};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const BackendRequest request{compiled[i].get(), thresholds[i],
                                 &scanned->forward[i], &scanned->reverse[i]};
    Expected<BackendRun> run =
        std::move(gen->backend->run_many({&request, 1}).front());
    if (!run) return run.error();
    reports.push_back(finalize_run(config_.host, *compiled[i],
                                   std::move(run).value(),
                                   gen->store.forward.byte_size()));
    reports.back().generation = gen->generation;
  }
  return reports;
}

Expected<HostRunReport> Engine::align_sync(const bio::ProteinSequence& query,
                                           std::uint32_t threshold) {
  Expected<std::vector<HostRunReport>> reports = run_sync(
      {&query, 1}, [threshold](const CompiledQuery&) { return threshold; },
      nullptr);
  if (!reports) return reports.error();
  return std::move(reports->front());
}

Expected<BatchReport> Engine::align_batch_sync(
    std::span<const bio::ProteinSequence> queries, double threshold_fraction,
    util::ThreadPool* pool) {
  Expected<std::vector<HostRunReport>> reports = run_sync(
      queries,
      [threshold_fraction](const CompiledQuery& query) {
        return query.threshold_for_fraction(threshold_fraction);
      },
      pool);
  if (!reports) return reports.error();
  BatchReport batch;
  batch.per_query = std::move(reports).value();
  for (const HostRunReport& report : batch.per_query) {
    batch.total_s += report.total_s;
    batch.total_joules += report.joules;
    batch.total_hits += report.hits.size();
    batch.recovery.merge(report.recovery);
  }
  batch.queries_per_second =
      batch.total_s > 0.0
          ? static_cast<double>(queries.size()) / batch.total_s
          : 0.0;
  return batch;
}

HostRunReport Engine::estimate(const bio::ProteinSequence& query,
                               std::uint32_t threshold,
                               std::size_t bytes) const {
  return estimate_run(config_.host, *compile_query(query), threshold, bytes);
}

std::vector<Hit> Engine::software_hits(const bio::ProteinSequence& query,
                                       std::uint32_t threshold,
                                       util::ThreadPool* pool) {
  return std::move(
      software_hits_batch({&query, 1}, {&threshold, 1}, pool).front());
}

std::vector<std::vector<Hit>> Engine::software_hits_batch(
    std::span<const bio::ProteinSequence> queries,
    std::span<const std::uint32_t> thresholds, util::ThreadPool* pool) {
  // Checked before any backend runs: the LUT path reads one threshold
  // per query unchecked.
  const std::shared_ptr<Generation> gen = pin_active(*default_db_);
  if (!gen->store.uploaded) throw std::logic_error{"no reference uploaded"};
  if (thresholds.size() != queries.size())
    throw std::invalid_argument{
        "software_hits_batch: thresholds.size() must equal queries.size()"};
  std::vector<CompiledQueryPtr> compiled;
  compiled.reserve(queries.size());
  for (const bio::ProteinSequence& query : queries)
    compiled.push_back(compiler_.compile(query));
  return gen->backend->scan_batch(compiled, thresholds, false, pool);
}

EngineStats Engine::stats() const noexcept {
  EngineStats out;
  out.submitted = counters_->submitted.load(std::memory_order_relaxed);
  out.completed = counters_->completed.load(std::memory_order_relaxed);
  out.failed = counters_->failed.load(std::memory_order_relaxed);
  out.rejected = counters_->rejected.load(std::memory_order_relaxed);
  out.cancelled = counters_->cancelled.load(std::memory_order_relaxed);
  out.expired = counters_->expired.load(std::memory_order_relaxed);
  out.coalesced_batches =
      counters_->coalesced_batches.load(std::memory_order_relaxed);
  out.coalesced_requests =
      counters_->coalesced_requests.load(std::memory_order_relaxed);
  out.largest_batch = counters_->largest_batch.load(std::memory_order_relaxed);
  return out;
}

double Engine::uptime_seconds() const {
  return std::chrono::duration<double>{std::chrono::steady_clock::now() -
                                       start_time_}
      .count();
}

std::vector<DatabaseStatus> Engine::database_status() const {
  const double uptime = std::max(uptime_seconds(), 1e-9);
  std::vector<DatabaseStatus> out;
  std::lock_guard lock{db_mutex_};
  out.reserve(databases_.size());
  for (const auto& [name, db] : databases_) {
    DatabaseStatus status;
    status.name = name;
    const std::shared_ptr<Generation> gen = pin_active(*db);
    status.active_generation = gen->generation;
    status.swaps = db->swaps.load(std::memory_order_relaxed);
    status.submitted = db->submitted.load(std::memory_order_relaxed);
    status.completed = db->completed.load(std::memory_order_relaxed);
    status.failed = db->failed.load(std::memory_order_relaxed);
    status.qps = static_cast<double>(status.completed) / uptime;
    const std::vector<double> window = db->latency.snapshot();
    status.p50_ms = util::percentile(window, 50.0);
    status.p99_ms = util::percentile(window, 99.0);
    status.degraded = gen->backend->health() == HealthState::Degraded;
    status.reclaimed_generations = db->versions.reclaimed();
    status.generations = db->versions.status();
    out.push_back(std::move(status));
  }
  return out;
}

std::vector<TenantStatus> Engine::tenant_status() const {
  const double uptime = std::max(uptime_seconds(), 1e-9);
  std::vector<TenantStatus> out;
  std::lock_guard lock{queue_mutex_};
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStatus status;
    status.name = name;
    status.weight = tenant->weight;
    status.quota = tenant->quota;
    status.queue_depth = tenant->waiting.size();
    status.peak_depth = tenant->peak_depth;
    status.submitted = tenant->submitted;
    status.dequeued = tenant->dequeued;
    status.completed = tenant->completed.load(std::memory_order_relaxed);
    status.failed = tenant->failed.load(std::memory_order_relaxed);
    status.quota_rejections = tenant->quota_rejections;
    status.qps = static_cast<double>(status.completed) / uptime;
    const std::vector<double> window = tenant->latency.snapshot();
    status.p50_ms = util::percentile(window, 50.0);
    status.p99_ms = util::percentile(window, 99.0);
    out.push_back(std::move(status));
  }
  return out;
}

HealthState Engine::health() const {
  return pin_active(*default_db_)->backend->health();
}

const std::vector<hw::FaultEvent>& Engine::fault_log() const {
  // Stable until the next upload to the default database: the active
  // generation (and its backend) is pinned by the database itself.
  return pin_active(*default_db_)->backend->fault_log();
}

DevicePipelineStats Engine::pipeline_stats() const {
  Database& db = *default_db_;
  const std::shared_ptr<Generation> gen = pin_active(db);
  std::lock_guard lock{db.exec_mutex};
  return gen->backend->pipeline_stats();
}

std::vector<ShardStatus> Engine::shard_status() const {
  Database& db = *default_db_;
  const std::shared_ptr<Generation> gen = pin_active(db);
  std::lock_guard lock{db.exec_mutex};
  return gen->sharded != nullptr ? gen->sharded->shard_status()
                                 : std::vector<ShardStatus>{};
}

double Engine::shard_overhead_seconds() const {
  const std::shared_ptr<Generation> gen = pin_active(*default_db_);
  return gen->sharded != nullptr
             ? gen->sharded->scatter_seconds() + gen->sharded->gather_seconds()
             : 0.0;
}

}  // namespace fabp::core
