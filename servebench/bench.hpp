#pragma once
// Shared pieces of the serving benchmark: the workload definitions, the
// per-response record the serving window writes and the replays read, the
// hit digest both compare, and the in-memory span log of the traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fabp/bio/sequence.hpp"
#include "fabp/core/engine.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;
using fabp::core::Hit;

/// One workload's inputs, a pure function of (name, seed).  The program
/// under test sees only the references and the queries built from them.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t connections = 4;
  double threshold_fraction = 0.65;
  /// Database names; [0] is the engine's default database, so the
  /// default-database introspection calls (pipeline_stats, shard_status,
  /// shard_overhead_seconds) observe it.
  std::vector<std::string> databases;
  std::vector<fabp::bio::NucleotideSequence> refs;
  std::vector<int> initial_ref;  ///< per database, index into refs
  /// Hot query set; empty means every request is a distinct query.
  std::vector<fabp::bio::ProteinSequence> hot;
  /// Database the in-window publisher swaps between churn_refs (-1: none;
  /// the workload's own database is then republished around the window).
  int churn_db = -1;
  int churn_refs[2] = {0, 0};

  fabp::bio::ProteinSequence query(std::uint64_t index) const;
  std::uint32_t threshold(const fabp::bio::ProteinSequence& query) const;
  std::size_t database_for(std::size_t connection, std::uint64_t seq) const;
};

/// Builds the named workload; throws std::invalid_argument when unknown.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// One answered (or failed) request as the client saw it.
struct Record {
  std::uint64_t id = 0;
  std::uint64_t query = 0;  ///< Workload::query index
  std::uint32_t db = 0;
  std::uint32_t threshold = 0;
  std::uint64_t generation = 0;
  std::uint32_t digest = 0;  ///< hit_digest of the response
  std::uint32_t hits = 0;    ///< forward + reverse
  std::uint32_t status = 0;  ///< 0 ok, else 100 + CallStatus or ErrorCode
  double sent_s = 0.0;       ///< seconds since the run's epoch
  double recv_s = 0.0;
  double server_s = 0.0;     ///< AlignResponse::server_seconds
};

/// CRC32 over the hit lists in wire order ([u32 count][u64 pos, u32 score]
/// per strand): equal digests mean byte-identical hit lists.
std::uint32_t hit_digest(const std::vector<Hit>& forward,
                         const std::vector<Hit>& reverse);

/// Which reference each published generation of each database holds.
class GenerationMap {
 public:
  explicit GenerationMap(std::size_t databases) : refs_(databases) {}
  void record(std::size_t db, std::uint64_t generation, int ref);
  /// -1 when the generation was never published by this run.
  int ref_of(std::size_t db, std::uint64_t generation) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::map<std::uint64_t, int>> refs_;
};

/// Threads that are always joined, on exception paths too.  An exception
/// escaping a thread's body is kept, and join() rethrows the first one.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ~ThreadGroup() { join_all(); }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  template <typename Body>
  void spawn(Body body) {
    threads_.emplace_back([this, body = std::move(body)]() mutable {
      try {
        body();
      } catch (...) {
        std::lock_guard lock{mutex_};
        if (!error_) error_ = std::current_exception();
      }
    });
  }

  void join() {
    join_all();
    std::lock_guard lock{mutex_};
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void join_all() noexcept {
    for (std::thread& thread : threads_)
      if (thread.joinable()) thread.join();
  }

  std::mutex mutex_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// Spans kept in memory and written out when the run ends.  Each span is
/// taken around one call the benchmark makes into a layer.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  explicit SpanLog(Clock::time_point epoch) : epoch_{epoch} {}
  std::uint32_t next_id() { return ++last_id_; }
  void add(const Span& span);
  std::size_t size() const;
  /// One JSON object per line; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint32_t> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `log` when non-null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint32_t parent = 0,
            std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t id() const noexcept { return span_.id; }

 private:
  SpanLog* log_;
  SpanLog::Span span_;
};

/// Per-layer replay results (replay.cpp).  Times are per call unless the
/// name says otherwise; `mismatches` counts replayed hit lists whose
/// digest differs from the recorded one.
struct ReplayResult {
  double compile_us = 0.0;        ///< mean compile time of a cache miss
  double scan_batch_ms = 0.0;     ///< per forward-strand batch scan
  double run_many_ms = 0.0;       ///< per batch
  double batch = 1.0;             ///< batch size replayed
  double hits_per_request = 0.0;
  double encode_us = 0.0;         ///< encode + frame, per response
  double decode_us = 0.0;         ///< CRC verify + decode, per response
  double response_bytes = 0.0;    ///< framed, mean
  double gbp_s_1t = 0.0;
  double gbp_s_nt = 0.0;
  double inproc_qps = 0.0;
  double upload_ms = 0.0;         ///< upload_database on an idle engine
  std::size_t replayed = 0;       ///< requests whose digests were compared
  std::size_t mismatches = 0;
};

/// Phase progress on stderr, so a slow phase is visible in the log.
void progress(const std::string& phase);

/// Replays `stream` (as recorded over TCP) into each layer alone.
ReplayResult replay_layers(const Workload& workload,
                           const fabp::core::EngineConfig& config,
                           const std::vector<Record>& stream,
                           const GenerationMap& generations, double batch,
                           SpanLog* spans);

}  // namespace servebench
