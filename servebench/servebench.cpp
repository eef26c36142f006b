// Serving benchmark for the fabp TCP service: a net::WireServer over a
// core::Engine (default hw-sim backend), driven by closed-loop net::Client
// connections from the same process, on one of three workloads.
//
//   servebench --workload <scan_bound|hit_heavy|swap_churn> --seed <n>
//              --seconds <s> --trace <0|1> --out <dir> [--stamp k=v]...
//
// --trace 0 measures the end-to-end metrics with no tracing: set-up time
// (median of several set-ups), then a closed-loop window of --seconds.
// --trace 1 serves an untraced and a traced window of --seconds/2 each on
// one set-up, dumps the traced window's request stream with a hit digest
// per response, and replays that stream into each layer alone
// (replay.cpp), printing the per-layer metrics, the reconciliation line and
// the tracing overhead, and writing the span file.  Every response's hit
// list is checked against truth computed by a separate in-process engine;
// a wrong hit list makes the program exit 1.  The last stdout line is the
// JSON result.  NOTES.md explains the workloads and the metric map.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/golden.hpp"
#include "fabp/net/client.hpp"
#include "fabp/net/server.hpp"
#include "fabp/util/benchenv.hpp"
#include "fabp/util/cpuid.hpp"
#include "fabp/util/crc32.hpp"
#include "fabp/util/rng.hpp"
#include "fabp/util/thread_pool.hpp"

namespace servebench {

using namespace fabp;

// --- workloads ---------------------------------------------------------------

namespace {

constexpr std::size_t kMbp = std::size_t{1} << 20;
constexpr std::size_t kDistinctResidues = 20;

bio::SyntheticDatabase planted_reference(std::size_t bases,
                                         std::uint64_t seed) {
  bio::DatabaseSpec spec;
  spec.total_bases = bases;
  spec.gene_count = 8;
  spec.gene_length = 120;
  spec.seed = seed;
  return bio::SyntheticDatabase::build(spec);
}

// Hot queries drawn from planted genes, so each has at least one true hit.
// 20 aa = 60 elements and 80 aa = 240 elements sit on either side of the
// ~70-element crossover between the bandwidth- and LUT-bound regimes.
void add_hot_queries(const bio::SyntheticDatabase& db, std::size_t per_length,
                     std::uint64_t seed,
                     std::vector<bio::ProteinSequence>& out) {
  for (const std::size_t residues : {std::size_t{20}, std::size_t{80}}) {
    bio::QuerySpec spec;
    spec.length = residues;
    spec.substitution_rate = 0.1;
    spec.seed = seed + residues;
    for (auto& query : bio::sample_queries(db, per_length, spec).queries)
      out.push_back(std::move(query));
  }
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "scan_bound") {
    // 16 Mbp = 4 MiB packed, twice a core's L2: scan time is nearly all
    // of server time, and the selective threshold keeps hit lists short.
    auto db = planted_reference(16 * kMbp, seed);
    add_hot_queries(db, 4, seed, w.hot);
    w.refs.push_back(std::move(db.dna));
    w.databases = {core::Engine::kDefaultDatabase};
    w.initial_ref = {0};
    w.connections = 4;
    w.threshold_fraction = 0.65;
  } else if (name == "hit_heavy") {
    // L2-resident 1 Mbp and a permissive threshold: the scan is short and
    // ~2,000 hits per response make compile, hit mapping, encode + CRC,
    // socket I/O and decode dominate.  Distinct queries defeat the
    // compiler cache.
    util::Xoshiro256 rng{seed};
    w.refs.push_back(bio::random_dna(kMbp, rng));
    w.databases = {core::Engine::kDefaultDatabase};
    w.initial_ref = {0};
    w.connections = 4;
    w.threshold_fraction = 0.6;
  } else if (name == "swap_churn") {
    // Reads on two 4-shard databases while "b" is republished every
    // ~0.5 s, alternating between two references.
    auto a = planted_reference(4 * kMbp, seed);
    auto b0 = planted_reference(4 * kMbp, seed + 1);
    auto b1 = planted_reference(4 * kMbp, seed + 2);
    add_hot_queries(a, 2, seed, w.hot);
    add_hot_queries(b0, 2, seed + 3, w.hot);
    w.refs.push_back(std::move(a.dna));
    w.refs.push_back(std::move(b0.dna));
    w.refs.push_back(std::move(b1.dna));
    w.databases = {core::Engine::kDefaultDatabase, "b"};
    w.initial_ref = {0, 1};
    w.churn_db = 1;
    w.churn_refs[0] = 1;
    w.churn_refs[1] = 2;
    w.shards = 4;
    w.connections = 3;
    w.threshold_fraction = 0.65;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

bio::ProteinSequence Workload::query(std::uint64_t index) const {
  if (!hot.empty()) return hot[index];
  util::Xoshiro256 base{seed ^ 0x9e3779b97f4a7c15ULL};
  util::Xoshiro256 rng = base.fork(index);
  return bio::random_protein(kDistinctResidues, rng);
}

std::uint32_t Workload::threshold(const bio::ProteinSequence& query) const {
  // CompiledQuery::threshold_for_fraction's rule, so the truth engine's
  // align_batch_sync derives the same thresholds.
  return static_cast<std::uint32_t>(threshold_fraction *
                                    static_cast<double>(query.size() * 3));
}

std::size_t Workload::database_for(std::size_t connection,
                                   std::uint64_t seq) const {
  return (connection + seq) % databases.size();
}

// --- records, digests, spans -------------------------------------------------

std::uint32_t hit_digest(const std::vector<Hit>& forward,
                         const std::vector<Hit>& reverse) {
  std::string bytes;
  bytes.reserve(8 + 12 * (forward.size() + reverse.size()));
  const auto put = [&bytes](std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i)
      bytes.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  };
  for (const std::vector<Hit>* strand : {&forward, &reverse}) {
    put(strand->size(), 4);
    for (const Hit& hit : *strand) {
      put(hit.position, 8);
      put(hit.score, 4);
    }
  }
  return util::crc32(bytes.data(), bytes.size());
}

void GenerationMap::record(std::size_t db, std::uint64_t generation,
                           int ref) {
  std::lock_guard lock{mutex_};
  refs_.at(db)[generation] = ref;
}

int GenerationMap::ref_of(std::size_t db, std::uint64_t generation) const {
  std::lock_guard lock{mutex_};
  if (db >= refs_.size()) return -1;
  const auto it = refs_[db].find(generation);
  return it == refs_[db].end() ? -1 : it->second;
}

void SpanLog::add(const Span& span) {
  std::lock_guard lock{mutex_};
  spans_.push_back(span);
}

std::size_t SpanLog::size() const {
  std::lock_guard lock{mutex_};
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::lock_guard lock{mutex_};
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"request\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  span.id, span.parent, span.name,
                  static_cast<unsigned long long>(span.request),
                  us(span.start), us(span.end));
    out << line;
  }
  return static_cast<bool>(out);
}

SpanScope::SpanScope(SpanLog* log, const char* name, std::uint32_t parent,
                     std::uint64_t request)
    : log_{log} {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.request = request;
  span_.start = Clock::now();
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  span_.end = Clock::now();
  log_->add(span_);
}

void progress(const std::string& phase) {
  static const Clock::time_point start = Clock::now();
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "[%8.3f s] ",
                std::chrono::duration<double>(Clock::now() - start).count());
  std::cerr << "servebench: " << stamp << phase << std::endl;
}

namespace {

// --- helpers -----------------------------------------------------------------

constexpr double kCallDeadlineS = 20.0;
constexpr double kWarmupS = 0.5;
constexpr double kChurnPeriodS = 0.5;
// Republishes on a workload without in-window churn, before the warm-up
// and after the window, so the swap_ms median spans two host phases.
constexpr std::size_t kRepublishesPerSide = 8;
constexpr double kRepublishBudgetS = 5.0;
// qps, p50 and p90 are medians over this many equal parts of the window,
// so a host slow phase covering less than half of it does not move them.
constexpr std::size_t kSubWindows = 8;
constexpr std::size_t kSetupRepeats = 9;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = fraction * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

// A "Key:   value kB" field of /proc/self/status (0 when absent).
double proc_status_field(const std::string& key) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
  }
  return 0.0;
}

std::size_t host_threads() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

core::EngineConfig engine_config(const Workload& w) {
  core::EngineConfig config;  // hw-sim backend, the serving defaults
  config.shard.shard_count = w.shards;
  return config;
}

net::RetryPolicy single_attempt() {
  // No retries: a refusal or reset is a failed request, never hidden.
  net::RetryPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

// --- the service under test --------------------------------------------------

struct SwapEvent {
  std::size_t db = 0;
  std::uint64_t generation = 0;
  double call_s = 0.0;
  double publish_ms = 0.0;
  std::size_t pinned_retired = 0;
};

class Service {
 public:
  Service(const Workload& w, Clock::time_point epoch)
      : workload{w}, epoch{epoch}, engine{engine_config(w)},
        generations{w.databases.size()} {}

  ~Service() {
    if (server) server->shutdown();
    if (accept_.joinable()) accept_.join();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Engine::upload_database plus the bookkeeping the checks need.
  SwapEvent publish(std::size_t db, int ref) {
    SwapEvent event;
    event.db = db;
    const Clock::time_point t0 = Clock::now();
    event.generation = engine.upload_database(
        workload.databases[db], workload.refs[static_cast<std::size_t>(ref)]);
    const Clock::time_point t1 = Clock::now();
    generations.record(db, event.generation, ref);
    event.call_s = seconds_between(epoch, t0);
    event.publish_ms = 1e3 * seconds_between(t0, t1);
    for (const core::DatabaseStatus& status : engine.database_status()) {
      if (status.name != workload.databases[db]) continue;
      for (const auto& generation : status.generations)
        if (!generation.active) ++event.pinned_retired;
    }
    return event;
  }

  void listen() {
    server = std::make_unique<net::WireServer>(engine, net::ServerConfig{});
    accept_ = std::thread{[this] {
      try {
        server->serve();
      } catch (const std::exception& e) {
        std::cerr << "servebench: accept loop failed: " << e.what() << "\n";
      }
    }};
  }

  std::uint16_t port() const { return server->port(); }

  const Workload& workload;
  Clock::time_point epoch;
  core::Engine engine;
  GenerationMap generations;
  std::unique_ptr<net::WireServer> server;
  std::atomic<std::uint64_t> next_distinct{0};
  std::atomic<std::uint64_t> next_id{1};

 private:
  std::thread accept_;
};

net::AlignRequest make_request(const Workload& w, Service& svc,
                               std::uint64_t query, std::size_t db) {
  const bio::ProteinSequence protein = w.query(query);
  net::AlignRequest request;
  request.id = svc.next_id.fetch_add(1);
  request.threshold = w.threshold(protein);
  request.protein = protein.to_string();
  request.database = w.databases[db];
  return request;
}

/// Engine construction, upload, bind, and the first answered request.
std::unique_ptr<Service> start_service(const Workload& w,
                                       Clock::time_point epoch) {
  auto svc = std::make_unique<Service>(w, epoch);
  for (std::size_t db = 0; db < w.databases.size(); ++db)
    svc->publish(db, w.initial_ref[db]);
  svc->listen();
  net::Client client{"127.0.0.1", svc->port(), single_attempt(), w.seed};
  const std::uint64_t query = w.hot.empty() ? svc->next_distinct++ : 0;
  const net::CallResult first =
      client.align(make_request(w, *svc, query, 0), kCallDeadlineS);
  if (!first.ok())
    throw std::runtime_error("first request failed: " +
                             std::string{net::to_string(first.status)});
  return svc;
}

// --- the closed-loop window --------------------------------------------------

struct Window {
  std::vector<Record> records;
  double begin_s = 0.0;
  double end_s = 0.0;
  std::vector<SwapEvent> swaps;
  double cpu_s = 0.0;
  double threads = 0.0;
  double peak_rss_mib = 0.0;
  core::EngineStats stats_begin, stats_end;
  core::QueryCompilerStats compiler_begin, compiler_end;
  core::DevicePipelineStats pipeline;
  double shard_overhead_s = 0.0;
  std::size_t shard_batches = 0;

  bool in_window(const Record& r) const {
    return r.recv_s >= begin_s && r.recv_s < end_s;
  }
};

/// What serve() does besides the window.
struct ServeOptions {
  /// Republish the workload's reference before and after the window
  /// (swap_ms on a workload without in-window churn).
  bool republish = true;
  /// Read the introspection calls that take the engine's execution lock
  /// (pipeline_stats, shard_status, shard_overhead_seconds).  They are read
  /// once the clients have stopped: under scan-bound load the lock is
  /// almost never free, and a third contender can wait tens of seconds.
  bool introspect = false;
  SpanLog* spans = nullptr;
};

/// Closed loop: each connection sends its next request when the previous
/// reply lands.  Records every request from the first send to the stop;
/// the window is `window_s` by completion time, after a warm-up.  Swaps run
/// inside the window on the churn workload, around it otherwise.
Window serve(Service& svc, const Workload& w, double window_s,
             const ServeOptions& options) {
  SpanLog* spans = options.spans;
  const std::size_t ndb = w.databases.size();
  std::atomic<bool> stop{false};
  auto seen = std::make_unique<std::atomic<std::uint64_t>[]>(ndb);
  std::vector<std::vector<Record>> per_client(w.connections);

  const auto client_loop = [&](std::size_t c) {
    net::Client client{"127.0.0.1", svc.port(), single_attempt(),
                       w.seed ^ (0x100 + c)};
    // Each connection draws hot queries from its own seeded stream.
    util::Xoshiro256 base{w.seed ^ 0xc0ffee};
    util::Xoshiro256 pick = base.fork(c);
    std::vector<Record>& out = per_client[c];
    out.reserve(1 << 15);
    for (std::uint64_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
      const std::uint64_t query =
          w.hot.empty() ? svc.next_distinct.fetch_add(1)
                        : pick.bounded(w.hot.size());
      const std::size_t db = w.database_for(c, seq);
      net::AlignRequest request = make_request(w, svc, query, db);
      Record rec;
      rec.id = request.id;
      rec.query = query;
      rec.db = static_cast<std::uint32_t>(db);
      rec.threshold = request.threshold;
      net::CallResult result;
      {
        SpanScope span{spans, "client.align", 0, request.id};
        rec.sent_s = seconds_between(svc.epoch, Clock::now());
        result = client.align(std::move(request), kCallDeadlineS);
        rec.recv_s = seconds_between(svc.epoch, Clock::now());
      }
      if (result.ok()) {
        const net::AlignResponse& response = result.response;
        rec.generation = response.generation;
        rec.server_s = response.server_seconds;
        rec.digest = hit_digest(response.hits, response.reverse_hits);
        rec.hits = static_cast<std::uint32_t>(response.hits.size() +
                                              response.reverse_hits.size());
        std::uint64_t prev = seen[db].load();
        while (prev < rec.generation &&
               !seen[db].compare_exchange_weak(prev, rec.generation)) {
        }
      } else {
        rec.status = result.response.status != 0
                         ? result.response.status
                         : 100 + static_cast<std::uint32_t>(result.status);
      }
      out.push_back(rec);
    }
  };

  Window win;
  // Republish the workload's own reference (same bases, new generation)
  // under load, waiting each time until a response carries it; a time
  // budget bounds the phase however slowly the service answers.
  const auto republish = [&] {
    if (w.churn_db >= 0 || !options.republish) return;
    const Clock::time_point give_up =
        Clock::now() + seconds(kRepublishBudgetS);
    for (std::size_t k = 0; k < kRepublishesPerSide && Clock::now() < give_up;
         ++k) {
      const SwapEvent event = svc.publish(0, w.initial_ref[0]);
      win.swaps.push_back(event);
      while (seen[0].load() < event.generation && Clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };

  ThreadGroup clients;
  // Declared after `clients`, so an early exit stops the loops before the
  // group joins them.
  const struct StopOnExit {
    std::atomic<bool>& stop;
    ~StopOnExit() { stop = true; }
  } stop_on_exit{stop};
  for (std::size_t c = 0; c < w.connections; ++c)
    clients.spawn([&client_loop, c] { client_loop(c); });
  republish();

  const Clock::time_point begin = Clock::now() + seconds(kWarmupS);
  const Clock::time_point end = begin + seconds(window_s);
  std::this_thread::sleep_until(begin);
  const double cpu_begin = process_cpu_seconds();
  win.stats_begin = svc.engine.stats();
  win.compiler_begin = svc.engine.compiler_stats();
  win.begin_s = seconds_between(svc.epoch, Clock::now());

  ThreadGroup publisher;
  if (w.churn_db >= 0) {
    publisher.spawn([&] {
      for (std::size_t k = 1;; ++k) {
        const Clock::time_point due =
            begin + seconds(kChurnPeriodS * static_cast<double>(k));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        win.swaps.push_back(svc.publish(
            static_cast<std::size_t>(w.churn_db), w.churn_refs[k % 2]));
      }
    });
  }

  // Peak resident memory while serving: sampled through the window, so
  // set-up and swap transients before it do not count.
  for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
    std::this_thread::sleep_until(
        std::min(end, now + std::chrono::milliseconds{100}));
    win.peak_rss_mib =
        std::max(win.peak_rss_mib, proc_status_field("VmRSS") / 1024.0);
  }
  win.end_s = seconds_between(svc.epoch, Clock::now());
  win.cpu_s = process_cpu_seconds() - cpu_begin;
  win.threads = proc_status_field("Threads");
  win.stats_end = svc.engine.stats();
  win.compiler_end = svc.engine.compiler_stats();
  publisher.join();
  progress("window closed");

  republish();
  progress("stopping clients");
  stop = true;
  clients.join();
  if (options.introspect) {
    win.pipeline = svc.engine.pipeline_stats();
    win.shard_overhead_s = svc.engine.shard_overhead_seconds();
    for (const core::ShardStatus& shard : svc.engine.shard_status())
      win.shard_batches = std::max(win.shard_batches, shard.batches_executed);
  }
  for (auto& records : per_client)
    win.records.insert(win.records.end(), records.begin(), records.end());
  std::sort(win.records.begin(), win.records.end(),
            [](const Record& a, const Record& b) {
              return a.sent_s < b.sent_s;
            });
  return win;
}

/// Mean requests per coalesced batch over the window (1 when none formed).
double occupancy(const Window& win) {
  const std::size_t batches =
      win.stats_end.coalesced_batches - win.stats_begin.coalesced_batches;
  return batches == 0
             ? 1.0
             : static_cast<double>(win.stats_end.coalesced_requests -
                                   win.stats_begin.coalesced_requests) /
                   static_cast<double>(batches);
}

struct Latency {
  std::size_t completed = 0;  ///< ok responses that landed in the window
  double qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

/// qps, p50 and p90 of each of kSubWindows equal parts of the window (by
/// completion time), each reported as the median over the parts.
Latency window_latency(const Window& win) {
  const double span = (win.end_s - win.begin_s) / kSubWindows;
  std::vector<std::vector<double>> ms(kSubWindows);
  Latency out;
  for (const Record& r : win.records) {
    if (r.status != 0 || !win.in_window(r)) continue;
    const auto part = std::min<std::size_t>(
        kSubWindows - 1,
        static_cast<std::size_t>((r.recv_s - win.begin_s) / span));
    ms[part].push_back(1e3 * (r.recv_s - r.sent_s));
    ++out.completed;
  }
  std::vector<double> qps, p50, p90;
  for (const std::vector<double>& part : ms) {
    qps.push_back(static_cast<double>(part.size()) / span);
    p50.push_back(percentile(part, 0.5));
    p90.push_back(percentile(part, 0.9));
  }
  out.qps = median(qps);
  out.p50_ms = median(p50);
  out.p90_ms = median(p90);
  return out;
}

/// Per swap: from the upload_database call to the first response that
/// carries the new generation; swaps never observed are left out.
std::vector<double> swap_latencies_ms(const Window& win) {
  std::vector<double> out;
  for (const SwapEvent& swap : win.swaps) {
    double first = -1.0;
    for (const Record& r : win.records)
      if (r.status == 0 && r.db == swap.db && r.generation == swap.generation &&
          (first < 0.0 || r.recv_s < first))
        first = r.recv_s;
    if (first >= 0.0) out.push_back(1e3 * (first - swap.call_s));
  }
  return out;
}

// --- correctness -------------------------------------------------------------

struct Check {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< refused, errored, timed out or wrong hits
  std::size_t wrong = 0;       ///< ok responses whose hits differ from truth
  std::size_t golden_checked = 0;
  std::size_t golden_wrong = 0;
};

/// Truth per distinct (query, reference) from a separate in-process engine
/// (software tiled backend, batched over a pool); for distinct-query
/// workloads a few truths are also checked against the scalar golden
/// oracle.  Then every record is compared against the truth of the
/// generation it echoes.
Check check_records(const Workload& w, const std::vector<Record>& records,
                    const GenerationMap& generations) {
  std::map<int, std::vector<std::uint64_t>> needed;  // ref -> queries
  for (const Record& r : records) {
    if (r.status != 0) continue;
    const int ref = generations.ref_of(r.db, r.generation);
    if (ref >= 0) needed[ref].push_back(r.query);
  }
  std::map<std::pair<int, std::uint64_t>, std::uint32_t> truth;
  Check check;
  util::ThreadPool pool{host_threads()};
  for (auto& [ref, queries] : needed) {
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
    core::EngineConfig config;
    config.backend = core::BackendKind::Tiled;
    core::Engine oracle{config};
    oracle.upload_reference(w.refs[static_cast<std::size_t>(ref)]);
    constexpr std::size_t kChunk = 512;
    for (std::size_t i = 0; i < queries.size(); i += kChunk) {
      std::vector<bio::ProteinSequence> proteins;
      for (std::size_t j = i; j < std::min(i + kChunk, queries.size()); ++j)
        proteins.push_back(w.query(queries[j]));
      const auto batch =
          oracle.align_batch_sync(proteins, w.threshold_fraction, &pool);
      if (!batch) throw std::runtime_error("truth engine failed");
      for (std::size_t j = 0; j < proteins.size(); ++j) {
        const core::HostRunReport& report = batch->per_query[j];
        truth[{ref, queries[i + j]}] =
            hit_digest(report.hits, report.reverse_hits);
        if (w.hot.empty() && i + j < 4) {
          const auto compiled = core::compile_query(proteins[j]);
          const auto golden =
              core::golden_hits(compiled->elements,
                                w.refs[static_cast<std::size_t>(ref)],
                                w.threshold(proteins[j]));
          ++check.golden_checked;
          if (golden != report.hits || !report.reverse_hits.empty())
            ++check.golden_wrong;
        }
      }
    }
  }
  for (const Record& r : records) {
    ++check.attempted;
    if (r.status != 0) {
      ++check.failed;
      continue;
    }
    const int ref = generations.ref_of(r.db, r.generation);
    const auto it = truth.find({ref, r.query});
    if (it == truth.end() || it->second != r.digest) {
      ++check.wrong;
      ++check.failed;
    }
  }
  return check;
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %14.4f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::vector<std::pair<std::string, std::string>> stamp;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else if (arg == "--stamp") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--stamp k=v");
      opt.stamp.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload || !(opt.seconds > 0.0))
    throw std::invalid_argument(
        "--workload and a positive --seconds are required");
  return opt;
}

/// Debug and sanitizer builds do not measure the program people run.
const char* bad_build_reason() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  const std::string type = SERVEBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type is not Release or RelWithDebInfo";
  return nullptr;
}

void print_environment(const Options& opt) {
  const util::BenchEnv env = util::probe_bench_env();
  const char* forced = std::getenv("FABP_FORCE_ISA");
  std::cout << "env: {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": "
            << number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"hardware_threads\": " << env.hardware_threads
            << ", \"affinity_cpus\": " << env.affinity_cpus
            << ", \"governor\": \"" << env.governor << "\", \"isa\": \""
            << core::active_scan_kernel().name << "\", \"cpu_isa\": \""
            << util::cpu_isa_summary() << "\", \"force_isa\": \""
            << (forced != nullptr ? forced : "") << "\", \"build_type\": \""
            << SERVEBENCH_BUILD_TYPE << "\"";
  for (const auto& [key, value] : opt.stamp)
    std::cout << ", \"" << key << "\": \"" << value << "\"";
  std::cout << "}\n";
}

void report_check(const Check& check) {
  std::cout << "check: attempted " << check.attempted << ", failed "
            << check.failed << " (wrong hit lists " << check.wrong
            << "), failed_frac "
            << number(check.attempted == 0
                          ? 0.0
                          : static_cast<double>(check.failed) /
                                static_cast<double>(check.attempted))
            << ", golden spot checks " << check.golden_checked << " ("
            << check.golden_wrong << " wrong)\n";
}

int run_measured(const Workload& w, const Options& opt) {
  const Clock::time_point epoch = Clock::now();
  std::vector<double> setups;
  std::unique_ptr<Service> svc;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    progress("set-up " + std::to_string(i + 1));
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc = start_service(w, epoch);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  progress("window");
  const Window win = serve(*svc, w, opt.seconds, ServeOptions{});
  progress("truth check");
  const Latency lat = window_latency(win);
  const std::vector<double> swaps = swap_latencies_ms(win);
  const Check check = check_records(w, win.records, svc->generations);
  progress("stopping the service");
  svc.reset();
  progress("done");

  std::cout << "window: " << lat.completed << " responses in "
            << number(win.end_s - win.begin_s) << " s over "
            << w.connections << " connections, "
            << number(occupancy(win)) << " requests per coalesced batch; "
            << win.swaps.size()
            << " swaps (" << swaps.size() << " observed)\n";
  report_check(check);
  const std::vector<Metric> metrics{
      {"qps", lat.qps, "req/s"},
      {"p50_ms", lat.p50_ms, "ms"},
      {"p90_ms", lat.p90_ms, "ms"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mib", win.peak_rss_mib, "MiB"},
      {"swap_ms", median(swaps), "ms"},
  };
  print_metrics(metrics);
  const bool correct = check.wrong == 0 && check.golden_wrong == 0 &&
                       !swaps.empty();
  print_result(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

void write_stream(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out{path};
  out << "# id query db threshold generation digest hits status sent_s "
         "recv_s server_s\n";
  for (const Record& r : records)
    out << r.id << ' ' << r.query << ' ' << r.db << ' ' << r.threshold << ' '
        << r.generation << ' ' << r.digest << ' ' << r.hits << ' ' << r.status
        << ' ' << number(r.sent_s) << ' ' << number(r.recv_s) << ' '
        << number(r.server_s) << '\n';
}

std::vector<Record> read_stream(const std::string& path) {
  std::ifstream in{path};
  std::vector<Record> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    Record r;
    fields >> r.id >> r.query >> r.db >> r.threshold >> r.generation >>
        r.digest >> r.hits >> r.status >> r.sent_s >> r.recv_s >> r.server_s;
    if (!fields) throw std::runtime_error("malformed stream line: " + line);
    records.push_back(r);
  }
  return records;
}

int run_traced(const Workload& w, const Options& opt) {
  const Clock::time_point epoch = Clock::now();
  SpanLog spans{epoch};
  auto svc = start_service(w, epoch);
  const double half = opt.seconds / 2.0;
  progress("untraced window");
  // The untraced window also republishes; the traced one reads the
  // execution-lock introspection instead, from the generation that served
  // it (the churn workload swaps only database "b").
  const Window plain = serve(*svc, w, half, ServeOptions{});
  progress("traced window");
  const Window traced =
      serve(*svc, w, half, ServeOptions{false, true, &spans});
  progress("truth check");
  const Latency plain_lat = window_latency(plain);
  const Latency lat = window_latency(traced);

  std::vector<Record> both = plain.records;
  both.insert(both.end(), traced.records.begin(), traced.records.end());
  const Check check = check_records(w, both, svc->generations);

  // Record once: the traced window's ok responses in send order, with their
  // digests.  The replays read the dump back, not the in-memory copy.
  std::vector<Record> ok;
  for (const Record& r : traced.records)
    if (r.status == 0) ok.push_back(r);
  const std::string tag = w.name + "-" + std::to_string(opt.seed);
  const std::string stream_path = opt.out_dir + "/stream-" + tag + ".txt";
  write_stream(stream_path, ok);
  const std::vector<Record> stream = read_stream(stream_path);

  const double batch = occupancy(traced);
  progress("layer replays");
  const ReplayResult replay =
      replay_layers(w, engine_config(w), stream, svc->generations, batch,
                    &spans);
  const std::size_t compiled =
      (traced.compiler_end.hits - traced.compiler_begin.hits) +
      (traced.compiler_end.misses - traced.compiler_begin.misses);
  const double hit_rate =
      compiled == 0 ? 0.0
                    : static_cast<double>(traced.compiler_end.hits -
                                          traced.compiler_begin.hits) /
                          static_cast<double>(compiled);

  std::vector<double> rtt_minus_server, server_ms;
  for (const Record& r : traced.records)
    if (r.status == 0 && traced.in_window(r)) {
      rtt_minus_server.push_back(1e3 * (r.recv_s - r.sent_s - r.server_s));
      server_ms.push_back(1e3 * r.server_s);
    }
  std::vector<double> publish_ms;
  std::size_t pinned_retired = 0;
  std::vector<SwapEvent> swaps = plain.swaps;
  swaps.insert(swaps.end(), traced.swaps.begin(), traced.swaps.end());
  for (const SwapEvent& swap : swaps) {
    publish_ms.push_back(swap.publish_ms);
    pinned_retired = std::max(pinned_retired, swap.pinned_retired);
  }
  const double engine_server_ms = median(server_ms);
  const double window_s = traced.end_s - traced.begin_s;

  const std::string span_path = opt.out_dir + "/spans-" + tag + ".jsonl";
  const bool spans_written = spans.write(span_path);

  // Reconciliation: what the layer replays explain of one request's
  // latency.  A request waits for its whole batch, so the batch scan and
  // run_many count whole; the rest of p50 (queueing, wakeups, socket I/O,
  // finalize_run) is printed as the residual, not hidden.
  const double compile_ms = (1.0 - hit_rate) * replay.compile_us / 1e3;
  const double explained = compile_ms + replay.scan_batch_ms +
                           replay.run_many_ms + replay.encode_us / 1e3 +
                           replay.decode_us / 1e3;
  const double residual = lat.p50_ms - explained;
  const double overhead =
      plain_lat.qps > 0.0 ? (plain_lat.qps - lat.qps) / plain_lat.qps : 0.0;
  progress("stopping the service");
  svc.reset();
  progress("done");

  report_check(check);
  char line[512];
  std::snprintf(line, sizeof line,
                "reconcile %s: compile %.4f + scan_batch %.4f (batch %.2f) + "
                "run_many %.4f + encode %.4f + decode %.4f = %.4f ms replayed; "
                "engine.server_ms %.4f; p50_ms %.4f; residual %.4f ms\n",
                w.name.c_str(), compile_ms, replay.scan_batch_ms, replay.batch,
                replay.run_many_ms, replay.encode_us / 1e3,
                replay.decode_us / 1e3, explained, engine_server_ms,
                lat.p50_ms, residual);
  std::cout << line;
  std::snprintf(line, sizeof line,
                "same stream: in-process %.2f req/s vs TCP %.2f req/s "
                "(untraced window); tracing overhead %.4f of qps; "
                "%zu/%zu replayed digests match\n",
                replay.inproc_qps, plain_lat.qps, overhead,
                replay.replayed - replay.mismatches, replay.replayed);
  std::cout << line;
  std::cout << "stream: " << stream_path << " (" << stream.size()
            << " requests)\nspans: " << span_path << " (" << spans.size()
            << (spans_written ? ")\n" : ", NOT WRITTEN)\n");

  const std::vector<Metric> metrics{
      {"net.rtt_minus_server_ms", median(rtt_minus_server), "ms"},
      {"net.response_bytes", replay.response_bytes, "bytes"},
      {"net.encode_us", replay.encode_us, "us"},
      {"net.decode_us", replay.decode_us, "us"},
      {"compiler.compile_us", replay.compile_us, "us"},
      {"compiler.hit_rate", hit_rate, "fraction"},
      {"engine.server_ms", engine_server_ms, "ms"},
      {"engine.inproc_qps", replay.inproc_qps, "req/s"},
      {"engine.tcp_over_inproc",
       replay.inproc_qps > 0.0 ? plain_lat.qps / replay.inproc_qps : 0.0,
       "ratio"},
      {"engine.batch_occupancy", batch, "req/batch"},
      {"backend.scan_batch_ms", replay.scan_batch_ms, "ms"},
      {"backend.run_many_ms", replay.run_many_ms, "ms"},
      {"backend.hits_per_request", replay.hits_per_request, "hits"},
      {"kernel.gbp_s_1t", replay.gbp_s_1t, "Gbp/s"},
      {"kernel.gbp_s_nt", replay.gbp_s_nt, "Gbp/s"},
      {"kernel.isa", static_cast<double>(core::active_scan_kernel().isa),
       "code"},
      {"hwsim.modeled_qps", traced.pipeline.modeled_qps(), "req/s"},
      {"hwsim.occupancy", traced.pipeline.occupancy(), "fraction"},
      {"shard.scatter_gather_ms",
       traced.shard_batches == 0
           ? 0.0
           : 1e3 * traced.shard_overhead_s /
                 static_cast<double>(traced.shard_batches),
       "ms"},
      {"lifecycle.publish_ms", median(publish_ms), "ms"},
      {"lifecycle.upload_idle_ms", replay.upload_ms, "ms"},
      {"lifecycle.pinned_retired", static_cast<double>(pinned_retired),
       "count"},
      {"proc.cpu_busy_frac",
       traced.cpu_s / (window_s * static_cast<double>(host_threads())),
       "fraction"},
      {"proc.threads", traced.threads, "count"},
      {"trace.overhead_frac", overhead, "fraction"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      {"reconcile.residual_ms", residual, "ms"},
  };
  print_metrics(metrics);
  const bool correct = check.wrong == 0 && check.golden_wrong == 0 &&
                       replay.mismatches == 0 && replay.replayed > 0 &&
                       spans_written;
  print_result(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  try {
    const Options opt = parse_options(argc, argv);
    if (const char* reason = bad_build_reason()) {
      std::cerr << "servebench: refusing to record: " << reason << "\n";
      return 2;
    }
    const Workload w = make_workload(opt.workload, opt.seed);
    print_environment(opt);
    return opt.trace ? run_traced(w, opt) : run_measured(w, opt);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
