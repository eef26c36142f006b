// Layer-alone replays of a recorded request stream (the record-once,
// compare-everywhere idiom: one dump of requests and hit digests, and every
// layer's output is compared against it byte for byte).  Each replay calls
// one layer's public functions directly and times each call from here;
// nothing inside the library is instrumented.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "fabp/bio/packed.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/query_compiler.hpp"
#include "fabp/core/shard.hpp"
#include "fabp/net/wire.hpp"
#include "fabp/util/thread_pool.hpp"

namespace servebench {

using namespace fabp;

namespace {

// Wall-clock budgets that keep a replay inside the run's time limit; each
// replay still covers at least one batch / request.
constexpr double kBackendBudgetS = 1.5;
constexpr double kKernelBudgetS = 0.4;
constexpr double kEngineBudgetS = 1.5;
constexpr std::size_t kKernelQueries = 4;
constexpr std::size_t kIdleUploads = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const bio::NucleotideSequence& reference(const Workload& w, int ref) {
  return w.refs[static_cast<std::size_t>(ref)];
}

/// One reference as "card DRAM" plus the backend the engine would build
/// over it (sharded when the workload shards).
struct ReplayBackend {
  core::ReferenceStore store;
  std::unique_ptr<core::ScanBackend> backend;
};

std::unique_ptr<ReplayBackend> make_replay_backend(
    const Workload& w, const core::EngineConfig& config, int ref) {
  auto out = std::make_unique<ReplayBackend>();
  out->store.upload(bio::PackedNucleotides{reference(w, ref)},
                    config.host.search_both_strands);
  if (config.shard.shard_count > 1)
    out->backend = core::make_sharded_backend(config.backend, config.host,
                                              out->store, config.shard);
  else
    out->backend = core::make_backend(config.backend, config.host, out->store);
  return out;
}

/// What the replays share: the stream, the reference each record was
/// served from, and the artifacts one replay hands the next.
struct Replay {
  const Workload& w;
  const core::EngineConfig& config;
  const std::vector<Record>& stream;
  SpanLog* spans;
  std::vector<int> refs;  ///< per record; -1 = generation never published
  std::vector<core::CompiledQueryPtr> compiled;
  std::vector<std::optional<core::BackendRun>> runs;
  std::map<int, std::unique_ptr<ReplayBackend>> backends;
  ReplayResult out;

  /// Counts one replayed hit list; `ok` is whether it matched the record.
  void tally(bool ok) {
    ++out.replayed;
    if (!ok) ++out.mismatches;
  }
  void check(std::uint32_t digest, std::size_t k) {
    tally(digest == stream[k].digest);
  }
};

// core.query_compiler: the whole stream, in order, through a fresh cache
// of the engine's capacity.
void replay_compiler(Replay& r) {
  SpanScope root{r.spans, "replay.compiler"};
  core::QueryCompiler compiler{r.config.compiler_capacity};
  double miss_s = 0.0, all_s = 0.0;
  std::size_t misses = 0;
  r.compiled.resize(r.stream.size());
  for (std::size_t k = 0; k < r.stream.size(); ++k) {
    const bio::ProteinSequence protein = r.w.query(r.stream[k].query);
    const std::size_t before = compiler.stats().misses;
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope span{r.spans, "compiler.compile", root.id(), r.stream[k].id};
      r.compiled[k] = compiler.compile(protein);
    }
    const double s = since(t0);
    all_s += s;
    if (compiler.stats().misses > before) {
      miss_s += s;
      ++misses;
    }
  }
  r.out.compile_us =
      1e6 * (misses > 0 ? miss_s / static_cast<double>(misses)
                        : all_s / static_cast<double>(r.stream.size()));
}

// core.backend: consecutive requests on one reference form a batch of the
// served mean size, scanned with scan_batch and run through run_many; a
// batch of one scans inside run_many, as in the engine.
void replay_backend(Replay& r, double batch) {
  SpanScope root{r.spans, "replay.backend"};
  const std::size_t width =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(batch)));
  r.out.batch = static_cast<double>(width);
  r.runs.resize(r.stream.size());
  const bool both = r.config.host.search_both_strands;
  double scan_s = 0.0, many_s = 0.0;
  std::size_t batches = 0, requests = 0, hits = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < r.stream.size() &&
                          (batches == 0 || since(start) < kBackendBudgetS);) {
    const int ref = r.refs[i];
    if (ref < 0) {
      r.tally(false);  // served by a generation this run never published
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < r.stream.size() && j - i < width && r.refs[j] == ref) ++j;
    auto& slot = r.backends[ref];
    if (!slot) slot = make_replay_backend(r.w, r.config, ref);
    core::ScanBackend& backend = *slot->backend;

    const std::vector<core::CompiledQueryPtr> queries(
        r.compiled.begin() + static_cast<std::ptrdiff_t>(i),
        r.compiled.begin() + static_cast<std::ptrdiff_t>(j));
    std::vector<std::uint32_t> thresholds;
    for (std::size_t k = i; k < j; ++k)
      thresholds.push_back(r.stream[k].threshold);
    std::vector<std::vector<Hit>> forward, reverse;
    Clock::time_point t0 = Clock::now();
    {
      SpanScope span{r.spans, "backend.scan_batch", root.id(), r.stream[i].id};
      forward = backend.scan_batch(queries, thresholds, false, nullptr);
      if (both) reverse = backend.scan_batch(queries, thresholds, true, nullptr);
    }
    scan_s += since(t0);

    const bool precomputed = j - i >= 2 && backend.supports_precomputed_hits();
    std::vector<core::BackendRequest> batch_requests(j - i);
    for (std::size_t k = i; k < j; ++k) {
      core::BackendRequest& request = batch_requests[k - i];
      request.query = r.compiled[k].get();
      request.threshold = r.stream[k].threshold;
      request.forward_hits = precomputed ? &forward[k - i] : nullptr;
      request.reverse_hits = precomputed && both ? &reverse[k - i] : nullptr;
    }
    std::vector<core::Expected<core::BackendRun>> results;
    t0 = Clock::now();
    {
      SpanScope span{r.spans, "backend.run_many", root.id(), r.stream[i].id};
      results = backend.run_many(batch_requests);
    }
    many_s += since(t0);
    ++batches;

    for (std::size_t k = i; k < j; ++k) {
      ++requests;
      if (k - i >= results.size() || !results[k - i]) {
        r.tally(false);
        continue;
      }
      r.runs[k] = std::move(results[k - i]).value();
      hits += r.runs[k]->hits.size() + r.runs[k]->reverse_hits.size();
      r.check(hit_digest(r.runs[k]->hits, r.runs[k]->reverse_hits), k);
    }
    i = j;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, batches));
  r.out.scan_batch_ms = 1e3 * scan_s / n;
  r.out.run_many_ms = 1e3 * many_s / n;
  r.out.hits_per_request =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::size_t>(1, requests));
}

// net.wire: encode + frame, then CRC verify + decode, of every response the
// backend replay produced.
void replay_wire(Replay& r) {
  SpanScope root{r.spans, "replay.wire"};
  double encode_s = 0.0, decode_s = 0.0, bytes = 0.0;
  std::size_t responses = 0;
  for (std::size_t k = 0; k < r.stream.size(); ++k) {
    if (!r.runs[k]) continue;
    net::AlignResponse response;
    response.id = r.stream[k].id;
    response.server_seconds = r.stream[k].server_s;
    response.generation = r.stream[k].generation;
    response.hits = r.runs[k]->hits;
    response.reverse_hits = r.runs[k]->reverse_hits;
    std::string framed;
    Clock::time_point t0 = Clock::now();
    {
      SpanScope span{r.spans, "wire.encode", root.id(), r.stream[k].id};
      framed = net::frame(net::encode(response));
    }
    encode_s += since(t0);
    bytes += static_cast<double>(framed.size());
    net::AlignResponse decoded;
    bool ok = false;
    t0 = Clock::now();
    {
      SpanScope span{r.spans, "wire.decode", root.id(), r.stream[k].id};
      const std::string_view body = std::string_view{framed}.substr(4);
      std::string_view payload;
      ok = net::verify_frame_body(body, payload) &&
           net::decode(payload, decoded);
    }
    decode_s += since(t0);
    ++responses;
    r.tally(ok && hit_digest(decoded.hits, decoded.reverse_hits) ==
                      r.stream[k].digest);
  }
  if (responses > 0) {
    const double n = static_cast<double>(responses);
    r.out.encode_us = 1e6 * encode_s / n;
    r.out.decode_us = 1e6 * decode_s / n;
    r.out.response_bytes = bytes / n;
  }
}

// core.bitscan_tiled: forward TileScanner scans of a few distinct queries
// of the first replayed reference, at 1 thread and at nproc threads.
void replay_kernel(Replay& r) {
  if (r.backends.empty()) return;
  SpanScope root{r.spans, "replay.kernel"};
  const auto& [ref, replayed] = *r.backends.begin();
  const bio::PackedNucleotides& strand = replayed->store.forward;
  const core::TileScanner scanner{strand, r.config.host.tile};
  std::vector<std::size_t> picks;  // stream indices of distinct queries
  for (std::size_t k = 0;
       k < r.stream.size() && picks.size() < kKernelQueries; ++k) {
    const bool seen =
        std::any_of(picks.begin(), picks.end(), [&](std::size_t p) {
          return r.stream[p].query == r.stream[k].query;
        });
    if (r.refs[k] == ref && !seen) picks.push_back(k);
  }
  util::ThreadPool pool{
      std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  const auto rate = [&](util::ThreadPool* with) {
    const char* name = with ? "kernel.tile_scan_nt" : "kernel.tile_scan_1t";
    double bases = 0.0;
    const Clock::time_point start = Clock::now();
    bool first_round = true;
    do {
      for (const std::size_t k : picks) {
        std::vector<Hit> hits;
        {
          SpanScope span{r.spans, name, root.id(), r.stream[k].id};
          hits = scanner.hits(r.compiled[k]->scan, r.stream[k].threshold, with);
        }
        bases += static_cast<double>(strand.size());
        // A forward-only scan is the whole hit list unless both strands
        // are served.
        if (first_round && !r.config.host.search_both_strands)
          r.check(hit_digest(hits, {}), k);
      }
      first_round = false;
    } while (since(start) < kKernelBudgetS);
    return bases / since(start) / 1e9;
  };
  if (!picks.empty()) {
    r.out.gbp_s_1t = rate(nullptr);
    r.out.gbp_s_nt = rate(&pool);
  }
}

// lifecycle: Engine::upload_database on an idle engine; then core.engine:
// the stream through submit/wait in-process, with the workload's
// concurrency, on requests served by their database's first reference
// (churned generations are not resident in this engine).
void replay_engine(Replay& r) {
  core::Engine engine{r.config};
  {
    SpanScope root{r.spans, "replay.lifecycle"};
    std::vector<double> uploads;
    for (std::size_t k = 0; k < kIdleUploads; ++k) {
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span{r.spans, "engine.upload_database", root.id()};
        engine.upload_database(r.w.databases[0],
                               reference(r.w, r.w.initial_ref[0]));
      }
      uploads.push_back(1e3 * since(t0));
    }
    std::sort(uploads.begin(), uploads.end());
    r.out.upload_ms = uploads[uploads.size() / 2];
    for (std::size_t db = 1; db < r.w.databases.size(); ++db)
      engine.upload_database(r.w.databases[db],
                             reference(r.w, r.w.initial_ref[db]));
  }
  std::vector<std::size_t> eligible;
  for (std::size_t k = 0; k < r.stream.size(); ++k)
    if (r.refs[k] == r.w.initial_ref[r.stream[k].db]) eligible.push_back(k);

  SpanScope root{r.spans, "replay.engine"};
  std::atomic<std::size_t> next{0}, done{0}, wrong{0};
  const Clock::time_point start = Clock::now();
  const auto loop = [&] {
    for (;;) {
      const std::size_t n = next.fetch_add(1);
      if (n >= eligible.size() || (n > 0 && since(start) >= kEngineBudgetS))
        return;
      const Record& rec = r.stream[eligible[n]];
      core::RequestOptions options;
      options.database = r.w.databases[rec.db];
      const bio::ProteinSequence protein = r.w.query(rec.query);
      core::Expected<core::HostRunReport> report =
          core::Error{core::ErrorCode::BadArgument, "not run"};
      {
        SpanScope span{r.spans, "engine.submit_wait", root.id(), rec.id};
        report = engine.submit(protein, rec.threshold, options).wait();
      }
      if (!report ||
          hit_digest(report->hits, report->reverse_hits) != rec.digest)
        wrong.fetch_add(1);
      done.fetch_add(1);
    }
  };
  ThreadGroup clients;
  for (std::size_t c = 0; c < r.w.connections; ++c) clients.spawn(loop);
  clients.join();
  r.out.inproc_qps = static_cast<double>(done.load()) / since(start);
  r.out.replayed += done.load();
  r.out.mismatches += wrong.load();
  progress("replay: stopping the engine");
}

}  // namespace

ReplayResult replay_layers(const Workload& w,
                           const core::EngineConfig& config,
                           const std::vector<Record>& stream,
                           const GenerationMap& generations, double batch,
                           SpanLog* spans) {
  Replay r{w, config, stream, spans, {}, {}, {}, {}, {}};
  if (stream.empty()) return r.out;
  for (const Record& rec : stream)
    r.refs.push_back(generations.ref_of(rec.db, rec.generation));
  progress("replay: compiler");
  replay_compiler(r);
  progress("replay: backend");
  replay_backend(r, batch);
  progress("replay: wire");
  replay_wire(r);
  progress("replay: kernel");
  replay_kernel(r);
  r.backends.clear();
  progress("replay: lifecycle and engine");
  replay_engine(r);
  return r.out;
}

}  // namespace servebench
