// E15 — serving engine: what queue-depth coalescing buys.  A closed-loop
// client pool offers load to the Engine at increasing concurrency; the
// harness records sustained queries/second, p50/p99 request latency and
// the coalesced-batch occupancy the scheduler achieved, for the tiled
// software backend and the full hw-sim card model.  The 1-client
// sequential row (align_sync, no queue) is the baseline every
// sweep point is compared against, and every completed request's hit
// list is checked against that baseline — a throughput number from a
// wrong answer is worthless.  Alongside the console tables the harness
// writes BENCH_engine.json.
//
//   bench_engine [bases] [query_residues] [requests] [json_path]
//
// Defaults: 8,000,000 bases, 20 residues, 160 requests per sweep point,
// BENCH_engine.json.  The reference defaults cache-cold-ish (2 MB packed)
// so the tile-compile amortisation that coalescing buys is visible; tiny
// references that live in L2 flatten the effect.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/net/loadgen.hpp"
#include "fabp/net/server.hpp"
#include "fabp/util/benchenv.hpp"
#include "fabp/util/cpuid.hpp"
#include "fabp/util/rng.hpp"
#include "fabp/util/table.hpp"
#include "fabp/util/timer.hpp"

namespace {

using namespace fabp;
using core::BackendKind;
using core::Engine;
using core::EngineConfig;
using core::EngineStats;
using core::Hit;
using Clock = std::chrono::steady_clock;

struct LoadPoint {
  std::size_t clients = 0;  // 0 = sequential align_sync baseline
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double speedup = 1.0;  // qps / sequential qps
  double occupancy = 0.0;
  std::size_t batches = 0;
  std::size_t largest_batch = 0;
};

struct BackendSection {
  BackendKind kind = BackendKind::Tiled;
  std::vector<LoadPoint> points;  // points[0] is the sequential baseline
  bool hits_match = true;
};

// One device batch scheduler configuration of the hw-sim card model
// (DESIGN.md §4d): modeled sustained throughput of packed invocations at
// a given PE count and DMA buffer depth, checked hit-for-hit against the
// serial hw-sim path.
struct PipelinePoint {
  std::size_t pe_count = 1;
  std::size_t buffer_depth = 1;
  core::DevicePipelineStats stats;
  double speedup = 1.0;  // modeled qps vs the (pe=1, depth=1) baseline
  bool hits_match = true;
};

double percentile_ms(std::vector<double>& latencies_s, double fraction) {
  if (latencies_s.empty()) return 0.0;
  std::sort(latencies_s.begin(), latencies_s.end());
  const std::size_t last = latencies_s.size() - 1;
  const std::size_t index = static_cast<std::size_t>(
      static_cast<double>(last) * fraction + 0.5);
  return latencies_s[std::min(index, last)] * 1e3;
}

EngineConfig engine_config(BackendKind kind, std::size_t requests) {
  EngineConfig config;
  config.backend = kind;
  config.workers = 2;
  config.queue_capacity = std::max<std::size_t>(requests, 256);
  return config;
}

// Sequential baseline: the synchronous path, one align_sync at a time
// on a single thread.  No queue, no coalescing — per-request latency is
// exactly one full scan.
LoadPoint run_sequential(Engine& engine,
                         const std::vector<bio::ProteinSequence>& queries,
                         const std::vector<std::uint32_t>& thresholds,
                         std::size_t requests,
                         std::vector<std::vector<Hit>>& expected_out) {
  expected_out.clear();
  for (std::size_t q = 0; q < queries.size(); ++q)
    expected_out.push_back(
        engine.align_sync(queries[q], thresholds[q])->hits);

  std::vector<double> latencies;
  latencies.reserve(requests);
  util::Timer timer;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t q = i % queries.size();
    const Clock::time_point start = Clock::now();
    const auto report = engine.align_sync(queries[q], thresholds[q]);
    if (!report.has_value() || report->hits != expected_out[q])
      std::abort();  // the baseline itself must be self-consistent
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  LoadPoint point;
  point.clients = 0;
  point.seconds = timer.seconds();
  point.qps = static_cast<double>(requests) / point.seconds;
  point.p50_ms = percentile_ms(latencies, 0.50);
  point.p99_ms = percentile_ms(latencies, 0.99);
  return point;
}

// Closed loop against an existing engine: `clients` threads, each
// submitting and waiting one request at a time, so the offered
// concurrency equals the client count and the queue depth the scheduler
// sees is organic.
LoadPoint closed_loop(Engine& engine,
                      const std::vector<bio::ProteinSequence>& queries,
                      const std::vector<std::uint32_t>& thresholds,
                      const std::vector<std::vector<Hit>>& expected,
                      std::size_t clients, std::size_t requests,
                      bool& hits_match) {
  const std::size_t per_client = requests / clients;
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::size_t> mismatches{0};

  std::vector<std::thread> pool;
  pool.reserve(clients);
  util::Timer timer;
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t q = (c * per_client + i) % queries.size();
        const Clock::time_point start = Clock::now();
        core::Ticket ticket = engine.submit(queries[q], thresholds[q]);
        const auto report = ticket.wait();
        latencies[c].push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
        if (!report.has_value() || report->hits != expected[q]) ++mismatches;
      }
    });
  }
  for (std::thread& client : pool) client.join();
  const double elapsed = timer.seconds();
  if (mismatches.load() != 0) hits_match = false;

  std::vector<double> all;
  for (const std::vector<double>& client : latencies)
    all.insert(all.end(), client.begin(), client.end());

  const EngineStats stats = engine.stats();
  LoadPoint point;
  point.clients = clients;
  point.seconds = elapsed;
  point.qps = static_cast<double>(per_client * clients) / elapsed;
  point.p50_ms = percentile_ms(all, 0.50);
  point.p99_ms = percentile_ms(all, 0.99);
  point.occupancy = stats.batch_occupancy();
  point.batches = stats.coalesced_batches;
  point.largest_batch = stats.largest_batch;
  return point;
}

// One sweep point over a fresh engine of the given backend kind.
LoadPoint run_load_point(BackendKind kind, const bio::NucleotideSequence& ref,
                         const std::vector<bio::ProteinSequence>& queries,
                         const std::vector<std::uint32_t>& thresholds,
                         const std::vector<std::vector<Hit>>& expected,
                         std::size_t clients, std::size_t requests,
                         bool& hits_match) {
  Engine engine{engine_config(kind, requests)};
  engine.upload_reference(bio::NucleotideSequence{ref});
  return closed_loop(engine, queries, thresholds, expected, clients, requests,
                     hits_match);
}

BackendSection run_backend(BackendKind kind, const bio::NucleotideSequence& ref,
                           const std::vector<bio::ProteinSequence>& queries,
                           const std::vector<std::uint32_t>& thresholds,
                           std::size_t requests) {
  BackendSection section;
  section.kind = kind;

  Engine baseline{engine_config(kind, requests)};
  baseline.upload_reference(bio::NucleotideSequence{ref});
  std::vector<std::vector<Hit>> expected;
  section.points.push_back(
      run_sequential(baseline, queries, thresholds, requests, expected));
  const double sequential_qps = section.points.front().qps;

  for (const std::size_t clients : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}, std::size_t{16}}) {
    LoadPoint point =
        run_load_point(kind, ref, queries, thresholds, expected, clients,
                       requests, section.hits_match);
    point.speedup = point.qps / sequential_qps;
    section.points.push_back(point);
  }
  return section;
}

// Modeled device pipeline sweep: 64 requests packed 8-to-an-invocation
// (8 invocations — deep enough for the ping/pong pipe to reach steady
// state) through the hw-sim backend's run_many at each (PE count, buffer
// depth) shape.  Throughput is the *model's* sustained rate
// (tasks / pipelined makespan), so the sweep isolates what double
// buffering and reference slicing buy in modeled time, independent of
// host wall-clock noise.
std::vector<PipelinePoint> run_hwsim_pipeline(
    const bio::NucleotideSequence& ref,
    const std::vector<bio::ProteinSequence>& queries,
    const std::vector<std::uint32_t>& thresholds) {
  constexpr std::size_t kRequests = 64;
  core::ReferenceStore store;
  store.upload(bio::PackedNucleotides{ref}, false);

  std::vector<core::CompiledQueryPtr> compiled;
  for (const bio::ProteinSequence& query : queries)
    compiled.push_back(core::compile_query(query));
  std::vector<core::BackendRequest> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    core::BackendRequest request;
    request.query = compiled[i % compiled.size()].get();
    request.threshold = thresholds[i % thresholds.size()];
    requests.push_back(request);
  }

  // Serial hw-sim truth: one single-request run_many per request.
  const core::HostConfig serial_config;
  const auto serial =
      core::make_backend(BackendKind::HwSim, serial_config, store);
  std::vector<std::vector<Hit>> expected;
  for (const core::BackendRequest& request : requests) {
    auto run = std::move(serial->run_many({&request, 1}).front());
    if (!run.has_value()) std::abort();
    expected.push_back(std::move(run->hits));
  }

  std::vector<PipelinePoint> points;
  const std::size_t shapes[][2] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 2}};
  for (const auto& shape : shapes) {
    core::HostConfig config;
    config.device_batch.invocation_tasks = 8;
    config.device_batch.pe_count = shape[0];
    config.device_batch.buffer_depth = shape[1];
    const auto backend = core::make_backend(BackendKind::HwSim, config, store);
    const auto results = backend->run_many(requests);

    PipelinePoint point;
    point.pe_count = shape[0];
    point.buffer_depth = shape[1];
    for (std::size_t q = 0; q < results.size(); ++q)
      if (!results[q].has_value() || results[q]->hits != expected[q])
        point.hits_match = false;
    point.stats = backend->pipeline_stats();
    if (!points.empty() && points.front().stats.modeled_qps() > 0.0)
      point.speedup =
          point.stats.modeled_qps() / points.front().stats.modeled_qps();
    points.push_back(point);
  }
  return points;
}

// One (shard count, client count) point of the scatter/gather router
// sweep (DESIGN.md §4e): the engine routes every batch through N modeled
// cards, each holding 1/N of the reference (+ halo).  Wall QPS on this
// host is bounded by the software simulation of all N cards sharing the
// CPU, so the headline scaling number is the *merged modeled* throughput
// (tasks / slowest-card pipelined makespan) — the same modeled-time
// methodology as the device batch pipeline sweep above.
struct ShardPoint {
  std::size_t shards = 1;
  std::size_t clients = 1;
  double seconds = 0.0;
  double qps = 0.0;             // host wall clock
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double modeled_qps = 0.0;     // merged cross-card pipeline view
  double modeled_speedup = 1.0; // vs the 1-shard point at same clients
  double scatter_gather_s = 0.0;
  bool hits_match = true;
};

std::vector<ShardPoint> run_shard_sweep(
    const bio::NucleotideSequence& ref,
    const std::vector<bio::ProteinSequence>& queries,
    const std::vector<std::uint32_t>& thresholds, std::size_t requests) {
  // Unsharded truth: every sweep point's hits must match these.
  Engine baseline{engine_config(BackendKind::HwSim, requests)};
  baseline.upload_reference(bio::NucleotideSequence{ref});
  std::vector<std::vector<Hit>> expected;
  for (std::size_t q = 0; q < queries.size(); ++q)
    expected.push_back(baseline.align_sync(queries[q], thresholds[q])->hits);

  std::vector<ShardPoint> points;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t clients :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      EngineConfig config = engine_config(BackendKind::HwSim, requests);
      config.shard.shard_count = shards;
      Engine engine{config};
      engine.upload_reference(bio::NucleotideSequence{ref});

      ShardPoint point;
      point.shards = shards;
      point.clients = clients;
      const LoadPoint load = closed_loop(engine, queries, thresholds,
                                         expected, clients, requests,
                                         point.hits_match);
      point.seconds = load.seconds;
      point.qps = load.qps;
      point.p50_ms = load.p50_ms;
      point.p99_ms = load.p99_ms;
      point.modeled_qps = engine.pipeline_stats().modeled_qps();
      point.scatter_gather_s = engine.shard_overhead_seconds();
      points.push_back(point);
    }
  }
  for (ShardPoint& point : points)
    for (const ShardPoint& base : points)
      if (base.shards == 1 && base.clients == point.clients &&
          base.modeled_qps > 0.0)
        point.modeled_speedup = point.modeled_qps / base.modeled_qps;
  return points;
}

void print_shard_sweep(const std::vector<ShardPoint>& points) {
  util::banner(std::cout,
               "engine: shard router sweep (hw-sim, N modeled cards)");
  util::Table table{{"shards", "clients", "wall q/s", "p50", "p99",
                     "modeled q/s", "vs 1 shard", "scatter+gather"}};
  for (const ShardPoint& p : points) {
    table.row();
    table.cell(p.shards)
        .cell(p.clients)
        .cell(p.qps, 1)
        .cell(util::time_text(p.p50_ms * 1e-3))
        .cell(util::time_text(p.p99_ms * 1e-3))
        .cell(p.modeled_qps, 1)
        .cell(util::ratio_text(p.modeled_speedup, 2))
        .cell(util::time_text(p.scatter_gather_s));
  }
  table.print(std::cout);
  bool all_match = true;
  for (const ShardPoint& p : points) all_match &= p.hits_match;
  std::cout << "  hits identical to unsharded baseline: "
            << (all_match ? "yes" : "NO — BUG") << "\n";
}

// End-to-end TCP measurement: a real WireServer over a sharded engine,
// hit by the closed-loop loadgen client over localhost.  This prices the
// whole serving stack — framing, sockets, engine queue, scatter/gather —
// not just the engine core.
struct TcpPoint {
  std::size_t shards = 1;
  std::size_t clients = 1;
  net::LoadgenReport report;
};

std::vector<TcpPoint> run_tcp_sweep(const bio::NucleotideSequence& ref,
                                    std::size_t residues,
                                    std::size_t requests) {
  std::vector<TcpPoint> points;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    EngineConfig config = engine_config(BackendKind::HwSim, requests);
    config.shard.shard_count = shards;
    Engine engine{config};
    engine.upload_reference(bio::NucleotideSequence{ref});
    net::WireServer server{engine, {}};
    std::thread accept_thread{[&server] { server.serve(); }};
    for (const std::size_t clients :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      net::LoadgenConfig load;
      load.port = server.port();
      load.clients = clients;
      load.requests = requests;
      load.query_residues = residues;
      TcpPoint point;
      point.shards = shards;
      point.clients = clients;
      point.report = net::run_loadgen(load);
      points.push_back(point);
    }
    server.shutdown();
    accept_thread.join();
  }
  return points;
}

// Resilience sweep (DESIGN.md §4f): offered load pushed past capacity —
// one engine worker, client counts far above it — with edge shedding off
// vs on.  Every request carries a deadline and rides the retrying
// net::Client, so the sweep prices exactly what a saturated deployment
// sees: completed-QPS and p50/p99 of the *successful* calls, the typed
// refusal/expiry counts, and the retry-amplification factor (mean wire
// attempts per request) the client pool pays to get its work through.
struct ResiliencePoint {
  bool shedding = false;
  std::size_t clients = 1;
  net::LoadgenReport report;
};

std::vector<ResiliencePoint> run_resilience_sweep(
    const bio::NucleotideSequence& ref, std::size_t residues,
    std::size_t requests) {
  std::vector<ResiliencePoint> points;
  for (const bool shedding : {false, true}) {
    EngineConfig config = engine_config(BackendKind::HwSim, requests);
    config.workers = 1;  // capacity ~1 coalesced batch at a time
    Engine engine{config};
    engine.upload_reference(bio::NucleotideSequence{ref});
    net::ServerConfig server_config;
    if (shedding) server_config.shed_queue_depth = 4;
    net::WireServer server{engine, server_config};
    std::thread accept_thread{[&server] { server.serve(); }};
    for (const std::size_t clients :
         {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
      net::LoadgenConfig load;
      load.port = server.port();
      load.clients = clients;
      load.requests = requests;
      load.query_residues = residues;
      load.deadline_s = 2.0;
      load.retry.max_attempts = 4;
      ResiliencePoint point;
      point.shedding = shedding;
      point.clients = clients;
      point.report = net::run_loadgen(load);
      points.push_back(point);
    }
    server.shutdown();
    accept_thread.join();
  }
  return points;
}

// Two-tenant fairness sweep (DESIGN.md §4g): tenants "heavy" (weight 4)
// and "light" (weight 1) each keep a closed-loop client pool saturating
// their queue; the stride scheduler must hand heavy 4x light's
// throughput — within 10% — while both stay backlogged.  Run once with
// quotas off and once with a tight queue quota on light, which converts
// light's excess offered load into typed TenantQuotaExceeded refusals
// without disturbing the 4:1 split of executed work.
struct FairnessPoint {
  bool quota_on = false;
  double window_s = 0.0;
  std::size_t heavy_completed = 0;  // inside the measurement window
  std::size_t light_completed = 0;
  double heavy_qps = 0.0;
  double light_qps = 0.0;
  double ratio = 0.0;  // heavy_qps / light_qps; ideal = 4.0
  double heavy_p50_ms = 0.0;
  double light_p50_ms = 0.0;
  std::size_t quota_rejections = 0;
  bool hits_match = true;
};

std::vector<FairnessPoint> run_fairness_sweep(
    const bio::NucleotideSequence& ref,
    const std::vector<bio::ProteinSequence>& queries,
    const std::vector<std::uint32_t>& thresholds) {
  // Truth hits once, against the same backend kind.
  std::vector<std::vector<Hit>> expected;
  {
    Engine truth{engine_config(BackendKind::HwSim, 16)};
    truth.upload_reference(bio::NucleotideSequence{ref});
    for (std::size_t q = 0; q < queries.size(); ++q)
      expected.push_back(truth.align_sync(queries[q], thresholds[q])->hits);
  }

  std::vector<FairnessPoint> points;
  for (const bool quota_on : {false, true}) {
    EngineConfig config = engine_config(BackendKind::HwSim, 16);
    config.workers = 1;       // one modeled card: tenants truly compete
    config.max_coalesce = 1;  // one dequeue per pick: exact stride shares
    config.tenants = {{"heavy", 4.0, 0},
                      {"light", 1.0, quota_on ? std::size_t{2} : 0}};
    Engine engine{config};
    engine.upload_reference(bio::NucleotideSequence{ref});

    constexpr std::size_t kClientsPerTenant = 6;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> quota_rejections{0};
    std::vector<std::thread> pool;
    for (const char* tenant : {"heavy", "light"}) {
      for (std::size_t c = 0; c < kClientsPerTenant; ++c) {
        pool.emplace_back([&, tenant, c] {
          core::RequestOptions options;
          options.tenant = tenant;
          std::size_t i = c;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t q = i++ % queries.size();
            core::Ticket ticket =
                engine.submit(queries[q], thresholds[q], options);
            const auto report = ticket.wait();
            if (report.has_value()) {
              if (report->hits != expected[q]) ++mismatches;
            } else if (report.error().code ==
                       core::ErrorCode::TenantQuotaExceeded) {
              ++quota_rejections;
              std::this_thread::sleep_for(std::chrono::microseconds{200});
            }
          }
        });
      }
    }

    const auto snapshot = [&engine](const std::string& name) {
      for (const core::TenantStatus& tenant : engine.tenant_status())
        if (tenant.name == name) return tenant;
      return core::TenantStatus{};
    };
    // Warm up until both pools are saturated, then measure a fixed window
    // of the backlogged steady state.
    std::this_thread::sleep_for(std::chrono::milliseconds{250});
    const core::TenantStatus heavy0 = snapshot("heavy");
    const core::TenantStatus light0 = snapshot("light");
    const Clock::time_point t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds{1000});
    const core::TenantStatus heavy1 = snapshot("heavy");
    const core::TenantStatus light1 = snapshot("light");
    const double window =
        std::chrono::duration<double>(Clock::now() - t0).count();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& client : pool) client.join();

    FairnessPoint point;
    point.quota_on = quota_on;
    point.window_s = window;
    point.heavy_completed = heavy1.completed - heavy0.completed;
    point.light_completed = light1.completed - light0.completed;
    point.heavy_qps = static_cast<double>(point.heavy_completed) / window;
    point.light_qps = static_cast<double>(point.light_completed) / window;
    if (point.light_qps > 0.0) point.ratio = point.heavy_qps / point.light_qps;
    point.heavy_p50_ms = heavy1.p50_ms;
    point.light_p50_ms = light1.p50_ms;
    point.quota_rejections = quota_rejections.load();
    point.hits_match = mismatches.load() == 0;
    points.push_back(point);
  }
  return points;
}

void print_fairness_sweep(const std::vector<FairnessPoint>& points) {
  util::banner(std::cout,
               "engine: two-tenant fairness, weights 4:1 (1 worker)");
  util::Table table{{"quota", "heavy q/s", "light q/s", "ratio",
                     "heavy p50", "light p50", "quota-rejections"}};
  for (const FairnessPoint& p : points) {
    table.row();
    table.cell(p.quota_on ? "light<=2" : "off")
        .cell(p.heavy_qps, 1)
        .cell(p.light_qps, 1)
        .cell(util::ratio_text(p.ratio, 2))
        .cell(util::time_text(p.heavy_p50_ms * 1e-3))
        .cell(util::time_text(p.light_p50_ms * 1e-3))
        .cell(p.quota_rejections);
  }
  table.print(std::cout);
  bool within = true;
  for (const FairnessPoint& p : points)
    within &= p.ratio >= 3.6 && p.ratio <= 4.4;
  std::cout << "  throughput split within 10% of 4:1: "
            << (within ? "yes" : "NO — BUG") << "\n";
}

void print_resilience_sweep(const std::vector<ResiliencePoint>& points) {
  util::banner(std::cout,
               "engine: overload resilience (1 worker, 2 s deadlines)");
  util::Table table{{"shedding", "clients", "ok q/s", "p50", "p99",
                     "refused", "expired", "timeouts", "amplification"}};
  for (const ResiliencePoint& p : points) {
    table.row();
    table.cell(p.shedding ? "on" : "off")
        .cell(p.clients)
        .cell(p.report.qps, 1)
        .cell(util::time_text(p.report.p50_ms * 1e-3))
        .cell(util::time_text(p.report.p99_ms * 1e-3))
        .cell(p.report.refused)
        .cell(p.report.expired)
        .cell(p.report.timeouts)
        .cell(util::ratio_text(p.report.retry_amplification(), 2));
  }
  table.print(std::cout);
  bool all_terminal = true;
  for (const ResiliencePoint& p : points)
    all_terminal &= p.report.all_terminal();
  std::cout << "  every request reached a typed terminal outcome: "
            << (all_terminal ? "yes" : "NO — BUG") << "\n";
}

void print_tcp_sweep(const std::vector<TcpPoint>& points) {
  util::banner(std::cout, "engine: TCP serve/loadgen over localhost");
  util::Table table{{"shards", "clients", "q/s", "p50", "p99",
                     "errors"}};
  for (const TcpPoint& p : points) {
    table.row();
    table.cell(p.shards)
        .cell(p.clients)
        .cell(p.report.qps, 1)
        .cell(util::time_text(p.report.p50_ms * 1e-3))
        .cell(util::time_text(p.report.p99_ms * 1e-3))
        .cell(p.report.errors + p.report.transport_failures);
  }
  table.print(std::cout);
}

void print_pipeline(const std::vector<PipelinePoint>& points) {
  util::banner(std::cout, "engine: hw-sim device batch pipeline (modeled)");
  util::Table table{{"PEs", "depth", "invocations", "modeled q/s",
                     "occupancy", "overlap", "PE util", "vs single-buffer"}};
  for (const PipelinePoint& p : points) {
    table.row();
    table.cell(p.pe_count)
        .cell(p.buffer_depth)
        .cell(p.stats.invocations)
        .cell(p.stats.modeled_qps(), 1)
        .cell(p.stats.occupancy(), 2)
        .cell(p.stats.overlap_efficiency(), 2)
        .cell(p.stats.pe_utilization(), 2)
        .cell(util::ratio_text(p.speedup, 2));
  }
  table.print(std::cout);
  bool all_match = true;
  for (const PipelinePoint& p : points) all_match &= p.hits_match;
  std::cout << "  hits identical to serial hw-sim: "
            << (all_match ? "yes" : "NO — BUG") << "\n";
}

void print_section(const BackendSection& section) {
  util::banner(std::cout, std::string{"engine: "} + to_string(section.kind) +
                              " backend");
  util::Table table{{"clients", "time", "queries/s", "p50", "p99",
                     "vs sequential", "occupancy", "batches"}};
  for (const LoadPoint& p : section.points) {
    table.row();
    if (p.clients == 0)
      table.cell("sequential");
    else
      table.cell(p.clients);
    table.cell(util::time_text(p.seconds))
        .cell(p.qps, 1)
        .cell(util::time_text(p.p50_ms * 1e-3))
        .cell(util::time_text(p.p99_ms * 1e-3))
        .cell(util::ratio_text(p.speedup, 2))
        .cell(p.occupancy, 2)
        .cell(p.batches);
  }
  table.print(std::cout);
  std::cout << "  hits identical to sequential baseline: "
            << (section.hits_match ? "yes" : "NO — BUG") << "\n";
}

void write_json(const std::string& path, std::size_t bases,
                std::size_t residues, std::size_t requests,
                const util::BenchEnv& env,
                const std::vector<BackendSection>& sections,
                const std::vector<PipelinePoint>& pipeline,
                const std::vector<ShardPoint>& sharded,
                const std::vector<TcpPoint>& tcp,
                const std::vector<ResiliencePoint>& resilience,
                const std::vector<FairnessPoint>& fairness) {
  std::ofstream os{path};
  os << "{\n"
     << "  \"bench\": \"engine\",\n"
     << "  \"config\": {\n"
     << "    \"reference_bases\": " << bases << ",\n"
     << "    \"query_residues\": " << residues << ",\n"
     << "    \"requests_per_point\": " << requests << ",\n"
     << "    \"workers\": 2,\n"
     << "    \"max_coalesce\": " << EngineConfig{}.max_coalesce << ",\n"
     << "    \"cpu_isa\": \"" << util::cpu_isa_summary() << "\",\n"
     << "    \"environment\": {\n"
     << "      \"hardware_threads\": " << env.hardware_threads << ",\n"
     << "      \"affinity_cpus\": " << env.affinity_cpus << ",\n"
     << "      \"effective_cores\": "
     << std::min(env.hardware_threads, env.affinity_cpus) << ",\n"
     << "      \"governor\": \"" << env.governor << "\"\n"
     << "    }\n"
     << "  },\n"
     << "  \"backends\": [\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const BackendSection& section = sections[s];
    os << "    {\"backend\": \"" << to_string(section.kind) << "\", "
       << "\"hits_match_sequential\": "
       << (section.hits_match ? "true" : "false") << ", \"points\": [\n";
    for (std::size_t i = 0; i < section.points.size(); ++i) {
      const LoadPoint& p = section.points[i];
      os << "      {\"mode\": \""
         << (p.clients == 0 ? "sequential" : "engine")
         << "\", \"clients\": " << p.clients << ", \"seconds\": " << p.seconds
         << ", \"queries_per_second\": " << p.qps
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << ", \"speedup_vs_sequential\": " << p.speedup
         << ", \"batch_occupancy\": " << p.occupancy
         << ", \"coalesced_batches\": " << p.batches
         << ", \"largest_batch\": " << p.largest_batch << "}"
         << (i + 1 < section.points.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (s + 1 < sections.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"hwsim_pipeline\": [\n";
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const PipelinePoint& p = pipeline[i];
    os << "    {\"pe_count\": " << p.pe_count
       << ", \"buffer_depth\": " << p.buffer_depth
       << ", \"invocations\": " << p.stats.invocations
       << ", \"tasks\": " << p.stats.tasks
       << ", \"transfer_s\": " << p.stats.transfer_s
       << ", \"compute_s\": " << p.stats.compute_s
       << ", \"serial_s\": " << p.stats.serial_s
       << ", \"pipelined_s\": " << p.stats.pipelined_s
       << ", \"modeled_qps\": " << p.stats.modeled_qps()
       << ", \"occupancy\": " << p.stats.occupancy()
       << ", \"overlap_efficiency\": " << p.stats.overlap_efficiency()
       << ", \"pe_utilization\": " << p.stats.pe_utilization()
       << ", \"speedup_vs_single_buffer\": " << p.speedup
       << ", \"hits_match_serial\": " << (p.hits_match ? "true" : "false")
       << "}" << (i + 1 < pipeline.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"sharded\": [\n";
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardPoint& p = sharded[i];
    os << "    {\"shards\": " << p.shards << ", \"clients\": " << p.clients
       << ", \"seconds\": " << p.seconds
       << ", \"wall_queries_per_second\": " << p.qps
       << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
       << ", \"modeled_qps\": " << p.modeled_qps
       << ", \"modeled_speedup_vs_1_shard\": " << p.modeled_speedup
       << ", \"scatter_gather_s\": " << p.scatter_gather_s
       << ", \"hits_match_unsharded\": " << (p.hits_match ? "true" : "false")
       << "}" << (i + 1 < sharded.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"tcp\": [\n";
  for (std::size_t i = 0; i < tcp.size(); ++i) {
    const TcpPoint& p = tcp[i];
    os << "    {\"shards\": " << p.shards << ", \"clients\": " << p.clients
       << ", \"requests\": " << p.report.sent
       << ", \"completed\": " << p.report.completed
       << ", \"errors\": " << p.report.errors
       << ", \"transport_failures\": " << p.report.transport_failures
       << ", \"wall_s\": " << p.report.wall_s
       << ", \"queries_per_second\": " << p.report.qps
       << ", \"p50_ms\": " << p.report.p50_ms
       << ", \"p99_ms\": " << p.report.p99_ms << "}"
       << (i + 1 < tcp.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"resilience\": [\n";
  for (std::size_t i = 0; i < resilience.size(); ++i) {
    const ResiliencePoint& p = resilience[i];
    os << "    {\"shedding\": " << (p.shedding ? "true" : "false")
       << ", \"clients\": " << p.clients
       << ", \"deadline_s\": 2.0"
       << ", \"sent\": " << p.report.sent
       << ", \"completed\": " << p.report.completed
       << ", \"refused\": " << p.report.refused
       << ", \"expired\": " << p.report.expired
       << ", \"resets\": " << p.report.resets
       << ", \"timeouts\": " << p.report.timeouts
       << ", \"attempts\": " << p.report.attempts
       << ", \"retries\": " << p.report.retries
       << ", \"retry_amplification\": " << p.report.retry_amplification()
       << ", \"wall_s\": " << p.report.wall_s
       << ", \"completed_queries_per_second\": " << p.report.qps
       << ", \"p50_ms\": " << p.report.p50_ms
       << ", \"p99_ms\": " << p.report.p99_ms
       << ", \"all_terminal\": "
       << (p.report.all_terminal() ? "true" : "false") << "}"
       << (i + 1 < resilience.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"fairness\": [\n";
  for (std::size_t i = 0; i < fairness.size(); ++i) {
    const FairnessPoint& p = fairness[i];
    os << "    {\"weights\": \"4:1\", \"light_quota\": "
       << (p.quota_on ? 2 : 0)
       << ", \"window_s\": " << p.window_s
       << ", \"heavy_completed\": " << p.heavy_completed
       << ", \"light_completed\": " << p.light_completed
       << ", \"heavy_queries_per_second\": " << p.heavy_qps
       << ", \"light_queries_per_second\": " << p.light_qps
       << ", \"throughput_ratio\": " << p.ratio
       << ", \"heavy_p50_ms\": " << p.heavy_p50_ms
       << ", \"light_p50_ms\": " << p.light_p50_ms
       << ", \"quota_rejections\": " << p.quota_rejections
       << ", \"hits_match\": " << (p.hits_match ? "true" : "false") << "}"
       << (i + 1 < fairness.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t bases =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8'000'000;
  const std::size_t residues =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
  std::size_t requests =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 160;
  const std::string json_path = argc > 4 ? argv[4] : "BENCH_engine.json";
  requests = std::max<std::size_t>(requests - requests % 16, 16);

  util::Xoshiro256 rng{0xE10};
  const bio::NucleotideSequence ref = bio::random_dna(bases, rng);
  std::vector<bio::ProteinSequence> queries;
  std::vector<std::uint32_t> thresholds;
  for (std::size_t q = 0; q < 8; ++q) {
    queries.push_back(bio::random_protein(residues, rng));
    // 65% of elements: selective on random DNA (median random score is
    // ~45%), so latency measures scan cost, not hit-list copying.
    thresholds.push_back(
        static_cast<std::uint32_t>(queries.back().size() * 3 * 65 / 100));
  }

  std::cout << "bench_engine: " << bases << " bases, " << residues
            << " aa queries, " << requests << " requests per point ("
            << util::cpu_isa_summary() << ")\n";

  std::vector<BackendSection> sections;
  for (const BackendKind kind : {BackendKind::Tiled, BackendKind::HwSim}) {
    sections.push_back(run_backend(kind, ref, queries, thresholds, requests));
    print_section(sections.back());
  }

  const std::vector<PipelinePoint> pipeline =
      run_hwsim_pipeline(ref, queries, thresholds);
  print_pipeline(pipeline);

  const std::vector<ShardPoint> sharded =
      run_shard_sweep(ref, queries, thresholds, requests);
  print_shard_sweep(sharded);

  const std::vector<TcpPoint> tcp = run_tcp_sweep(ref, residues, requests);
  print_tcp_sweep(tcp);

  const std::vector<ResiliencePoint> resilience =
      run_resilience_sweep(ref, residues, requests);
  print_resilience_sweep(resilience);

  const std::vector<FairnessPoint> fairness =
      run_fairness_sweep(ref, queries, thresholds);
  print_fairness_sweep(fairness);

  write_json(json_path, bases, residues, requests, util::probe_bench_env(),
             sections, pipeline, sharded, tcp, resilience, fairness);
  std::cout << "  wrote " << json_path << "\n";

  for (const BackendSection& section : sections)
    if (!section.hits_match) return 1;
  for (const PipelinePoint& point : pipeline)
    if (!point.hits_match) return 1;
  for (const ShardPoint& point : sharded)
    if (!point.hits_match) return 1;
  for (const TcpPoint& point : tcp)
    if (!point.report.clean()) return 1;
  for (const ResiliencePoint& point : resilience)
    if (!point.report.all_terminal()) return 1;
  for (const FairnessPoint& point : fairness)
    if (!point.hits_match) return 1;
  return 0;
}
