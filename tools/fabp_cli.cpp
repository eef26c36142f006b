// fabp — command-line front end for the library.
//
//   fabp encode <protein>                      back-translate + encode
//   fabp search <ref.fa> <queries.fa> [thr]    database search with reports
//   fabp scan <ref.fa> <queries.fa> [thr] [t]  software tiled scan, t threads
//   fabp tblastn <ref.fa> <queries.fa>         CPU-baseline search
//   fabp map <residues> [kintex7|vu9p]         resource mapping (Table I)
//   fabp rtl <out_dir> [elements]              export structural Verilog
//   fabp chaos [bases] [query-aa] [seeds] [rates...]
//                                              fault-injection sweep vs golden
//   fabp serve [bases] [query-aa] [requests] [workers]
//              [--backend hwsim|tiled] [--shards N] [--tcp [port]]
//                                              engine serving demo: burst of
//                                              concurrent requests, coalesced,
//                                              checked against sequential;
//                                              hwsim prints the device batch
//                                              pipeline stats.  --shards routes
//                                              through the shard router (N
//                                              modeled cards); --tcp turns the
//                                              demo into a real TCP server
//                                              (length-prefixed wire protocol,
//                                              port 0 = kernel-assigned,
//                                              SIGTERM/SIGINT = graceful drain)
//   fabp loadgen <host> <port> [requests] [clients] [query-aa]
//                                              closed-loop TCP client against
//                                              a `fabp serve --tcp` server;
//                                              prints QPS and p50/p99 latency
//   fabp swap <host> <port> <name> <path>      publish a new generation of
//                                              database <name> on a live
//                                              server (server-side reference
//                                              file; --inline sends the local
//                                              file's bases over the wire)
//
// Multi-tenant serving (PR 10): `fabp serve` accepts repeatable
// `--db name=path` (additional named databases resident next to the
// default one) and `--tenant name=weight[:quota]` (weighted fair-share
// admission); `fabp loadgen` routes with `--db name` / `--tenant name`.
//
// Exit code 0 on success, 1 on usage/product errors.

#include <cctype>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fabp/fabp.hpp"

namespace {

using namespace fabp;

int usage() {
  std::cerr <<
      "usage:\n"
      "  fabp encode <protein>\n"
      "  fabp search <ref.fa> <queries.fa> [threshold-fraction]\n"
      "  fabp scan <ref.fa> <queries.fa> [threshold-fraction] [threads]\n"
      "  fabp tblastn <ref.fa> <queries.fa>\n"
      "  fabp map <residues> [kintex7|vu9p]\n"
      "  fabp rtl <out_dir> [elements]\n"
      "  fabp chaos [bases] [query-aa] [seeds] [flip-rates...]\n"
      "  fabp isa\n"
      "  fabp serve [bases] [query-aa] [requests] [workers]"
      " [--backend hwsim|tiled] [--shards N] [--tcp [port]]\n"
      "             [--db name=path]... [--tenant name=weight[:quota]]...\n"
      "             [--shed-depth N] [--shed-p99 MS] [--max-inflight N]\n"
      "             [--idle-timeout S] [--io-timeout S] [--drain-timeout S]\n"
      "             [--net-fault-rate R] [--net-fault-seed S]\n"
      "  fabp loadgen <host> <port> [requests] [clients] [query-aa]\n"
      "             [--db name] [--tenant name]\n"
      "             [--deadline-ms N] [--retries N] [--faulty-fraction F]\n"
      "             [--net-fault-rate R] [--net-fault-seed S]\n"
      "  fabp swap <host> <port> <name> <path> [--inline]\n";
  return 1;
}

core::BackendKind backend_kind_from(const std::string& name) {
  if (name == "hwsim") return core::BackendKind::HwSim;
  if (name == "tiled") return core::BackendKind::Tiled;
  throw std::runtime_error{"unknown backend: " + name +
                           " (expected hwsim, tiled)"};
}

/// Loads a reference as FASTA (leading '>') or raw ACGT text (whitespace
/// tolerated) — the formats `--db name=path` and `fabp swap` accept.
bio::PackedNucleotides load_reference_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open reference file: " + path};
  if (in.peek() == '>') {
    const auto db = bio::ReferenceDatabase::from_fasta(bio::read_fasta(in));
    return db.packed();
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  std::erase_if(text, [](unsigned char ch) { return std::isspace(ch); });
  return bio::PackedNucleotides{
      bio::NucleotideSequence::parse(bio::SeqKind::Dna, text)};
}

/// `name=value` splitter for --db and --tenant operands.
std::pair<std::string, std::string> split_name_value(
    const std::string& arg, const char* flag) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size())
    throw std::runtime_error{std::string{flag} +
                             " expects name=value, got: " + arg};
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/// `--tenant name=weight[:quota]` parser.
core::TenantConfig parse_tenant_flag(const std::string& arg) {
  auto [name, spec] = split_name_value(arg, "--tenant");
  core::TenantConfig tenant;
  tenant.name = std::move(name);
  const std::size_t colon = spec.find(':');
  tenant.weight = std::strtod(spec.substr(0, colon).c_str(), nullptr);
  if (colon != std::string::npos)
    tenant.queue_quota =
        std::strtoull(spec.substr(colon + 1).c_str(), nullptr, 10);
  if (tenant.weight <= 0.0)
    throw std::runtime_error{"--tenant weight must be > 0: " + arg};
  return tenant;
}

// Reachable scan-kernel names, one per line, dispatch-priority last so
// `fabp isa | tail -1` is the kernel a plain scan would use.  check.sh
// uses this to skip FABP_FORCE_ISA legs the host cannot run.
int cmd_isa() {
  for (core::ScanIsa isa : core::kAllScanIsas)
    if (const core::ScanKernel* kernel = core::scan_kernel_for(isa))
      std::cout << kernel->name << "\n";
  return 0;
}

int cmd_encode(const std::string& text) {
  const auto protein = bio::ProteinSequence::parse(text);
  const auto elements = core::back_translate(protein);
  const auto instructions = core::encode_query(protein);
  for (std::size_t i = 0; i < protein.size(); ++i) {
    std::cout << bio::to_three_letter(protein[i]) << ": ";
    for (std::size_t k = 0; k < 3; ++k)
      std::cout << core::to_string(elements[3 * i + k])
                << (k < 2 ? " " : "  ->  ");
    for (std::size_t k = 0; k < 3; ++k)
      std::cout << instructions[3 * i + k].to_binary_string()
                << (k < 2 ? " " : "\n");
  }
  const core::PackedQuery packed{instructions};
  std::cout << "packed: " << packed.byte_size() << " bytes in DRAM\n";
  return 0;
}

int cmd_search(const std::string& ref_path, const std::string& query_path,
               double threshold_fraction) {
  const auto db =
      bio::ReferenceDatabase::from_fasta(bio::read_fasta_file(ref_path));
  std::cerr << "database: " << db.record_count() << " records, "
            << db.total_bases() << " bases\n";

  std::vector<bio::ProteinSequence> queries;
  std::vector<std::string> names;
  for (const auto& record : bio::read_fasta_file(query_path)) {
    queries.push_back(bio::ProteinSequence::parse(record.sequence));
    names.push_back(record.id);
  }
  if (queries.empty()) {
    std::cerr << "no queries\n";
    return 1;
  }

  core::Engine engine;
  engine.upload_reference(db.packed());
  const auto batch =
      engine.align_batch_sync(queries, threshold_fraction).value_or_throw();

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto annotated =
        core::annotate_hits(batch.per_query[q].hits, db, queries[q]);
    std::cout << names[q] << "\t" << annotated.size() << " hit(s)\n";
    for (const auto& hit : annotated)
      std::cout << "  " << core::to_string(hit, db) << '\n';
  }
  std::cerr << "modeled card time: " << util::time_text(batch.total_s)
            << " (" << batch.queries_per_second << " queries/s)\n";
  return 0;
}

int cmd_scan(const std::string& ref_path, const std::string& query_path,
             double threshold_fraction, std::size_t threads) {
  // Pure-software database scan (no accelerator timing model): one
  // tile-fused pass over the packed database per batch, chunked over the
  // pool.
  const auto db =
      bio::ReferenceDatabase::from_fasta(bio::read_fasta_file(ref_path));
  std::cerr << "database: " << db.record_count() << " records, "
            << db.total_bases() << " bases\n";

  std::vector<bio::ProteinSequence> queries;
  std::vector<std::string> names;
  for (const auto& record : bio::read_fasta_file(query_path)) {
    queries.push_back(bio::ProteinSequence::parse(record.sequence));
    names.push_back(record.id);
  }
  if (queries.empty()) {
    std::cerr << "no queries\n";
    return 1;
  }

  std::vector<core::BitScanQuery> compiled;
  std::vector<std::uint32_t> thresholds;
  for (const auto& query : queries) {
    compiled.emplace_back(core::back_translate(query));
    thresholds.push_back(static_cast<std::uint32_t>(
        threshold_fraction * static_cast<double>(query.size() * 3)));
  }
  std::vector<const core::BitScanQuery*> batch;
  for (const core::BitScanQuery& query : compiled) batch.push_back(&query);

  util::ThreadPool pool{threads};
  util::Timer timer;
  const core::TileScanner scanner{db};
  std::cerr << "scan path: tiled (" << scanner.tile_positions()
            << " positions/tile, " << scanner.tile_count() << " tiles, "
            << pool.size() << " threads)\n";
  const std::vector<std::vector<core::Hit>> outs =
      scanner.hits_batch(batch, thresholds, &pool);
  const double seconds = timer.seconds();

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto annotated = core::annotate_hits(outs[q], db, queries[q]);
    std::cout << names[q] << "\t" << annotated.size() << " hit(s)\n";
    for (const auto& hit : annotated)
      std::cout << "  " << core::to_string(hit, db) << '\n';
  }
  std::cerr << "scan time: " << util::time_text(seconds) << '\n';
  return 0;
}

int cmd_tblastn(const std::string& ref_path, const std::string& query_path) {
  const auto refs = bio::read_fasta_file(ref_path);
  const auto queries = bio::read_fasta_file(query_path);
  util::Timer timer;
  for (const auto& qrecord : queries) {
    const auto query = bio::ProteinSequence::parse(qrecord.sequence);
    blast::Tblastn engine{query, blast::TblastnConfig{}};
    for (const auto& rrecord : refs) {
      const auto ref =
          bio::NucleotideSequence::parse(bio::SeqKind::Dna, rrecord.sequence);
      const auto result = engine.search(ref);
      for (const auto& hit : result.hits)
        std::cout << qrecord.id << "\t" << rrecord.id << "\t"
                  << hit.dna_position << "\tframe=" << hit.frame
                  << "\tbits=" << hit.bits << "\te=" << hit.evalue << '\n';
    }
  }
  std::cerr << "wall time: " << util::time_text(timer.seconds()) << '\n';
  return 0;
}

int cmd_map(std::size_t residues, const std::string& device_name) {
  hw::FpgaDevice device =
      device_name == "vu9p" ? hw::virtex_ultrascale_plus() : hw::kintex7();
  const core::FabpMapping m = core::map_design(device, residues * 3);
  if (!m.feasible) {
    std::cout << "does not fit on " << device.name << '\n';
    return 1;
  }
  std::cout << "device " << device.name << ", query " << residues << " aa ("
            << m.query_elements << " elements)\n"
            << "  segments " << m.segments << ", channels " << m.channels
            << '\n'
            << "  LUT " << util::percent_text(m.lut_util, 1) << "  FF "
            << util::percent_text(m.ff_util, 1) << "  BRAM "
            << util::percent_text(m.bram_util, 1) << "  DSP "
            << util::percent_text(m.dsp_util, 1) << '\n'
            << "  effective bandwidth "
            << util::bandwidth_text(m.effective_bandwidth_bps) << " ("
            << (m.bottleneck == core::Bottleneck::Resources ? "resource"
                                                            : "bandwidth")
            << "-bound)\n";
  return 0;
}

int cmd_rtl(const std::string& out_dir, std::size_t elements) {
  std::filesystem::create_directories(out_dir);
  const auto write = [&](const hw::VerilogModule& m) {
    std::ofstream out{std::filesystem::path(out_dir) / (m.name + ".v")};
    out << m.source;
    std::cout << m.name << ".v: " << m.instance_count("LUT6") << " LUT6, "
              << m.instance_count("FDRE") << " FDRE\n";
  };
  write(core::emit_comparator_module());
  write(hw::emit_pop36_module());
  core::InstanceConfig config;
  config.elements = elements;
  config.threshold = static_cast<std::uint32_t>(elements * 4 / 5);
  write(core::emit_instance_module(config));
  return 0;
}

int cmd_chaos(std::size_t bases, std::size_t query_aa, std::size_t seeds,
              std::vector<double> rates) {
  // Fault-injection sweep: align the same query under increasing per-bit
  // flip rates (x `seeds` independent schedules each) and require the
  // recovered hits to stay bit-identical to the zero-fault golden run.
  if (rates.empty()) rates = {1e-9, 1e-8, 1e-7, 1e-6, 1e-5};

  util::Xoshiro256 rng{4242};
  const auto dna = bio::random_dna(bases, rng);
  const auto query = bio::random_protein(query_aa, rng);
  const auto threshold =
      static_cast<std::uint32_t>(query_aa * 3 * 45 / 100);

  core::Engine golden_engine;
  golden_engine.upload_reference(dna);
  const auto golden =
      golden_engine.align_sync(query, threshold).value_or_throw();
  std::cerr << "reference " << bases << " bases, query " << query_aa
            << " aa, threshold " << threshold << ", golden "
            << golden.hits.size() << " hit(s) in "
            << util::time_text(golden.total_s) << '\n';

  std::cout << std::left << std::setw(11) << "flip-rate" << std::right
            << std::setw(6) << "runs" << std::setw(7) << "crc"
            << std::setw(8) << "rescan" << std::setw(9) << "retries"
            << std::setw(10) << "fallback" << std::setw(12) << "recovery"
            << std::setw(10) << "overhead" << "  match\n";

  bool all_match = true;
  for (const double rate : rates) {
    core::RecoveryStats merged;
    double swept_s = 0.0;
    bool match = true;
    for (std::size_t s = 0; s < seeds; ++s) {
      core::HostConfig config;
      config.fault.seed = 0xc4a05c0deULL + s;
      config.fault.flip_rate = rate;
      core::Engine engine{{.host = config}};
      engine.upload_reference(dna);
      const auto result = engine.align_sync(query, threshold);
      if (!result) {
        std::cerr << "rate " << rate << " seed " << s << ": "
                  << core::to_string(result.error().code) << ": "
                  << result.error().message << '\n';
        match = false;
        continue;
      }
      merged.merge(result->recovery);
      swept_s += result->total_s;
      if (result->hits != golden.hits) match = false;
    }
    all_match = all_match && match;
    const double overhead =
        golden.total_s > 0.0
            ? swept_s / (static_cast<double>(seeds) * golden.total_s) - 1.0
            : 0.0;
    std::cout << std::left << std::setw(11) << rate << std::right
              << std::setw(6) << seeds << std::setw(7) << merged.crc_faults
              << std::setw(8) << merged.rescanned_tiles << std::setw(9)
              << merged.retries << std::setw(10) << merged.fallbacks
              << std::setw(12) << util::time_text(merged.recovery_s)
              << std::setw(10) << util::percent_text(overhead, 2)
              << (match ? "  ok" : "  DIVERGED") << '\n';
  }
  if (!all_match) {
    std::cerr << "chaos: recovered hits diverged from the golden run\n";
    return 1;
  }
  return 0;
}

// Formatted engine/pipeline/shard stats, shared by the burst demo's stdout
// dump and the TCP server's StatsResponse.  The "pipeline: invocations="
// line is load-bearing: the cli_serve_hwsim smoke test greps for it.
std::string serve_stats_text(core::Engine& engine) {
  std::ostringstream out;
  const core::EngineStats stats = engine.stats();
  out << "engine: submitted=" << stats.submitted << " completed="
      << stats.completed << " failed=" << stats.failed << " batches="
      << stats.coalesced_batches << " occupancy=" << stats.batch_occupancy()
      << " largest=" << stats.largest_batch << "\n";
  const core::DevicePipelineStats pipe = engine.pipeline_stats();
  if (pipe.invocations > 0)
    out << "pipeline: invocations=" << pipe.invocations << " tasks="
        << pipe.tasks << " retried=" << pipe.retried_invocations << " pe="
        << pipe.pe_count << " depth=" << pipe.buffer_depth << " largest="
        << pipe.largest_invocation << " occupancy=" << pipe.occupancy()
        << " overlap=" << pipe.overlap_efficiency() << " pe_util="
        << pipe.pe_utilization() << " modeled_qps=" << pipe.modeled_qps()
        << "\n";
  for (const core::ShardStatus& shard : engine.shard_status())
    out << "shard " << shard.index << ": owned=[" << shard.owned_begin << ","
        << shard.owned_end << ") slice=" << shard.slice_elements
        << " health="
        << (shard.health == core::HealthState::Degraded ? "degraded"
                                                        : "healthy")
        << " batches=" << shard.batches_executed
        << " faults=" << shard.fault_events
        << " retries=" << shard.recovery.retries << " rescans="
        << shard.recovery.rescanned_tiles << " fallbacks="
        << shard.recovery.fallbacks << "\n";
  if (engine.shard_count() > 1)
    out << "router: shards=" << engine.shard_count()
        << " scatter+gather=" << util::time_text(
               engine.shard_overhead_seconds())
        << "\n";
  // Multi-tenant view: one line per resident database (with the live
  // per-generation refcounts of the versioned store) and one per tenant.
  // serve_tcp_swap_smoke.sh greps the database lines for generation= and
  // reclaimed=.
  for (const core::DatabaseStatus& db : engine.database_status()) {
    out << "database " << db.name << ": generation=" << db.active_generation
        << " swaps=" << db.swaps << " submitted=" << db.submitted
        << " completed=" << db.completed << " failed=" << db.failed
        << " qps=" << db.qps << " p50=" << db.p50_ms << "ms p99="
        << db.p99_ms << "ms degraded=" << (db.degraded ? 1 : 0)
        << " reclaimed=" << db.reclaimed_generations << "\n";
    for (const auto& gen : db.generations)
      out << "  generation " << gen.generation << ": pins=" << gen.pins
          << (gen.active ? " active" : " retired") << "\n";
  }
  for (const core::TenantStatus& tenant : engine.tenant_status())
    out << "tenant " << tenant.name << ": weight=" << tenant.weight
        << " quota=" << tenant.quota << " depth=" << tenant.queue_depth
        << " peak=" << tenant.peak_depth << " submitted="
        << tenant.submitted << " dequeued=" << tenant.dequeued
        << " completed=" << tenant.completed << " failed=" << tenant.failed
        << " quota-rejections=" << tenant.quota_rejections << " qps="
        << tenant.qps << " p50=" << tenant.p50_ms << "ms p99="
        << tenant.p99_ms << "ms\n";
  return out.str();
}

sigset_t drain_signal_set() {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  return mask;
}

// Real TCP server over the engine: accept loop on this thread, graceful
// drain on SIGTERM/SIGINT via a dedicated sigwait thread.  The caller
// must have blocked drain_signal_set() *before spawning any thread* (the
// engine's workers and scan pool start with its first request, the
// server's threads here) — a single unmasked thread would take the
// default fatal action instead.
int cmd_serve_tcp(core::Engine& engine, net::ServerConfig server_config) {
  const sigset_t mask = drain_signal_set();
  // SwapDatabase admin frames publish a new generation on the live
  // engine: by server-side file (FASTA or raw ACGT) or inline bases.
  // In-flight aligns keep finishing on the generation they were admitted
  // under; failures come back typed on the admin connection.
  const auto swap_handler = [&engine](const net::SwapDatabaseRequest& req) {
    net::SwapDatabaseResponse response;
    try {
      if (req.name.empty())
        throw std::runtime_error{"swap: database name must be non-empty"};
      if (req.path.empty() == req.bases.empty())
        throw std::runtime_error{
            "swap: exactly one of path and bases must be set"};
      bio::PackedNucleotides packed =
          req.path.empty()
              ? bio::PackedNucleotides{bio::NucleotideSequence::parse(
                    bio::SeqKind::Dna, req.bases)}
              : load_reference_file(req.path);
      response.generation =
          engine.upload_database(req.name, std::move(packed));
      std::cerr << "swap: database " << req.name << " -> generation "
                << response.generation << "\n";
    } catch (const std::exception& e) {
      response.status =
          static_cast<std::uint8_t>(core::ErrorCode::BadArgument);
      response.error = e.what();
    }
    return response;
  };
  net::WireServer server{engine, server_config,
                         [&engine] { return serve_stats_text(engine); },
                         swap_handler};
  // Parsed by tools/serve_tcp_smoke.sh and human eyes alike; flush so a
  // piped reader sees the port before the first connection.
  std::cout << "listening on " << server_config.bind_address << ":"
            << server.port() << std::endl;

  std::thread signal_thread{[&mask, &server] {
    int sig = 0;
    sigwait(&mask, &sig);
    std::cerr << "signal " << sig << ": draining\n";
    server.shutdown();
  }};
  server.serve();
  signal_thread.join();

  const net::ServerMetrics metrics = server.metrics();
  std::cout << "server: connections=" << metrics.connections << " requests="
            << metrics.requests << " errors=" << metrics.errors
            << " malformed=" << metrics.malformed << " integrity="
            << metrics.integrity << " swaps=" << metrics.swaps << " shed="
            << metrics.shed << " io-timeouts=" << metrics.io_timeouts
            << " force-cancelled=" << metrics.force_cancelled << " p50="
            << metrics.p50_ms << "ms p99=" << metrics.p99_ms << "ms max="
            << metrics.max_ms << "ms\n"
            << serve_stats_text(engine) << "drained\n";
  return 0;
}

int cmd_serve(std::size_t bases, std::size_t query_aa, std::size_t requests,
              std::size_t workers, const std::string& backend,
              std::size_t shards, bool tcp,
              const net::ServerConfig& server_config,
              const std::vector<std::pair<std::string, std::string>>& dbs,
              std::vector<core::TenantConfig> tenants) {
  if (tcp) {
    // Must precede every thread (the engine's workers and scan pool, the
    // server's): every thread inherits this mask, routing SIGTERM/SIGINT
    // to the sigwait drain thread instead of the default fatal
    // disposition.
    const sigset_t mask = drain_signal_set();
    pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  }
  // Serving-engine demo: a burst of concurrent align requests against one
  // resident reference, drained by the worker pool with request
  // coalescing, self-checked hit-for-hit against sequential execution.
  util::Xoshiro256 rng{7788};
  const auto dna = bio::random_dna(bases, rng);
  std::vector<bio::ProteinSequence> queries;
  for (std::size_t i = 0; i < 8; ++i)
    queries.push_back(bio::random_protein(query_aa, rng));
  // 65% of elements: selective on random DNA (the ~45% median random
  // score stays under it), so hit lists stay small and the run measures
  // scan throughput rather than hit copying.
  const auto threshold = [&](const bio::ProteinSequence& query) {
    return static_cast<std::uint32_t>(query.size() * 3 * 65 / 100);
  };

  core::EngineConfig config;
  config.backend = backend_kind_from(backend);
  config.workers = workers;
  config.queue_capacity = std::max<std::size_t>(requests, 64);
  config.shard.shard_count = shards;
  config.tenants = std::move(tenants);
  core::Engine engine{config};
  engine.upload_reference(dna);
  for (const auto& [name, path] : dbs) {
    const std::uint64_t generation =
        engine.upload_database(name, load_reference_file(path));
    std::cerr << "database " << name << ": " << path << " -> generation "
              << generation << "\n";
  }
  std::cerr << "reference " << bases << " bases, " << queries.size()
            << " distinct queries x " << requests << " requests, "
            << workers << " worker(s), backend " << backend << ", "
            << shards << " shard(s)\n";

  if (tcp) return cmd_serve_tcp(engine, server_config);

  // Sequential truth (and baseline wall time) on the same engine state.
  std::vector<std::vector<core::Hit>> expected;
  util::Timer sequential_timer;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& query = queries[i % queries.size()];
    auto report = engine.align_sync(query, threshold(query));
    if (i < queries.size()) expected.push_back(std::move(report->hits));
  }
  const double sequential_s = sequential_timer.seconds();

  util::Timer burst_timer;
  std::vector<core::Ticket> tickets;
  tickets.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& query = queries[i % queries.size()];
    tickets.push_back(engine.submit(query, threshold(query)));
  }
  bool match = true;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    auto outcome = tickets[i].wait();
    if (!outcome) {
      std::cerr << "request " << i << ": "
                << core::to_string(outcome.error().code) << ": "
                << outcome.error().message << '\n';
      match = false;
      continue;
    }
    if (outcome->hits != expected[i % queries.size()]) match = false;
  }
  const double burst_s = burst_timer.seconds();

  const core::EngineStats stats = engine.stats();
  std::cout << "sequential: " << util::time_text(sequential_s) << " ("
            << static_cast<double>(requests) / sequential_s
            << " req/s)\n"
            << "coalesced:  " << util::time_text(burst_s) << " ("
            << static_cast<double>(requests) / burst_s << " req/s)\n"
            << "batches " << stats.coalesced_batches << ", occupancy "
            << stats.batch_occupancy() << ", largest "
            << stats.largest_batch << ", compiler hits "
            << engine.compiler_stats().hits << "\n"
            << serve_stats_text(engine);
  if (!match) {
    std::cerr << "serve: coalesced results diverged from sequential\n";
    return 1;
  }
  return 0;
}

/// Admin client for the SwapDatabase message: publish a new generation of
/// `name` on a live server, by server-side path or (--inline) by reading
/// the local file and shipping its bases over the wire.
int cmd_swap(const std::string& host, std::uint16_t port,
             const std::string& name, const std::string& path,
             bool send_inline) {
  net::SwapDatabaseRequest request;
  request.name = name;
  if (send_inline) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"cannot open reference file: " + path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    request.bases = buffer.str();
    std::erase_if(request.bases,
                  [](unsigned char ch) { return std::isspace(ch); });
  } else {
    request.path = path;
  }

  net::Socket conn = net::connect_to(host, port);
  if (!net::write_frame(conn.fd(), net::encode(request)))
    throw std::runtime_error{"swap: failed to send the request"};
  std::string payload;
  if (!net::read_frame(conn.fd(), payload))
    throw std::runtime_error{"swap: connection lost before the response"};
  net::SwapDatabaseResponse response;
  if (!net::decode(payload, response))
    throw std::runtime_error{"swap: malformed response"};
  if (!response.ok()) {
    std::cerr << "swap failed: "
              << core::to_string(static_cast<core::ErrorCode>(response.status))
              << ": " << response.error << "\n";
    return 1;
  }
  std::cout << "swapped " << name << " -> generation "
            << response.generation << "\n";
  return 0;
}

int cmd_loadgen(net::LoadgenConfig config) {
  std::cerr << "loadgen: " << config.requests << " requests x "
            << config.clients << " client(s), " << config.query_residues
            << " aa queries -> " << config.host << ":" << config.port
            << "\n";
  const net::LoadgenReport report = net::run_loadgen(config);
  std::cout << "loadgen: sent=" << report.sent << " completed="
            << report.completed << " errors=" << report.errors
            << " transport-failures=" << report.transport_failures
            << " hits=" << report.total_hits << "\n"
            << "loadgen: refused=" << report.refused << " expired="
            << report.expired << " resets=" << report.resets << " timeouts="
            << report.timeouts << " attempts=" << report.attempts
            << " retries=" << report.retries << " integrity-faults="
            << report.integrity_faults << " amplification="
            << report.retry_amplification() << "\n";
  if (report.attackers > 0)
    std::cout << "loadgen: attackers=" << report.attackers
              << " attack-frames=" << report.attack_frames << "\n";
  std::cout << "loadgen: wall=" << util::time_text(report.wall_s) << " qps="
            << report.qps << " p50=" << report.p50_ms << "ms p99="
            << report.p99_ms << "ms\n";
  // With resilience knobs on (a deadline or attackers), shed/expired
  // outcomes are the point of the run: success means every request
  // reached a *typed terminal* outcome and nothing hung or vanished.
  // A plain run keeps the strict contract: all requests completed ok.
  const bool resilience_run =
      config.deadline_s > 0.0 || config.faulty_fraction > 0.0;
  if (resilience_run) return report.all_terminal() ? 0 : 1;
  return report.clean() && report.completed == report.sent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "isa" && argc == 2) return cmd_isa();
    if (command == "encode" && argc == 3) return cmd_encode(argv[2]);
    if (command == "search" && (argc == 4 || argc == 5))
      return cmd_search(argv[2], argv[3],
                        argc == 5 ? std::strtod(argv[4], nullptr) : 0.85);
    if (command == "scan" && argc >= 4 && argc <= 6)
      return cmd_scan(argv[2], argv[3],
                      argc >= 5 ? std::strtod(argv[4], nullptr) : 0.85,
                      argc == 6 ? std::strtoull(argv[5], nullptr, 10)
                                : std::thread::hardware_concurrency());
    if (command == "tblastn" && argc == 4)
      return cmd_tblastn(argv[2], argv[3]);
    if (command == "map" && (argc == 3 || argc == 4))
      return cmd_map(std::strtoull(argv[2], nullptr, 10),
                     argc == 4 ? argv[3] : "kintex7");
    if (command == "rtl" && (argc == 3 || argc == 4))
      return cmd_rtl(argv[2],
                     argc == 4 ? std::strtoull(argv[3], nullptr, 10) : 36);
    if (command == "chaos") {
      std::vector<double> rates;
      for (int i = 5; i < argc; ++i)
        rates.push_back(std::strtod(argv[i], nullptr));
      return cmd_chaos(
          argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50000,
          argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 16,
          argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 3,
          std::move(rates));
    }
    if (command == "serve") {
      std::string backend = "hwsim";
      std::size_t shards = 1;
      bool tcp = false;
      net::ServerConfig server_config;
      std::vector<std::pair<std::string, std::string>> dbs;
      std::vector<core::TenantConfig> tenants;
      std::vector<std::string> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--backend" && i + 1 < argc) {
          backend = argv[++i];
        } else if (arg == "--db" && i + 1 < argc) {
          dbs.push_back(split_name_value(argv[++i], "--db"));
        } else if (arg == "--tenant" && i + 1 < argc) {
          tenants.push_back(parse_tenant_flag(argv[++i]));
        } else if (arg == "--shards" && i + 1 < argc) {
          shards = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--tcp") {
          tcp = true;
          // Optional port operand (0 = kernel-assigned).
          if (i + 1 < argc && std::isdigit(argv[i + 1][0]))
            server_config.port = static_cast<std::uint16_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--shed-depth" && i + 1 < argc) {
          server_config.shed_queue_depth =
              std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--shed-p99" && i + 1 < argc) {
          server_config.shed_p99_ms = std::strtod(argv[++i], nullptr);
        } else if (arg == "--max-inflight" && i + 1 < argc) {
          server_config.max_inflight_per_connection =
              std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--idle-timeout" && i + 1 < argc) {
          server_config.idle_timeout_s = std::strtod(argv[++i], nullptr);
        } else if (arg == "--io-timeout" && i + 1 < argc) {
          server_config.io_timeout_s = std::strtod(argv[++i], nullptr);
        } else if (arg == "--drain-timeout" && i + 1 < argc) {
          server_config.drain_timeout_s = std::strtod(argv[++i], nullptr);
        } else if (arg == "--net-fault-rate" && i + 1 < argc) {
          const double rate = std::strtod(argv[++i], nullptr);
          server_config.fault.corrupt_rate = rate;
          server_config.fault.truncate_rate = rate;
          server_config.fault.reset_rate = rate;
          server_config.fault.dup_rate = rate;
          server_config.fault.delay_rate = rate;
        } else if (arg == "--net-fault-seed" && i + 1 < argc) {
          server_config.fault.seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
          positional.push_back(arg);
        }
      }
      if (positional.size() <= 4)
        return cmd_serve(
            !positional.empty()
                ? std::strtoull(positional[0].c_str(), nullptr, 10)
                : 100000,
            positional.size() > 1
                ? std::strtoull(positional[1].c_str(), nullptr, 10)
                : 16,
            positional.size() > 2
                ? std::strtoull(positional[2].c_str(), nullptr, 10)
                : 256,
            positional.size() > 3
                ? std::strtoull(positional[3].c_str(), nullptr, 10)
                : 2,
            backend, shards, tcp, server_config, dbs, std::move(tenants));
    }
    if (command == "swap" && argc >= 6) {
      bool send_inline = false;
      std::vector<std::string> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--inline")
          send_inline = true;
        else
          positional.push_back(arg);
      }
      if (positional.size() == 4)
        return cmd_swap(positional[0],
                        static_cast<std::uint16_t>(
                            std::strtoul(positional[1].c_str(), nullptr, 10)),
                        positional[2], positional[3], send_inline);
    }
    if (command == "loadgen" && argc >= 4) {
      net::LoadgenConfig config;
      std::vector<std::string> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--deadline-ms" && i + 1 < argc) {
          config.deadline_s = std::strtod(argv[++i], nullptr) / 1e3;
        } else if (arg == "--db" && i + 1 < argc) {
          config.database = argv[++i];
        } else if (arg == "--tenant" && i + 1 < argc) {
          config.tenant = argv[++i];
        } else if (arg == "--retries" && i + 1 < argc) {
          // N retries = N + 1 total wire attempts; 0 disables retrying.
          config.retry.max_attempts =
              std::strtoull(argv[++i], nullptr, 10) + 1;
        } else if (arg == "--faulty-fraction" && i + 1 < argc) {
          config.faulty_fraction = std::strtod(argv[++i], nullptr);
        } else if (arg == "--net-fault-rate" && i + 1 < argc) {
          const double rate = std::strtod(argv[++i], nullptr);
          config.fault.corrupt_rate = rate;
          config.fault.truncate_rate = rate;
          config.fault.reset_rate = rate;
          config.fault.dup_rate = rate;
          config.fault.delay_rate = rate;
        } else if (arg == "--net-fault-seed" && i + 1 < argc) {
          config.fault.seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
          positional.push_back(arg);
        }
      }
      if (positional.size() >= 2 && positional.size() <= 5) {
        config.host = positional[0];
        config.port = static_cast<std::uint16_t>(
            std::strtoul(positional[1].c_str(), nullptr, 10));
        config.requests =
            positional.size() > 2
                ? std::strtoull(positional[2].c_str(), nullptr, 10)
                : 64;
        config.clients =
            positional.size() > 3
                ? std::strtoull(positional[3].c_str(), nullptr, 10)
                : 4;
        config.query_residues =
            positional.size() > 4
                ? std::strtoull(positional[4].c_str(), nullptr, 10)
                : 16;
        return cmd_loadgen(std::move(config));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
