// E9 — software scan engines: the scalar golden oracle vs the tiled
// bit-sliced scan at every lane width the host can run (64-lane SWAR,
// 256-lane AVX2, 512-lane AVX-512) at threshold 4/5 of the query and again
// at the 3/5 the served workloads use, plus the thread-pool scan and a
// multi-query batch sweep (sequential per-query scans vs one batched pass
// that scores every query against each freshly compiled tile).  Every
// engine and every batch lane must produce identical hit lists (checked
// here, not just in the unit tests); the harness exits 1 on any mismatch.
// Alongside the console tables it writes BENCH_bitscan.json so CI and
// scripts can track the speedups without scraping text.
//
//   bench_bitscan [bases] [query_residues] [reps] [json_path]
//                 [batch_bases] [batch_residues] [tiled_bases]
//
// Defaults: 4,000,000 bases, 20 residues, best-of-3, BENCH_bitscan.json.
// The batch sweep defaults to its own 48 Mbp x 6 aa configuration, the
// memory-bound regime (thin per-block compute) where sharing one pass
// over the reference across queries could pay, which a 4 Mbp reference
// on a big-L3 server never enters.  The tiled section defaults to a cold
// 256 Mbp reference, far out of cache, to measure the 0.25 B/base packed
// stream against the machine's DRAM ceiling.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fabp/bio/generate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/golden.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/util/benchenv.hpp"
#include "fabp/util/cpuid.hpp"
#include "fabp/util/table.hpp"
#include "fabp/util/thread_pool.hpp"
#include "fabp/util/timer.hpp"

namespace {

using namespace fabp;

struct EngineResult {
  std::string engine;
  std::size_t threads;
  double seconds;
  double bases_per_second;
  double speedup;
  std::size_t hits;
};

// The lane-width sweep again at the 0.6 threshold the served hit_heavy
// workload uses: the early exit drops few blocks there, so the rows time
// the accumulate itself rather than the feasibility check.
struct ServingLanes {
  std::uint32_t threshold = 0;
  std::vector<EngineResult> results;
};

struct BatchResult {
  std::string kernel;
  std::size_t batch;
  double sequential_s;   // per-query scans, one after another
  double batched_s;      // one pass, all queries per cached block
  double batch_speedup;  // sequential_s / batched_s
};

struct ThreadSweepResult {
  std::size_t threads;  // actual pool width, not the request
  double seconds;
  double speedup_vs_1t;
};

struct TileSweepResult {
  std::size_t tile_positions;
  std::size_t scratch_bytes;
  double seconds;
};

struct FaultSection {
  // Zero-fault align overhead: the recovery layer must cost one branch
  // when no faults are configured.  Both rows scan the same reference with
  // the same query; the align row goes through Engine::align_sync and its
  // clean fast-path gate.  The delta is the query encode + accelerator
  // timing model (which predate the fault layer), so the recorded overhead
  // is an upper bound on what the recovery machinery adds.  The JSON keys
  // keep their `session_` names so BENCH_bitscan.json stays comparable.
  double direct_s = 0.0;  // TileScanner::hits, no engine
  double align_s = 0.0;   // Engine::align_sync, all fault rates zero
  double overhead = 0.0;  // align_s / direct_s - 1
  bool hits_match = false;
};

struct TiledSection {
  std::size_t reference_bases = 0;
  std::size_t tile_positions = 0;
  std::size_t scratch_bytes = 0;
  double cold_tiled_s = 0.0;    // fused compile+scan, nothing reused
  long tiled_rss_delta_kb = 0;  // peak-RSS growth during tiled scan
  std::vector<ThreadSweepResult> thread_sweep;
  std::vector<TileSweepResult> tile_sweep;
};

struct BandwidthRow {
  std::size_t threads;      // actual pool width
  double seconds;           // tiled scan wall time at that width
  double scan_gbps;         // model bytes streamed / seconds
  double frac_of_copy;      // scan_gbps / copy_gbps
  double frac_of_read;      // scan_gbps / read_gbps
};

// Measured DRAM-bandwidth ceiling: a STREAM-style copy and a read-only
// sweep over buffers far larger than any cache level give the machine's
// achievable peak; the tiled scan's bytes-moved (the EXPERIMENTS.md
// traffic model, reproduced tile-for-tile by scan_model_bytes below)
// divided by its wall time places the scan on that roofline.
struct BandwidthSection {
  std::size_t buffer_bytes = 0;       // per-buffer size of the probes
  double copy_gbps = 0.0;             // read+write, all pool threads
  double read_gbps = 0.0;             // read-only, all pool threads
  std::size_t reference_bases = 0;    // scan whose traffic is modelled
  std::size_t model_bytes = 0;        // packed bytes the scan streams
  std::size_t theoretical_bytes = 0;  // ceil(bases / 4): no tile overhang
  double cores_to_saturate = 0.0;     // copy_gbps / 1-thread scan_gbps
  std::vector<BandwidthRow> rows;
};

// Packed bytes a tiled scan actually streams: per tile the words
// [first_word, last_word] are read once (two packed words per plane
// word), with the inter-tile overhang re-read — exactly the walk
// TileScanner::range_batch performs.
std::size_t scan_model_bytes(std::size_t bases, std::size_t qlen,
                             std::size_t tile_positions) {
  if (bases < qlen || qlen == 0) return 0;
  const std::size_t positions = bases - qlen + 1;
  const std::size_t word_count = (bases + 63) / 64;
  std::size_t bytes = 0;
  std::size_t pos = 0;
  while (pos < positions) {
    const std::size_t tile_end =
        std::min(positions, (pos / tile_positions + 1) * tile_positions);
    const std::size_t first_word = pos >> 6;
    const std::size_t last_word =
        std::min(word_count - 1, (tile_end + qlen - 2) >> 6);
    bytes += (last_word - first_word + 1) * 2 * sizeof(std::uint64_t);
    pos = tile_end;
  }
  return bytes;
}

double measure_copy_gbps(util::ThreadPool& pool, std::size_t buffer_bytes,
                         int reps) {
  const std::size_t words = buffer_bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> src(words, 0x5555555555555555ULL);
  std::vector<std::uint64_t> dst(words, 0);
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    pool.parallel_indexed_chunks(
        0, words,
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo),
                    src.begin() + static_cast<std::ptrdiff_t>(hi),
                    dst.begin() + static_cast<std::ptrdiff_t>(lo));
        },
        64 * 1024);
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  // STREAM convention: count the read and the write.
  return 2.0 * static_cast<double>(words) * sizeof(std::uint64_t) / best /
         1e9;
}

double measure_read_gbps(util::ThreadPool& pool, std::size_t buffer_bytes,
                         int reps) {
  const std::size_t words = buffer_bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> src(words, 0x3333333333333333ULL);
  std::atomic<std::uint64_t> sink{0};
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    pool.parallel_indexed_chunks(
        0, words,
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          std::uint64_t acc = 0;
          for (std::size_t i = lo; i < hi; ++i) acc += src[i];
          sink.fetch_add(acc, std::memory_order_relaxed);
        },
        64 * 1024);
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return static_cast<double>(words) * sizeof(std::uint64_t) / best / 1e9;
}

// Best-of-`reps` wall time; the result of the last repetition is kept so
// the harness can cross-check the engines against each other.
template <typename Out, typename Fn>
double best_of(int reps, Out& out, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    out = fn();
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

void print_engine_table(const std::vector<EngineResult>& results) {
  util::Table table{{"engine", "threads", "time", "Mbases/s", "speedup",
                     "hits"}};
  for (const EngineResult& r : results) {
    table.row()
        .cell(r.engine)
        .cell(r.threads)
        .cell(util::time_text(r.seconds))
        .cell(r.bases_per_second / 1e6, 1)
        .cell(util::ratio_text(r.speedup))
        .cell(r.hits);
  }
  table.print(std::cout);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

void write_engine_rows(std::ostream& os,
                       const std::vector<EngineResult>& results,
                       const char* indent) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const EngineResult& r = results[i];
    os << indent << "{\"engine\": \"" << r.engine << "\", \"threads\": "
       << r.threads << ", \"seconds\": " << r.seconds
       << ", \"bases_per_second\": " << r.bases_per_second
       << ", \"speedup_vs_scalar\": " << r.speedup << ", \"hits\": "
       << r.hits << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
}

void write_json(const std::string& path, std::size_t bases,
                std::size_t residues, std::size_t elements,
                std::uint32_t threshold, int reps, std::size_t batch_bases,
                std::size_t batch_residues, const util::BenchEnv& env,
                const std::vector<EngineResult>& results,
                const ServingLanes& serving,
                const std::vector<BatchResult>& batches,
                const FaultSection& fault, const TiledSection& tiled,
                const BandwidthSection& bw) {
  std::ofstream os{path};
  os << "{\n"
     << "  \"bench\": \"bitscan\",\n"
     << "  \"config\": {\n"
     << "    \"reference_bases\": " << bases << ",\n"
     << "    \"query_residues\": " << residues << ",\n"
     << "    \"query_elements\": " << elements << ",\n"
     << "    \"threshold\": " << threshold << ",\n"
     << "    \"repetitions\": " << reps << ",\n"
     << "    \"cpu_isa\": \"" << util::cpu_isa_summary() << "\",\n"
     << "    \"active_kernel\": \"" << core::active_scan_kernel().name
     << "\",\n"
     << "    \"environment\": {\n"
     << "      \"hardware_threads\": " << env.hardware_threads << ",\n"
     << "      \"affinity_cpus\": " << env.affinity_cpus << ",\n"
     << "      \"effective_cores\": "
     << std::min(env.hardware_threads, env.affinity_cpus) << ",\n"
     << "      \"governor\": \"" << env.governor << "\"\n"
     << "    }\n"
     << "  },\n"
     << "  \"results\": [\n";
  write_engine_rows(os, results, "    ");
  os << "  ],\n"
     << "  \"serving_threshold\": {\n"
     << "    \"threshold\": " << serving.threshold << ",\n"
     << "    \"results\": [\n";
  write_engine_rows(os, serving.results, "      ");
  os << "    ]\n"
     << "  },\n"
     << "  \"batch_config\": {\n"
     << "    \"reference_bases\": " << batch_bases << ",\n"
     << "    \"query_residues\": " << batch_residues << "\n"
     << "  },\n"
     << "  \"batch\": [\n";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchResult& b = batches[i];
    os << "    {\"kernel\": \"" << b.kernel << "\", \"batch_size\": "
       << b.batch << ", \"sequential_seconds\": " << b.sequential_s
       << ", \"batched_seconds\": " << b.batched_s
       << ", \"batch_speedup\": " << b.batch_speedup << "}"
       << (i + 1 < batches.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"fault\": {\n"
     << "    \"direct_tiled_seconds\": " << fault.direct_s << ",\n"
     << "    \"session_zero_fault_seconds\": " << fault.align_s << ",\n"
     << "    \"session_overhead_frac\": " << fault.overhead << ",\n"
     << "    \"hits_match\": " << (fault.hits_match ? "true" : "false")
     << "\n"
     << "  },\n"
     << "  \"tiled\": {\n"
     << "    \"reference_bases\": " << tiled.reference_bases << ",\n"
     << "    \"tile_positions\": " << tiled.tile_positions << ",\n"
     << "    \"scratch_bytes\": " << tiled.scratch_bytes << ",\n"
     << "    \"cold_tiled_seconds\": " << tiled.cold_tiled_s << ",\n"
     << "    \"tiled_rss_delta_kb\": " << tiled.tiled_rss_delta_kb << ",\n"
     << "    \"thread_sweep\": [\n";
  for (std::size_t i = 0; i < tiled.thread_sweep.size(); ++i) {
    const ThreadSweepResult& t = tiled.thread_sweep[i];
    os << "      {\"threads\": " << t.threads << ", \"seconds\": "
       << t.seconds << ", \"speedup_vs_1t\": " << t.speedup_vs_1t << "}"
       << (i + 1 < tiled.thread_sweep.size() ? "," : "") << "\n";
  }
  os << "    ],\n"
     << "    \"tile_sweep\": [\n";
  for (std::size_t i = 0; i < tiled.tile_sweep.size(); ++i) {
    const TileSweepResult& t = tiled.tile_sweep[i];
    os << "      {\"tile_positions\": " << t.tile_positions
       << ", \"scratch_bytes\": " << t.scratch_bytes << ", \"seconds\": "
       << t.seconds << "}"
       << (i + 1 < tiled.tile_sweep.size() ? "," : "") << "\n";
  }
  os << "    ]\n"
     << "  },\n"
     << "  \"bandwidth\": {\n"
     << "    \"buffer_bytes\": " << bw.buffer_bytes << ",\n"
     << "    \"copy_gbps\": " << bw.copy_gbps << ",\n"
     << "    \"read_gbps\": " << bw.read_gbps << ",\n"
     << "    \"reference_bases\": " << bw.reference_bases << ",\n"
     << "    \"scan_model_bytes\": " << bw.model_bytes << ",\n"
     << "    \"theoretical_min_bytes\": " << bw.theoretical_bytes << ",\n"
     << "    \"cores_to_saturate\": " << bw.cores_to_saturate << ",\n"
     << "    \"scan\": [\n";
  for (std::size_t i = 0; i < bw.rows.size(); ++i) {
    const BandwidthRow& r = bw.rows[i];
    os << "      {\"threads\": " << r.threads << ", \"seconds\": "
       << r.seconds << ", \"scan_gbps\": " << r.scan_gbps
       << ", \"frac_of_copy_peak\": " << r.frac_of_copy
       << ", \"frac_of_read_peak\": " << r.frac_of_read << "}"
       << (i + 1 < bw.rows.size() ? "," : "") << "\n";
  }
  os << "    ]\n"
     << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t bases =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4'000'000;
  const std::size_t residues =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
  // At least one repetition, or the timings (and the JSON) degenerate to
  // inf/nan.
  const int reps = std::max(argc > 3 ? std::atoi(argv[3]) : 3, 1);
  const std::string json_path = argc > 4 ? argv[4] : "BENCH_bitscan.json";
  const std::size_t batch_bases =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 48'000'000;
  const std::size_t batch_residues =
      argc > 6 ? std::strtoull(argv[6], nullptr, 10) : 6;
  const std::size_t tiled_bases =
      argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 256'000'000;

  util::Xoshiro256 rng{424242};
  const bio::ProteinSequence protein = bio::random_protein(residues, rng);
  bio::NucleotideSequence reference = bio::random_dna(bases, rng);
  const auto elements = core::back_translate(protein);
  // Plant a handful of template-compatible genes so the hit-extraction
  // path runs, not just the all-zero fast path of the compare.
  for (std::size_t g = 1; g <= 8 && reference.size() >= 3 * residues; ++g) {
    const auto coding = core::random_template_coding(protein, rng);
    const std::size_t at = g * (bases / 9);
    for (std::size_t i = 0; i < coding.size(); ++i)
      reference[at + i] = coding[i];
  }
  // High enough that random background rarely fires, low enough that the
  // hit-extraction path is still exercised.
  const auto threshold =
      static_cast<std::uint32_t>(elements.size() * 4 / 5);

  const util::BenchEnv env = util::probe_bench_env();
  util::banner(std::cout, "Software scan engines, " +
                              std::to_string(bases / 1'000'000) + " Mbp x " +
                              std::to_string(residues) + " aa query");
  std::cout << "  cpu: " << util::cpu_isa_summary()
            << ", dispatched kernel: " << core::active_scan_kernel().name
            << "\n  (set FABP_FORCE_ISA=scalar|swar64|avx2|avx512|"
               "avx512vbmi2 to pin)\n"
            << "  host: " << env.hardware_threads << " hw threads, "
            << env.affinity_cpus << " schedulable, governor "
            << env.governor << "\n\n";

  const bio::PackedNucleotides packed{reference};
  const core::TileScanner scanner{packed};
  const core::BitScanQuery compiled_query{elements};

  const std::size_t hw_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  util::ThreadPool pool{hw_threads};

  std::vector<core::Hit> scalar_hits;
  const double scalar_s = best_of(reps, scalar_hits, [&] {
    return core::golden_hits(elements, reference, threshold);
  });
  std::vector<EngineResult> results{
      {"scalar_golden", 1, scalar_s, static_cast<double>(bases) / scalar_s,
       1.0, scalar_hits.size()}};

  // Lane-width sweep: one row per SIMD-width kernel the host can run.
  std::vector<const core::ScanKernel*> kernels;
  for (core::ScanIsa isa :
       {core::ScanIsa::Swar64, core::ScanIsa::Avx2, core::ScanIsa::Avx512,
        core::ScanIsa::Avx512Vbmi2})
    if (const core::ScanKernel* kernel = core::scan_kernel_for(isa))
      kernels.push_back(kernel);

  bool mismatch = false;
  const std::size_t positions = bases - elements.size() + 1;
  // Appends one row per kernel scanning the whole reference at `thr`;
  // each must reproduce `golden`, which took `golden_s` seconds.
  const auto lane_sweep = [&](std::uint32_t thr,
                              const std::vector<core::Hit>& golden,
                              double golden_s,
                              std::vector<EngineResult>& rows) {
    for (const core::ScanKernel* kernel : kernels) {
      std::vector<core::Hit> hits;
      const double s = best_of(reps, hits, [&] {
        std::vector<core::Hit> out;
        scanner.range(*kernel, compiled_query, thr, 0, positions, out);
        return out;
      });
      mismatch |= hits != golden;
      rows.push_back({kernel->name, 1, s, static_cast<double>(bases) / s,
                      golden_s / s, hits.size()});
    }
  };
  lane_sweep(threshold, scalar_hits, scalar_s, results);

  // Thread-pool scan through whatever kernel the dispatcher picked.
  std::vector<core::Hit> threaded;
  const double threaded_s = best_of(reps, threaded, [&] {
    return scanner.hits(compiled_query, threshold, &pool);
  });
  mismatch |= threaded != scalar_hits;
  results.push_back({std::string{core::active_scan_kernel().name} +
                         "_parallel",
                     hw_threads, threaded_s,
                     static_cast<double>(bases) / threaded_s,
                     scalar_s / threaded_s, threaded.size()});
  print_engine_table(results);

  ServingLanes serving;
  serving.threshold = static_cast<std::uint32_t>(elements.size() * 3 / 5);
  {
    std::vector<core::Hit> golden;
    const double golden_s = best_of(reps, golden, [&] {
      return core::golden_hits(elements, reference, serving.threshold);
    });
    serving.results.push_back({"scalar_golden", 1, golden_s,
                               static_cast<double>(bases) / golden_s, 1.0,
                               golden.size()});
    lane_sweep(serving.threshold, golden, golden_s, serving.results);
    std::cout << "\n  lane sweep at the serving threshold, "
              << serving.threshold << " of " << elements.size() << "\n\n";
    print_engine_table(serving.results);
  }

  // Zero-fault align overhead: with every fault rate zero, align_sync must
  // take the clean fast path — its cost over a direct tiled scan is launch
  // accounting plus one `enabled()` branch, and the recovery layer is
  // perf-neutral (acceptance: under 2%).
  FaultSection fault;
  {
    std::vector<core::Hit> direct_hits;
    fault.direct_s = best_of(reps, direct_hits, [&] {
      return scanner.hits(compiled_query, threshold);
    });
    core::Engine engine;
    engine.upload_reference(packed);
    std::vector<core::Hit> align_hits;
    fault.align_s = best_of(reps, align_hits, [&] {
      return engine.align_sync(protein, threshold).value_or_throw().hits;
    });
    fault.overhead = fault.align_s / fault.direct_s - 1.0;
    fault.hits_match = align_hits == direct_hits;
    mismatch |= !fault.hits_match;

    std::cout << "\n";
    util::Table fault_table{{"path", "time", "overhead"}};
    fault_table.row()
        .cell("tiled scan (direct)")
        .cell(util::time_text(fault.direct_s))
        .cell("-");
    fault_table.row()
        .cell("engine align, zero-fault")
        .cell(util::time_text(fault.align_s))
        .cell(util::percent_text(fault.overhead, 2));
    fault_table.print(std::cout);
  }

  // Batch sweep: B distinct queries against one reference, sequential
  // per-query scans vs one batched pass per kernel.  The batched pass
  // compiles each tile once and scores all B queries against it before
  // moving on, instead of re-streaming and re-compiling the reference per
  // query.  The sweep uses its own (large-reference, short-query)
  // configuration, where per-block compute is thinnest.
  const bio::PackedNucleotides batch_packed{bio::random_dna(batch_bases, rng)};
  const core::TileScanner batch_scanner{batch_packed};
  std::vector<core::BitScanQuery> batch_queries;
  std::vector<std::vector<core::BackElement>> batch_elements;
  std::vector<std::uint32_t> batch_thresholds;
  std::size_t batch_positions = batch_bases;
  for (std::size_t q = 0; q < 32; ++q) {
    const bio::ProteinSequence p = bio::random_protein(batch_residues, rng);
    batch_elements.push_back(core::back_translate(p));
    batch_queries.emplace_back(batch_elements.back());
    batch_thresholds.push_back(static_cast<std::uint32_t>(
        batch_elements.back().size() * 4 / 5));
    batch_positions = std::min(batch_positions,
                               batch_bases - batch_elements.back().size() + 1);
  }

  std::vector<const core::BitScanQuery*> batch_query_ptrs;
  for (const core::BitScanQuery& query : batch_queries)
    batch_query_ptrs.push_back(&query);

  std::cout << "\n  batch sweep: " << batch_bases / 1'000'000 << " Mbp x "
            << batch_residues << " aa queries\n\n";
  std::vector<BatchResult> batches;
  util::Table batch_table{{"kernel", "batch", "sequential", "batched",
                           "batch speedup"}};
  for (const core::ScanKernel* kernel : kernels) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{8},
                              std::size_t{32}}) {
      using HitLists = std::vector<std::vector<core::Hit>>;
      HitLists sequential;
      const double seq_s = best_of(reps, sequential, [&] {
        HitLists outs(batch);
        for (std::size_t q = 0; q < batch; ++q)
          batch_scanner.range(*kernel, batch_queries[q], batch_thresholds[q],
                              0, batch_positions, outs[q]);
        return outs;
      });
      HitLists batched;
      const double bat_s = best_of(reps, batched, [&] {
        HitLists outs(batch);
        batch_scanner.range_batch(*kernel, batch_query_ptrs.data(),
                                  batch_thresholds.data(), batch, 0,
                                  batch_positions, outs.data());
        return outs;
      });
      mismatch |= batched != sequential;
      batches.push_back({kernel->name, batch, seq_s, bat_s, seq_s / bat_s});
      batch_table.row()
          .cell(kernel->name)
          .cell(batch)
          .cell(util::time_text(seq_s))
          .cell(util::time_text(bat_s))
          .cell(util::ratio_text(seq_s / bat_s));
    }
  }
  batch_table.print(std::cout);

  // ------------------------------------------------------------------
  // Tile-fused compile+scan, cold: one query arrives against a reference
  // nothing has been built for.  The scan streams the 0.25 B/base packed
  // words once, compiling and scoring one L2-resident tile at a time; the
  // peak-RSS delta shows its working set is per-thread scratch only.
  TiledSection tiled;
  {
    bio::NucleotideSequence tiled_reference =
        bio::random_dna(tiled_bases, rng);
    for (std::size_t g = 1;
         g <= 8 && tiled_reference.size() >= 3 * residues; ++g) {
      const auto coding = core::random_template_coding(protein, rng);
      const std::size_t at = g * (tiled_bases / 9);
      for (std::size_t i = 0; i < coding.size(); ++i)
        tiled_reference[at + i] = coding[i];
    }
    const bio::PackedNucleotides tiled_packed{tiled_reference};
    tiled_reference = bio::NucleotideSequence{};  // keep only 0.25 B/base

    const core::TileScanner cold_scanner{tiled_packed};
    tiled.reference_bases = tiled_bases;
    tiled.tile_positions = cold_scanner.tile_positions();
    tiled.scratch_bytes = cold_scanner.scratch_bytes(elements.size());

    std::cout << "\n  tile-fused scan, cold " << tiled_bases / 1'000'000
              << " Mbp x " << residues << " aa (tile "
              << tiled.tile_positions << " positions, "
              << tiled.scratch_bytes / 1024 << " KiB scratch/thread)\n";

    const long rss_0 = peak_rss_kb();
    std::vector<core::Hit> tiled_hits;
    {
      util::Timer timer;
      tiled_hits = cold_scanner.hits(compiled_query, threshold);
      tiled.cold_tiled_s = timer.seconds();
    }
    tiled.tiled_rss_delta_kb = peak_rss_kb() - rss_0;
    std::cout << "  1 thread: " << util::time_text(tiled.cold_tiled_s)
              << ", peak-RSS delta " << tiled.tiled_rss_delta_kb / 1024
              << " MiB\n";

    // Thread sweep over the tiled path (whole-tile chunks, deterministic
    // merge).  Records the pool's actual width; on a machine with fewer
    // cores the wider pools time-share, so the win saturates at the core
    // count — the row still proves pooling never costs throughput.
    for (std::size_t request : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      util::ThreadPool sweep_pool{request};
      std::vector<core::Hit> pooled;
      const double s = best_of(reps, pooled, [&] {
        return cold_scanner.hits(compiled_query, threshold, &sweep_pool);
      });
      mismatch |= pooled != tiled_hits;
      tiled.thread_sweep.push_back(
          {sweep_pool.size(), s,
           tiled.thread_sweep.empty()
               ? 1.0
               : tiled.thread_sweep.front().seconds / s});
    }

    // Tile-size sweep: too small re-pays per-tile entry/exit overhead,
    // too large spills the compiled planes out of L2, so the scan writes
    // and re-reads them through DRAM.
    for (std::size_t tile : {std::size_t{32} * 1024, std::size_t{128} * 1024,
                             std::size_t{512} * 1024,
                             std::size_t{2048} * 1024}) {
      const core::TileScanner swept{tiled_packed, {.tile_positions = tile}};
      std::vector<core::Hit> hits;
      const double s = best_of(reps, hits, [&] {
        return swept.hits(compiled_query, threshold);
      });
      mismatch |= hits != tiled_hits;
      tiled.tile_sweep.push_back(
          {swept.tile_positions(), swept.scratch_bytes(elements.size()), s});
    }

    std::cout << "\n";
    util::Table sweep_table{{"tiled threads", "time", "speedup vs 1T"}};
    for (const ThreadSweepResult& t : tiled.thread_sweep)
      sweep_table.row()
          .cell(t.threads)
          .cell(util::time_text(t.seconds))
          .cell(util::ratio_text(t.speedup_vs_1t));
    sweep_table.print(std::cout);

    std::cout << "\n";
    util::Table tile_table{{"tile positions", "scratch/thread", "time"}};
    for (const TileSweepResult& t : tiled.tile_sweep)
      tile_table.row()
          .cell(t.tile_positions)
          .cell(std::to_string(t.scratch_bytes / 1024) + " KiB")
          .cell(util::time_text(t.seconds));
    tile_table.print(std::cout);
  }

  // ------------------------------------------------------------------
  // Measured DRAM-bandwidth ceiling.  The copy/read probes stream buffers
  // far larger than any cache level (512 MiB each — the build host's L3
  // is 260 MiB), so they measure memory, not cache.  The scan rows reuse
  // the tiled thread sweep's wall times: bytes-moved comes from the
  // traffic model (0.25 B/base plus the inter-tile overhang), so
  // scan_gbps is the packed-stream bandwidth the scan actually sustains,
  // and frac-of-peak places it on the machine's roofline.  A low
  // fraction at one thread means the scan is compute-bound there;
  // cores_to_saturate says how many such cores the measured ceiling
  // could feed before the scan turns memory-bound.
  BandwidthSection bw;
  {
    constexpr std::size_t kBwBufferBytes = 512ull * 1024 * 1024;
    bw.buffer_bytes = kBwBufferBytes;
    bw.copy_gbps = measure_copy_gbps(pool, kBwBufferBytes, reps);
    bw.read_gbps = measure_read_gbps(pool, kBwBufferBytes, reps);
    bw.reference_bases = tiled.reference_bases;
    bw.model_bytes = scan_model_bytes(tiled.reference_bases, elements.size(),
                                      tiled.tile_positions);
    bw.theoretical_bytes = (tiled.reference_bases + 3) / 4;
    for (const ThreadSweepResult& t : tiled.thread_sweep) {
      BandwidthRow row;
      row.threads = t.threads;
      row.seconds = t.seconds;
      row.scan_gbps = static_cast<double>(bw.model_bytes) / t.seconds / 1e9;
      row.frac_of_copy = bw.copy_gbps > 0 ? row.scan_gbps / bw.copy_gbps : 0;
      row.frac_of_read = bw.read_gbps > 0 ? row.scan_gbps / bw.read_gbps : 0;
      bw.rows.push_back(row);
    }
    if (!bw.rows.empty() && bw.rows.front().scan_gbps > 0)
      bw.cores_to_saturate = bw.copy_gbps / bw.rows.front().scan_gbps;

    std::cout << "\n  DRAM ceiling (" << kBwBufferBytes / (1024 * 1024)
              << " MiB buffers, " << pool.size() << " threads): copy "
              << bw.copy_gbps << " GB/s, read " << bw.read_gbps
              << " GB/s\n  scan streams "
              << static_cast<double>(bw.model_bytes) / 1e6 << " MB ("
              << static_cast<double>(bw.model_bytes) /
                     static_cast<double>(bw.theoretical_bytes)
              << "x the 0.25 B/base floor); ~" << bw.cores_to_saturate
              << " cores at 1-thread rate would saturate copy peak\n\n";
    util::Table bw_table{{"scan threads", "time", "GB/s", "of copy peak",
                          "of read peak"}};
    for (const BandwidthRow& r : bw.rows)
      bw_table.row()
          .cell(r.threads)
          .cell(util::time_text(r.seconds))
          .cell(r.scan_gbps, 2)
          .cell(util::percent_text(r.frac_of_copy, 1))
          .cell(util::percent_text(r.frac_of_read, 1));
    bw_table.print(std::cout);
  }

  if (mismatch) {
    std::cerr << "ENGINE MISMATCH: some kernel differs from the scalar"
                 " oracle\n";
    return 1;
  }
  std::cout << "\n  hit lists identical across all engines and batches.\n";

  write_json(json_path, bases, residues, elements.size(), threshold, reps,
             batch_bases, batch_residues, env, results, serving, batches,
             fault, tiled, bw);
  std::cout << "  wrote " << json_path << "\n";
  return 0;
}
