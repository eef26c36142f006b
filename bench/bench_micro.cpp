// E8 — microbenchmarks (google-benchmark): per-component throughput of the
// encoding, comparator, golden scan, the 4 Mbp tile scan split into plane
// compile and scoring, pop-counter netlist, DP aligners, the TBLASTN
// stages, the hw-sim device accounting and the reply path (CRC32, wire
// encode/decode of a hit-dense response).  These attribute where time
// goes in the software models; the paper-level numbers live in the
// bench_fig6_*/bench_table1 harnesses.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "fabp/align/local.hpp"
#include "fabp/align/sliding.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/blast/tblastn.hpp"
#include "fabp/core/accelerator.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/blast/seg.hpp"
#include "fabp/core/comparator.hpp"
#include "fabp/core/instance.hpp"
#include "fabp/hw/optimize.hpp"
#include "fabp/hw/popcount.hpp"
#include "fabp/net/wire.hpp"
#include "fabp/util/crc32.hpp"

namespace {

using namespace fabp;

util::Xoshiro256& rng() {
  static util::Xoshiro256 instance{8675309};
  return instance;
}

void BM_EncodeQuery(benchmark::State& state) {
  const auto protein =
      bio::random_protein(static_cast<std::size_t>(state.range(0)), rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(core::encode_query(protein));
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_EncodeQuery)->Arg(50)->Arg(250);

void BM_ComparatorEval(benchmark::State& state) {
  const auto q = core::encode_query(bio::random_protein(50, rng()));
  const auto ref = bio::random_dna(4096, rng());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = ref[i & 4095];
    const auto im1 = ref[(i + 1) & 4095];
    const auto im2 = ref[(i + 2) & 4095];
    benchmark::DoNotOptimize(
        core::comparator_eval(q[i % q.size()], r, im1, im2));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComparatorEval);

void BM_GoldenScoreAt(benchmark::State& state) {
  const auto elements = core::back_translate(
      bio::random_protein(static_cast<std::size_t>(state.range(0)), rng()));
  const auto ref = bio::random_dna(8192, rng());
  std::size_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::golden_score_at(elements, ref, p));
    p = (p + 31) % (ref.size() - elements.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements.size()));
}
BENCHMARK(BM_GoldenScoreAt)->Arg(50)->Arg(250);

void BM_GoldenScan(benchmark::State& state) {
  const auto elements = core::back_translate(bio::random_protein(50, rng()));
  const auto ref = bio::random_dna(1 << 16, rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(core::golden_hits(elements, ref, 140));
  state.SetBytesProcessed(state.iterations() * (1 << 16) / 4);
}
BENCHMARK(BM_GoldenScan);

void BM_BitScanScan(benchmark::State& state) {
  // Same workload as BM_GoldenScan through the bit-sliced engine: the
  // tiled scan compiles and scores the packed reference tile by tile.
  const auto elements = core::back_translate(bio::random_protein(50, rng()));
  const core::BitScanQuery query{elements};
  const bio::PackedNucleotides packed{bio::random_dna(1 << 16, rng())};
  const core::TileScanner scanner{packed};
  for (auto _ : state)
    benchmark::DoNotOptimize(scanner.hits(query, 140));
  state.SetBytesProcessed(state.iterations() * (1 << 16) / 4);
}
BENCHMARK(BM_BitScanScan);

// A 4 Mbp reference: the size of one swap_churn database strand.
const bio::PackedNucleotides& reference_4m() {
  static const bio::PackedNucleotides packed{bio::random_dna(4'000'000, rng())};
  return packed;
}

void BM_TileScan4M(benchmark::State& state) {
  // One-thread tile-fused scan of 4 Mbp at the swap_churn query shapes.
  // Arguments: query residues, threshold in per-mille of the query
  // elements.  At 650 (the serving fraction 0.65) the time is compile
  // plus score; at 1000 (threshold = qlen) every block exits after its
  // first 16-element group, so the time is the compile floor.
  const auto& packed = reference_4m();
  const auto elements = core::back_translate(
      bio::random_protein(static_cast<std::size_t>(state.range(0)), rng()));
  const core::BitScanQuery query{elements};
  const auto threshold = static_cast<std::uint32_t>(
      elements.size() * static_cast<std::size_t>(state.range(1)) / 1000);
  const core::TileScanner scanner{packed};
  for (auto _ : state) benchmark::DoNotOptimize(scanner.hits(query, threshold));
  state.SetLabel(core::active_scan_kernel().name);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(packed.size()) / 4);
}
BENCHMARK(BM_TileScan4M)
    ->ArgsProduct({{20, 80}, {650, 1000}})
    ->Unit(benchmark::kMillisecond);

void BM_TileScan1M(benchmark::State& state) {
  // The hit_heavy shape, one thread: an L2-resident 1 Mbp reference, a
  // 20 aa query at threshold 0.6 (arguments as BM_TileScan4M).  Reference
  // and query come from generators of their own, so the row times the
  // same input however often it is called and leaves the suite's shared
  // generator, and every row after it, as they were.
  static const bio::PackedNucleotides packed = [] {
    util::Xoshiro256 gen{1};
    return bio::PackedNucleotides{bio::random_dna(1'000'000, gen)};
  }();
  const auto residues = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 gen{residues};
  const auto elements =
      core::back_translate(bio::random_protein(residues, gen));
  const core::BitScanQuery query{elements};
  const auto threshold = static_cast<std::uint32_t>(
      elements.size() * static_cast<std::size_t>(state.range(1)) / 1000);
  const core::TileScanner scanner{packed};
  for (auto _ : state) benchmark::DoNotOptimize(scanner.hits(query, threshold));
  state.SetLabel(core::active_scan_kernel().name);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(packed.size()) / 4);
}
BENCHMARK(BM_TileScan1M)->Args({20, 600})->Unit(benchmark::kMillisecond);

void BM_TileCompile4M(benchmark::State& state) {
  // The active kernel's tile plane compile alone over the same 4 Mbp, in
  // default-size tiles with the entry history carried across edges — the
  // compile share of BM_TileScan4M.
  const auto& packed = reference_4m();
  const core::ScanKernel& kernel = core::active_scan_kernel();
  const std::size_t tile_words = core::TileScanConfig{}.tile_positions / 64;
  const std::size_t stride = tile_words + core::kScanGuardWords;
  std::vector<std::uint64_t> planes(core::kElementKindCount * stride);
  const std::size_t words = (packed.size() + 63) / 64;
  core::TileCompileJob job{.packed = packed.words().data(),
                           .packed_words = packed.words().size(),
                           .ref_size = packed.size()};
  for (auto _ : state) {
    core::CodeWord entry;
    job.entry = nullptr;
    for (job.first_word = 0; job.first_word < words;
         job.first_word += tile_words) {
      job.data_words = std::min(tile_words, words - job.first_word);
      job.capture_w = job.first_word + job.data_words - 1;
      entry = kernel.compile_tile(job, planes.data(), stride);
      job.entry = &entry;
    }
    benchmark::DoNotOptimize(planes.data());
  }
  state.SetLabel(kernel.name);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(packed.size()) / 4);
}
BENCHMARK(BM_TileCompile4M)->Unit(benchmark::kMillisecond);

void BM_Pop36Netlist(benchmark::State& state) {
  hw::Netlist nl;
  hw::Bus inputs;
  for (int i = 0; i < 36; ++i) inputs.push_back(nl.add_input());
  const hw::Bus out = hw::build_pop36(nl, inputs);
  std::uint64_t v = 0xdeadbeef;
  for (auto _ : state) {
    hw::drive_bus(nl, inputs, v);
    nl.settle();
    benchmark::DoNotOptimize(hw::read_bus(nl, out));
    v = v * 6364136223846793005ULL + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Pop36Netlist);

void BM_SmithWatermanCells(benchmark::State& state) {
  const auto q = bio::random_protein(64, rng());
  const auto r = bio::random_protein(256, rng());
  const auto& m = align::SubstitutionMatrix::blosum62();
  for (auto _ : state)
    benchmark::DoNotOptimize(align::smith_waterman_score(q, r, m));
  state.SetItemsProcessed(state.iterations() * 64 * 256);
}
BENCHMARK(BM_SmithWatermanCells);

void BM_SlidingHits(benchmark::State& state) {
  const auto q = bio::random_dna(150, rng());
  const auto ref = bio::random_dna(1 << 16, rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(align::sliding_hits(q, ref, 120));
  state.SetBytesProcessed(state.iterations() * (1 << 16) / 4);
}
BENCHMARK(BM_SlidingHits);

void BM_KmerIndexBuild(benchmark::State& state) {
  const auto protein =
      bio::random_protein(static_cast<std::size_t>(state.range(0)), rng());
  const auto& m = align::SubstitutionMatrix::blosum62();
  for (auto _ : state) {
    blast::KmerIndex index{protein, blast::KmerIndexConfig{}, m};
    benchmark::DoNotOptimize(index.entry_count());
  }
}
BENCHMARK(BM_KmerIndexBuild)->Arg(50)->Arg(250);

void BM_TblastnScan(benchmark::State& state) {
  const auto protein = bio::random_protein(50, rng());
  const auto ref = bio::random_dna(1 << 17, rng());
  const blast::Tblastn engine{protein, blast::TblastnConfig{}};
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.search(ref));
  state.SetBytesProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_TblastnScan);

void BM_AcceleratorRun(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.threshold = 130;
  core::Accelerator acc{cfg};
  acc.load_query(bio::random_protein(50, rng()));
  const bio::PackedNucleotides packed{bio::random_dna(1 << 16, rng())};
  for (auto _ : state)
    benchmark::DoNotOptimize(acc.run(packed));
  state.SetBytesProcessed(state.iterations() * (1 << 16) / 4);
}
BENCHMARK(BM_AcceleratorRun);

void BM_HwSimAccount(benchmark::State& state) {
  // The hw-sim device accounting alone: run_many over hit lists scan_batch
  // produced up front (as the engine hands them over), batch of 2.
  // Arguments: reference Mbp, query residues.
  const std::size_t bases = static_cast<std::size_t>(state.range(0)) << 20;
  const core::HostConfig config;
  core::ReferenceStore store;
  store.upload(bio::PackedNucleotides{bio::random_dna(bases, rng())},
               config.search_both_strands);
  const auto backend =
      core::make_backend(core::BackendKind::HwSim, config, store);
  std::vector<core::CompiledQueryPtr> queries;
  std::vector<std::uint32_t> thresholds;
  for (int q = 0; q < 2; ++q) {
    queries.push_back(core::compile_query(bio::random_protein(
        static_cast<std::size_t>(state.range(1)), rng())));
    thresholds.push_back(
        queries.back()->threshold_for_expected_hits(bases, 16.0));
  }
  const auto hits = backend->scan_batch(queries, thresholds, false, nullptr);
  std::vector<core::BackendRequest> requests;
  for (std::size_t q = 0; q < queries.size(); ++q)
    requests.push_back({queries[q].get(), thresholds[q], &hits[q], &hits[q]});
  for (auto _ : state) benchmark::DoNotOptimize(backend->run_many(requests));
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_HwSimAccount)
    ->ArgsProduct({{1, 4, 16}, {20, 80}})
    ->Unit(benchmark::kMicrosecond);

void BM_InstanceNetlistSettle(benchmark::State& state) {
  core::InstanceConfig cfg;
  cfg.elements = 36;
  cfg.threshold = 20;
  cfg.pipelined = false;
  hw::Netlist nl;
  const core::InstancePorts ports = core::build_alignment_instance(nl, cfg);
  const auto query = core::encode_query(bio::random_protein(12, rng()));
  const auto ref = bio::random_dna(100, rng());
  std::size_t pos = 2;
  for (auto _ : state) {
    std::vector<bio::Nucleotide> window;
    window.push_back(ref[pos - 2]);
    window.push_back(ref[pos - 1]);
    for (std::size_t i = 0; i < 36; ++i) window.push_back(ref[pos + i]);
    benchmark::DoNotOptimize(
        core::simulate_instance(nl, ports, cfg, query, window));
    pos = 2 + (pos + 1) % 60;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstanceNetlistSettle);

void BM_OptimizePass(benchmark::State& state) {
  const auto query = core::encode_query(bio::random_protein(12, rng()));
  core::InstanceConfig cfg;
  cfg.elements = 36;
  cfg.threshold = 20;
  cfg.pipelined = false;
  cfg.fixed_query = &query;
  hw::Netlist nl;
  const core::InstancePorts ports = core::build_alignment_instance(nl, cfg);
  std::vector<hw::NetId> keep = ports.score;
  keep.push_back(ports.hit);
  for (auto _ : state)
    benchmark::DoNotOptimize(hw::optimize(nl, keep).stats.luts_after);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.cell_count()));
}
BENCHMARK(BM_OptimizePass);

void BM_SegMask(benchmark::State& state) {
  const auto protein = bio::random_protein(250, rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(blast::seg_mask(protein));
  state.SetItemsProcessed(state.iterations() * 250);
}
BENCHMARK(BM_SegMask);

void BM_BackTranslate(benchmark::State& state) {
  const auto protein = bio::random_protein(250, rng());
  for (auto _ : state)
    benchmark::DoNotOptimize(core::back_translate(protein));
  state.SetItemsProcessed(state.iterations() * 250);
}
BENCHMARK(BM_BackTranslate);

// Reply path of a hit-dense request: a `hit_heavy` reply carries ~2,094
// hits, ~25 KB on the wire, and every frame is CRC'd once per side.
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> buffer(25 * 1024);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng().next());
  for (auto _ : state)
    benchmark::DoNotOptimize(util::crc32(buffer.data(), buffer.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32);

void BM_WireAlignResponse(benchmark::State& state) {
  net::AlignResponse response;
  response.id = 42;
  response.server_seconds = 5e-4;
  response.generation = 1;
  std::size_t position = 0;
  for (int i = 0; i < 2094; ++i) {
    position += 1 + rng().next() % 900;
    response.hits.push_back({position, 12 + static_cast<std::uint32_t>(
                                                rng().next() % 9)});
  }
  // Server side: encode + frame; client side: CRC verify + decode.
  const auto round_trip = [&](net::AlignResponse& decoded) {
    const std::string framed = net::frame(net::encode(response));
    std::string_view payload;
    const bool ok = net::verify_frame_body(
                        std::string_view{framed}.substr(4), payload) &&
                    net::decode(payload, decoded);
    return ok ? framed.size() : 0;
  };
  net::AlignResponse check;
  const std::size_t bytes = round_trip(check);
  if (bytes == 0 || check.hits != response.hits)
    state.SkipWithError("wire round trip lost the hit list");
  for (auto _ : state) {
    net::AlignResponse decoded;
    benchmark::DoNotOptimize(round_trip(decoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireAlignResponse);

}  // namespace

// Like BENCHMARK_MAIN(), but defaulting to a JSON dump next to the console
// reporter so scripts get machine-readable output without extra flags.
// Any explicit --benchmark_out= on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args{argv, argv + argc};
  std::string out = "--benchmark_out=BENCH_micro.json";
  std::string fmt = "--benchmark_out_format=json";
  bool user_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string_view{argv[i]}.starts_with("--benchmark_out="))
      user_out = true;
  if (!user_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
