#pragma once
// Umbrella header for the FabP library — reproduction of "FPGA Acceleration
// of Protein Back-Translation and Alignment" (DATE 2021).
//
// Quickstart:
//
//   #include <fabp/fabp.hpp>
//
//   fabp::bio::NucleotideSequence db = ...;          // DNA/RNA reference
//   fabp::bio::ProteinSequence query =
//       fabp::bio::ProteinSequence::parse("MFSR");
//
//   fabp::core::Engine engine;                       // Kintex-7 model
//   engine.upload_reference(db);
//   auto report = engine.align_sync(query, /*threshold=*/10).value_or_throw();
//   for (const auto& hit : report.hits)
//     std::cout << hit.position << " score " << hit.score << '\n';
//
// Layering (see DESIGN.md):
//   bio/   sequences, codon table, FASTA, generators     (substrate S1)
//   hw/    LUT6 netlists, pop-counters, devices, AXI     (substrate S2)
//   align/ Smith-Waterman & friends                      (substrate S3)
//   blast/ TBLASTN-like CPU baseline                     (substrate S4)
//   core/  back-translation, encoding, comparator,
//          accelerator simulator, mapper, host runtime   (the paper, S5)
//   perf/  cross-platform performance & energy models    (S6)
//   net/   TCP front-end: wire protocol, server, loadgen (serving)

#include "fabp/util/bitops.hpp"
#include "fabp/util/crc32.hpp"
#include "fabp/util/rng.hpp"
#include "fabp/util/stats.hpp"
#include "fabp/util/table.hpp"
#include "fabp/util/thread_pool.hpp"
#include "fabp/util/timer.hpp"

#include "fabp/bio/alphabet.hpp"
#include "fabp/bio/codon.hpp"
#include "fabp/bio/codon_usage.hpp"
#include "fabp/bio/database.hpp"
#include "fabp/bio/fasta.hpp"
#include "fabp/bio/generate.hpp"
#include "fabp/bio/mutation.hpp"
#include "fabp/bio/packed.hpp"
#include "fabp/bio/sequence.hpp"
#include "fabp/bio/translation.hpp"

#include "fabp/hw/axi.hpp"
#include "fabp/hw/device.hpp"
#include "fabp/hw/fault.hpp"
#include "fabp/hw/lut.hpp"
#include "fabp/hw/netlist.hpp"
#include "fabp/hw/optimize.hpp"
#include "fabp/hw/popcount.hpp"
#include "fabp/hw/power.hpp"
#include "fabp/hw/timing.hpp"
#include "fabp/hw/vcd.hpp"
#include "fabp/hw/verilog.hpp"

#include "fabp/align/extension.hpp"
#include "fabp/align/local.hpp"
#include "fabp/align/scoring.hpp"
#include "fabp/align/sliding.hpp"

#include "fabp/blast/evalue.hpp"
#include "fabp/blast/kmer_index.hpp"
#include "fabp/blast/seg.hpp"
#include "fabp/blast/tblastn.hpp"

#include "fabp/core/accelerator.hpp"
#include "fabp/core/array.hpp"
#include "fabp/core/backend.hpp"
#include "fabp/core/backtranslate.hpp"
#include "fabp/core/bitscan.hpp"
#include "fabp/core/bitscan_tiled.hpp"
#include "fabp/core/comparator.hpp"
#include "fabp/core/encoding.hpp"
#include "fabp/core/engine.hpp"
#include "fabp/core/error.hpp"
#include "fabp/core/golden.hpp"
#include "fabp/core/hitmerge.hpp"
#include "fabp/core/host.hpp"
#include "fabp/core/instance.hpp"
#include "fabp/core/query_compiler.hpp"
#include "fabp/core/mapper.hpp"
#include "fabp/core/maskonly.hpp"
#include "fabp/core/querypack.hpp"
#include "fabp/core/report.hpp"
#include "fabp/core/shard.hpp"
#include "fabp/core/threshold.hpp"

#include "fabp/net/loadgen.hpp"
#include "fabp/net/server.hpp"
#include "fabp/net/wire.hpp"
