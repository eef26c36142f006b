// Quickstart: align one protein query against a small DNA reference with
// the FabP host engine, print the hits, and show what the encoding looks
// like.  Mirrors the flow of Fig. 1: back-translate -> encode -> align.

#include <iostream>

#include "fabp/fabp.hpp"

int main() {
  using namespace fabp;

  // A toy reference: random DNA with the query's coding sequence planted
  // at position 100.
  util::Xoshiro256 rng{2021};
  const bio::ProteinSequence query = bio::ProteinSequence::parse("MKWVTFISLLFLFSSAYS");
  bio::NucleotideSequence reference = bio::random_dna(400, rng);
  const bio::NucleotideSequence coding = core::random_template_coding(query, rng);
  for (std::size_t i = 0; i < coding.size(); ++i)
    reference[100 + i] = coding[i];

  std::cout << "query protein : " << query.to_string() << '\n';
  std::cout << "coding (one of many back-translations): "
            << coding.to_string() << "\n\n";

  // The FabP view of the query: degenerate elements and 6-bit instructions.
  const auto elements = core::back_translate(query);
  const auto instructions = core::encode_query(query);
  std::cout << "back-translated elements (first codons):\n  ";
  for (std::size_t i = 0; i < 9; ++i)
    std::cout << core::to_string(elements[i]) << ' ';
  std::cout << "...\nencoded instructions:\n  ";
  for (std::size_t i = 0; i < 9; ++i)
    std::cout << instructions[i].to_binary_string() << ' ';
  std::cout << "...\n\n";

  // Align on the modeled Kintex-7 card.  Threshold: at least 90% of the
  // 3 * |query| elements must match.
  core::Engine engine;
  engine.upload_reference(reference);
  const auto threshold =
      static_cast<std::uint32_t>(elements.size() * 9 / 10);
  const core::HostRunReport report =
      engine.align_sync(query, threshold).value_or_throw();

  std::cout << "hits (threshold " << threshold << "/" << elements.size()
            << "):\n";
  for (const core::Hit& hit : report.hits)
    std::cout << "  position " << hit.position << "  score " << hit.score
              << '\n';

  std::cout << "\nkernel time " << util::time_text(report.kernel_s)
            << ", end-to-end " << util::time_text(report.total_s)
            << ", FPGA power " << report.watts << " W\n";
  std::cout << "device mapping: " << report.mapping.segments
            << " segment(s), LUT utilization "
            << util::percent_text(report.mapping.lut_util) << '\n';
  return 0;
}
