#include "fabp/hw/popcount.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "fabp/util/rng.hpp"

namespace fabp::hw {
namespace {

// Builds a pop-counter netlist over n primary inputs using `builder`, then
// checks its output against std::popcount for the given stimulus values.
template <typename Builder>
void check_popcounter(std::size_t n, Builder&& builder,
                      const std::vector<std::uint64_t>& stimuli) {
  Netlist nl;
  Bus inputs;
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(nl.add_input());
  const Bus out = builder(nl, std::span<const NetId>{inputs});

  for (std::uint64_t value : stimuli) {
    drive_bus(nl, inputs, value);
    nl.settle();
    const auto expected = static_cast<std::uint64_t>(std::popcount(
        value & (n >= 64 ? ~0ULL : ((1ULL << n) - 1))));
    EXPECT_EQ(read_bus(nl, out), expected)
        << "n=" << n << " value=" << value;
  }
}

std::vector<std::uint64_t> random_stimuli(std::size_t count,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.next());
  out.push_back(0);
  out.push_back(~0ULL);
  return out;
}

TEST(Buses, DriveAndReadRoundTrip) {
  Netlist nl;
  Bus bus;
  for (int i = 0; i < 16; ++i) bus.push_back(nl.add_input());
  for (std::uint64_t v : {0ULL, 1ULL, 0xABCDULL, 0xFFFFULL}) {
    drive_bus(nl, bus, v);
    nl.settle();
    EXPECT_EQ(read_bus(nl, bus), v);
  }
}

TEST(AddBuses, ExhaustiveSmall) {
  Netlist nl;
  Bus a, b;
  for (int i = 0; i < 4; ++i) a.push_back(nl.add_input());
  for (int i = 0; i < 3; ++i) b.push_back(nl.add_input());
  const Bus sum = add_buses(nl, a, b);
  EXPECT_EQ(sum.size(), 5u);
  for (std::uint64_t av = 0; av < 16; ++av)
    for (std::uint64_t bv = 0; bv < 8; ++bv) {
      drive_bus(nl, a, av);
      drive_bus(nl, b, bv);
      nl.settle();
      EXPECT_EQ(read_bus(nl, sum), av + bv);
    }
}

TEST(AddBuses, CostIsOneWidthInLuts) {
  Netlist nl;
  Bus a, b;
  for (int i = 0; i < 8; ++i) a.push_back(nl.add_input());
  for (int i = 0; i < 8; ++i) b.push_back(nl.add_input());
  const std::size_t before = nl.stats().luts;
  add_buses(nl, a, b);
  EXPECT_EQ(nl.stats().luts - before, 8u);
}

TEST(OnesCount6, Exhaustive) {
  Netlist nl;
  Bus in;
  for (int i = 0; i < 6; ++i) in.push_back(nl.add_input());
  const Bus out = ones_count6(nl, in);
  EXPECT_EQ(out.size(), 3u);
  for (std::uint64_t v = 0; v < 64; ++v) {
    drive_bus(nl, in, v);
    nl.settle();
    EXPECT_EQ(read_bus(nl, out),
              static_cast<std::uint64_t>(std::popcount(v)));
  }
}

TEST(OnesCount6, ShortInputs) {
  for (std::size_t n : {1u, 2u, 5u}) {
    Netlist nl;
    Bus in;
    for (std::size_t i = 0; i < n; ++i) in.push_back(nl.add_input());
    const Bus out = ones_count6(nl, in);
    for (std::uint64_t v = 0; v < (1ULL << n); ++v) {
      drive_bus(nl, in, v);
      nl.settle();
      EXPECT_EQ(read_bus(nl, out),
                static_cast<std::uint64_t>(std::popcount(v)));
    }
  }
}

TEST(Pop36, ExhaustiveOverRandomAndCorners) {
  check_popcounter(36, [](Netlist& nl, std::span<const NetId> in) {
    return build_pop36(nl, in);
  }, random_stimuli(300, 101));
}

TEST(Pop36, UsesPaperStructureLutCount) {
  // Fig. 4: stage 1 = 6 groups x 3 LUTs = 18; stage 2 = 3 columns x 3 LUTs
  // = 9; stage 3 = two shifted adds (3 + 3 LUTs).  33 total.
  Netlist nl;
  Bus in;
  for (int i = 0; i < 36; ++i) in.push_back(nl.add_input());
  build_pop36(nl, in);
  EXPECT_EQ(nl.stats().luts, 33u);
}

TEST(Pop36, OutputIsSixBits) {
  Netlist nl;
  Bus in;
  for (int i = 0; i < 36; ++i) in.push_back(nl.add_input());
  const Bus out = build_pop36(nl, in);
  EXPECT_EQ(out.size(), 6u);
  drive_bus(nl, in, ~0ULL);
  nl.settle();
  EXPECT_EQ(read_bus(nl, out), 36u);
}

class PopcounterWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PopcounterWidths, HandcraftedMatchesStdPopcount) {
  const std::size_t n = GetParam();
  check_popcounter(n, [](Netlist& nl, std::span<const NetId> in) {
    return build_popcounter_handcrafted(nl, in);
  }, random_stimuli(100, 201 + n));
}

TEST_P(PopcounterWidths, TreeMatchesStdPopcount) {
  const std::size_t n = GetParam();
  check_popcounter(n, [](Netlist& nl, std::span<const NetId> in) {
    return build_popcounter_tree(nl, in);
  }, random_stimuli(100, 301 + n));
}

INSTANTIATE_TEST_SUITE_P(Widths, PopcounterWidths,
                         ::testing::Values(1, 2, 5, 6, 7, 12, 35, 36, 37, 50,
                                           63, 64));

TEST(Popcounter, WideInputsBeyondOneWord) {
  // 150 bits (the FabP-50 query length): drive two patterns via repeated
  // word stimulus on a custom harness.
  constexpr std::size_t n = 150;
  Netlist nl;
  Bus inputs;
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(nl.add_input());
  const Bus out = build_popcounter_handcrafted(nl, inputs);

  util::Xoshiro256 rng{7};
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool bit = rng.chance(0.5);
      nl.set_input(inputs[i], bit);
      if (bit) ++expected;
    }
    nl.settle();
    EXPECT_EQ(read_bus(nl, out), expected);
  }
}

TEST(Popcounter, HandcraftedIsSmallerThanTree) {
  // The paper's ablation direction (§III-D): the handcrafted Pop-Counter
  // uses fewer LUTs than the tree-adder-style description.
  for (std::size_t n : {36u, 150u, 750u}) {
    EXPECT_LT(popcounter_luts_handcrafted(n), popcounter_luts_tree(n)) << n;
  }
}

TEST(Popcounter, LutCountHelpersMatchGenerators) {
  // Every width up to the default shard.max_query_elements (1536): the
  // mapper prices any query length from the width-only count.
  for (std::size_t n = 0; n <= 1536; ++n) {
    Netlist nl;
    Bus in;
    for (std::size_t i = 0; i < n; ++i) in.push_back(nl.add_input());
    build_popcounter_handcrafted(nl, in);
    EXPECT_EQ(popcounter_luts_handcrafted(n), nl.stats().luts) << n;

    Netlist nl2;
    Bus in2;
    for (std::size_t i = 0; i < n; ++i) in2.push_back(nl2.add_input());
    build_popcounter_tree(nl2, in2);
    EXPECT_EQ(popcounter_luts_tree(n), nl2.stats().luts) << n;
  }
}

TEST(Popcounter, EmptyInput) {
  Netlist nl;
  const Bus out = build_popcounter_handcrafted(nl, {});
  nl.settle();
  EXPECT_EQ(read_bus(nl, out), 0u);
}

}  // namespace
}  // namespace fabp::hw
