#pragma once
// Pop-Counter netlist generators (paper §III-D, Fig. 4).
//
// The handcrafted counter is built from Pop36 blocks: six groups of three
// LUT6s sharing six inputs (each group is a 6:3 ones-counter), followed by
// a column-wise stage that re-counts the six 3-bit partial results per bit
// position, and two short shifted adds.  The baseline is the "simple HDL
// description of a tree-adder-style Pop-Counter": a balanced binary adder
// tree over the input bits, mapped at one LUT per sum bit with free carry
// chains.  bench_ablation_popcounter compares the LUT counts of both
// (paper claim: ~20% reduction for the handcrafted design).

#include <span>
#include <vector>

#include "fabp/hw/netlist.hpp"

namespace fabp::hw {

/// Multi-bit value (LSB first) living on netlist nets.
using Bus = std::vector<NetId>;

/// Reads a bus as an unsigned integer after settle()/clock().
std::uint64_t read_bus(const Netlist& netlist, std::span<const NetId> bus);

/// Drives primary-input nets from an unsigned integer (LSB first).
void drive_bus(Netlist& netlist, std::span<const NetId> bus,
               std::uint64_t value);

/// Ripple adder: a + b (unequal widths allowed), result has
/// max(len(a), len(b)) + 1 bits.  Cost: one LUT per operand-width bit plus
/// free carry cells — the standard slice carry-chain mapping.
Bus add_buses(Netlist& netlist, std::span<const NetId> a,
              std::span<const NetId> b);

/// 6:3 ones-counter: three LUT6s sharing the same (up to) six inputs.
Bus ones_count6(Netlist& netlist, std::span<const NetId> bits);

/// Pop36 (Fig. 4): exactly the paper's structure; `bits` may be shorter
/// than 36 (padded with constant zeros).  Output: 6-bit count.
Bus build_pop36(Netlist& netlist, std::span<const NetId> bits);

/// Full handcrafted pop-counter: ceil(n/36) Pop36 blocks + adder tree.
Bus build_popcounter_handcrafted(Netlist& netlist,
                                 std::span<const NetId> bits);

/// Baseline: balanced binary adder tree over individual bits.
Bus build_popcounter_tree(Netlist& netlist, std::span<const NetId> bits);

/// LUT cost of each style for n input bits (must agree with the
/// generators — tested at every width the mapper can ask for).  The
/// handcrafted count is derived from bus widths alone, with no netlist, so
/// the resource mapper can price a query per request; the tree count
/// builds its netlist.
std::size_t popcounter_luts_handcrafted(std::size_t n_bits);
std::size_t popcounter_luts_tree(std::size_t n_bits);

}  // namespace fabp::hw
