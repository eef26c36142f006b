#include "fabp/hw/popcount.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "fabp/util/bitops.hpp"

namespace fabp::hw {

std::uint64_t read_bus(const Netlist& netlist, std::span<const NetId> bus) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bus.size(); ++i)
    if (netlist.value(bus[i])) value |= 1ULL << i;
  return value;
}

void drive_bus(Netlist& netlist, std::span<const NetId> bus,
               std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i)
    netlist.set_input(bus[i], ((value >> i) & 1ULL) != 0);
}

Bus add_buses(Netlist& netlist, std::span<const NetId> a,
              std::span<const NetId> b) {
  if (a.size() < b.size()) return add_buses(netlist, b, a);
  // a is the wider operand; ripple from LSB with free carry cells.
  static const Lut6 kXor3 = Lut6::from_function([](std::uint8_t idx) {
    return (std::popcount(static_cast<unsigned>(idx & 0b111)) & 1) != 0;
  });

  Bus result;
  result.reserve(a.size() + 1);
  NetId carry = netlist.add_const(false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetId bi = i < b.size() ? b[i] : netlist.add_const(false);
    result.push_back(netlist.add_lut(kXor3, {a[i], bi, carry}));
    carry = netlist.add_carry(a[i], bi, carry);
  }
  result.push_back(carry);  // carry out is the MSB, free via the chain
  return result;
}

Bus ones_count6(Netlist& netlist, std::span<const NetId> bits) {
  // Three LUT6s sharing the same inputs, producing bit k of the ones count.
  Bus out;
  const std::size_t n = bits.size() > 6 ? 6 : bits.size();
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << n) - 1);
  for (unsigned k = 0; k < 3; ++k) {
    const Lut6 lut = Lut6::from_function([k, mask](std::uint8_t idx) {
      const int ones = std::popcount(static_cast<unsigned>(idx & mask));
      return ((ones >> k) & 1) != 0;
    });
    out.push_back(netlist.add_lut(lut, bits.subspan(0, n)));
  }
  return out;
}

Bus build_pop36(Netlist& netlist, std::span<const NetId> bits) {
  if (bits.empty()) return Bus{netlist.add_const(false)};
  if (bits.size() <= 6) return ones_count6(netlist, bits);

  // Stage 1 (Fig. 4): groups of six shared-input LUT triples.
  std::vector<Bus> partials;
  for (std::size_t pos = 0; pos < bits.size(); pos += 6) {
    const std::size_t len = bits.size() - pos < 6 ? bits.size() - pos : 6;
    partials.push_back(ones_count6(netlist, bits.subspan(pos, len)));
  }

  // Stage 2: per-bit-position columns, re-counted with shared-input triples.
  std::array<Bus, 3> columns;
  for (unsigned k = 0; k < 3; ++k) {
    Bus column_bits;
    for (const Bus& p : partials) column_bits.push_back(p[k]);
    columns[k] = ones_count6(netlist, column_bits);
  }

  // Stage 3: total = col0 + (col1 << 1) + (col2 << 2).  The shifted adds
  // pass the low bits through for free.
  Bus t;
  t.push_back(columns[0][0]);
  {
    const std::span<const NetId> c0{columns[0]};
    const Bus upper = add_buses(netlist, c0.subspan(1), columns[1]);
    t.insert(t.end(), upper.begin(), upper.end());
  }
  Bus total;
  total.push_back(t[0]);
  total.push_back(t[1]);
  {
    const std::span<const NetId> ts{t};
    const Bus upper = add_buses(netlist, ts.subspan(2), columns[2]);
    total.insert(total.end(), upper.begin(), upper.end());
  }
  // Trim to 6 bits: 36 fits in 6 bits; upper adder bits beyond are zero.
  if (total.size() > 6) total.resize(6);
  return total;
}

namespace {

/// Balanced pairwise reduction of partial-sum buses.
Bus reduce_tree(Netlist& netlist, std::vector<Bus> nodes) {
  if (nodes.empty()) return Bus{netlist.add_const(false)};
  while (nodes.size() > 1) {
    std::vector<Bus> next;
    next.reserve((nodes.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
      next.push_back(add_buses(netlist, nodes[i], nodes[i + 1]));
    if (nodes.size() % 2 != 0) next.push_back(std::move(nodes.back()));
    nodes = std::move(next);
  }
  return nodes.front();
}

}  // namespace

Bus build_popcounter_handcrafted(Netlist& netlist,
                                 std::span<const NetId> bits) {
  std::vector<Bus> blocks;
  for (std::size_t pos = 0; pos < bits.size(); pos += 36) {
    const std::size_t len = bits.size() - pos < 36 ? bits.size() - pos : 36;
    blocks.push_back(build_pop36(netlist, bits.subspan(pos, len)));
  }
  return reduce_tree(netlist, std::move(blocks));
}

Bus build_popcounter_tree(Netlist& netlist, std::span<const NetId> bits) {
  std::vector<Bus> leaves;
  leaves.reserve(bits.size());
  for (NetId bit : bits) leaves.push_back(Bus{bit});
  return reduce_tree(netlist, std::move(leaves));
}

std::size_t popcounter_luts_handcrafted(std::size_t n_bits) {
  // Width-only walk of build_popcounter_handcrafted.  A Pop36 block of at
  // most six bits is one 6:3 triple (3-bit count); a longer block is
  // ceil(len/6) stage-1 triples, three stage-2 triples and two 3-LUT
  // shifted adds (6-bit count).  reduce_tree's adders then cost their
  // wider operand's width and come out one bit wider.
  std::size_t luts = 0;
  std::vector<std::size_t> widths;
  widths.reserve(util::ceil_div(n_bits, 36));
  for (std::size_t pos = 0; pos < n_bits; pos += 36) {
    const std::size_t len = std::min<std::size_t>(36, n_bits - pos);
    luts += len <= 6 ? 3 : 3 * util::ceil_div(len, 6) + 15;
    widths.push_back(len <= 6 ? 3 : 6);
  }
  while (widths.size() > 1) {
    std::size_t next = 0;
    for (std::size_t i = 0; i + 1 < widths.size(); i += 2) {
      const std::size_t wider = std::max(widths[i], widths[i + 1]);
      luts += wider;
      widths[next++] = wider + 1;
    }
    if (widths.size() % 2 != 0) widths[next++] = widths.back();
    widths.resize(next);
  }
  return luts;
}

std::size_t popcounter_luts_tree(std::size_t n_bits) {
  Netlist netlist;
  Bus inputs;
  inputs.reserve(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i)
    inputs.push_back(netlist.add_input());
  build_popcounter_tree(netlist, inputs);
  return netlist.stats().luts;
}

}  // namespace fabp::hw
