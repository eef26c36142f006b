#include "fabp/core/comparator.hpp"

namespace fabp::core {

namespace {

// Mux LUT index assignment: i0=cfg0 i1=cfg1 i2=q2 i3=im1_msb i4=im2_msb
// i5=im2_lsb.
bool mux_spec(std::uint8_t idx) {
  const bool cfg0 = (idx >> 0) & 1;
  const bool cfg1 = (idx >> 1) & 1;
  const bool q2 = (idx >> 2) & 1;
  const bool im1_msb = (idx >> 3) & 1;
  const bool im2_msb = (idx >> 4) & 1;
  const bool im2_lsb = (idx >> 5) & 1;
  const unsigned sel = (cfg1 ? 2u : 0u) | (cfg0 ? 1u : 0u);
  switch (sel) {
    case 0b00: return q2;        // Types I/II and D: pass the payload bit
    case 0b01: return im2_lsb;   // Arg  (F:10)
    case 0b10: return im1_msb;   // Stop (F:00)
    default: return im2_msb;     // Leu  (F:01)
  }
}

// Cmp LUT index assignment: i0=ref0 i1=ref1 i2=X i3=q3 i4=q4 i5=q5.
// This is the Fig. 5(b) table, generated from the element semantics.
bool cmp_spec(std::uint8_t idx) {
  const bool ref0 = (idx >> 0) & 1;
  const bool ref1 = (idx >> 1) & 1;
  const bool x = (idx >> 2) & 1;
  const bool q3 = (idx >> 3) & 1;
  const bool q4 = (idx >> 4) & 1;
  const bool q5 = (idx >> 5) & 1;
  const std::uint8_t ref = static_cast<std::uint8_t>((ref1 ? 2 : 0) |
                                                     (ref0 ? 1 : 0));
  if (!q5) {
    if (!q4) {
      // Type I: exact match of (q3, X) against the reference element.
      const std::uint8_t nt =
          static_cast<std::uint8_t>((q3 ? 2 : 0) | (x ? 1 : 0));
      return ref == nt;
    }
    // Type II conditions.
    const unsigned cond = (q3 ? 2u : 0u) | (x ? 1u : 0u);
    switch (cond) {
      case 0b00: return ref0;          // U/C (pyrimidine: LSB set)
      case 0b01: return !ref0;         // A/G (purine: LSB clear)
      case 0b10: return ref != 0b10;   // G-bar
      default: return !ref1;           // A/C (MSB clear)
    }
  }
  // Type III functions; X carries the distilled history bit S.
  const unsigned f = (q4 ? 2u : 0u) | (q3 ? 1u : 0u);
  switch (f) {
    case 0b00: return x ? ref == 0b00 : !ref0;  // Stop3
    case 0b01: return x ? !ref0 : true;         // Leu3
    case 0b10: return x ? true : !ref0;         // Arg3
    default: return true;                       // D
  }
}

}  // namespace

hw::Lut6 comparator_mux_lut() {
  static const hw::Lut6 lut = hw::Lut6::from_function(mux_spec);
  return lut;
}

hw::Lut6 comparator_cmp_lut() {
  static const hw::Lut6 lut = hw::Lut6::from_function(cmp_spec);
  return lut;
}

bool comparator_eval(Instruction q, std::uint8_t ref_code, bool ref_im1_msb,
                     bool ref_im2_msb, bool ref_im2_lsb) {
  const bool x = comparator_mux_lut().eval(
      q.bit(0), q.bit(1), q.bit(2), ref_im1_msb, ref_im2_msb, ref_im2_lsb);
  return comparator_cmp_lut().eval((ref_code & 1) != 0, (ref_code & 2) != 0,
                                   x, q.bit(3), q.bit(4), q.bit(5));
}

bool comparator_eval(Instruction q, bio::Nucleotide ref,
                     bio::Nucleotide ref_im1, bio::Nucleotide ref_im2) {
  return comparator_eval(q, bio::code(ref), (bio::code(ref_im1) & 2) != 0,
                         (bio::code(ref_im2) & 2) != 0,
                         (bio::code(ref_im2) & 1) != 0);
}

ComparatorPorts build_comparator(hw::Netlist& netlist) {
  ComparatorPorts ports{};
  for (auto& net : ports.q) net = netlist.add_input();
  ports.ref0 = netlist.add_input();
  ports.ref1 = netlist.add_input();
  ports.ref_im1_msb = netlist.add_input();
  ports.ref_im2_msb = netlist.add_input();
  ports.ref_im2_lsb = netlist.add_input();
  ports.match = build_comparator_on(netlist, ports.q, ports.ref0, ports.ref1,
                                    ports.ref_im1_msb, ports.ref_im2_msb,
                                    ports.ref_im2_lsb);
  return ports;
}

hw::NetId build_comparator_on(hw::Netlist& netlist,
                              std::span<const hw::NetId> q_bits,
                              hw::NetId ref0, hw::NetId ref1,
                              hw::NetId ref_im1_msb, hw::NetId ref_im2_msb,
                              hw::NetId ref_im2_lsb) {
  const hw::NetId x = netlist.add_lut(
      comparator_mux_lut(),
      {q_bits[0], q_bits[1], q_bits[2], ref_im1_msb, ref_im2_msb,
       ref_im2_lsb});
  return netlist.add_lut(comparator_cmp_lut(),
                         {ref0, ref1, x, q_bits[3], q_bits[4], q_bits[5]});
}

hw::VerilogModule emit_comparator_module() {
  hw::Netlist nl;
  const ComparatorPorts ports = build_comparator(nl);
  std::vector<hw::VerilogPort> inputs;
  for (unsigned b = 0; b < 6; ++b)
    inputs.push_back(hw::VerilogPort{hw::indexed_name("q", b), ports.q[b]});
  inputs.push_back(hw::VerilogPort{"ref0", ports.ref0});
  inputs.push_back(hw::VerilogPort{"ref1", ports.ref1});
  inputs.push_back(hw::VerilogPort{"ref_im1_msb", ports.ref_im1_msb});
  inputs.push_back(hw::VerilogPort{"ref_im2_msb", ports.ref_im2_msb});
  inputs.push_back(hw::VerilogPort{"ref_im2_lsb", ports.ref_im2_lsb});
  return hw::emit_verilog(nl, "fabp_comparator", inputs,
                          {hw::VerilogPort{"match", ports.match}});
}

}  // namespace fabp::core
