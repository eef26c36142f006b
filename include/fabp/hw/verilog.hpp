#pragma once
// Structural Verilog emission.
//
// The paper implements FabP "in Verilog HDL" and stresses that the custom
// comparator and Pop-Counter *directly instantiate* LUT6 and FF primitives
// (§III-D).  This emitter turns any Netlist into exactly that style of
// source: one `LUT6 #(.INIT(64'h...))` per LUT cell, one `FDRE` per
// flip-flop, carry cells as explicit majority assigns (the positions a
// synthesizer maps onto the slice carry chain).  The output is valid
// Vivado-flavoured structural Verilog, usable as the starting point for a
// real implementation run.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fabp/hw/netlist.hpp"

namespace fabp::hw {

struct VerilogPort {
  std::string name;
  NetId net = kInvalidNet;
};

struct VerilogModule {
  std::string name;
  std::string source;

  /// Counts occurrences of a primitive instantiation (e.g. "LUT6").
  std::size_t instance_count(const std::string& primitive) const;
};

/// `stem` followed by the decimal `index` ("b7", "count3", "w42"): the
/// net and bus-bit names every emitter uses.  Appends to the stem rather
/// than prepending a literal to a temporary, which GCC 12 misreads as an
/// overlapping copy (-Wrestrict) at -O3.
std::string indexed_name(std::string_view stem, std::size_t index);

/// Emits `netlist` as a structural module.  Every primary input consumed
/// by logic should appear in `inputs` (unlisted inputs become internal
/// wires tied to 1'b0); `outputs` name the observable nets.  If the
/// netlist contains flip-flops, `clk` and `rst` ports are added.
VerilogModule emit_verilog(const Netlist& netlist,
                           const std::string& module_name,
                           const std::vector<VerilogPort>& inputs,
                           const std::vector<VerilogPort>& outputs);

/// Convenience emitters for the paper's two hand-instantiated blocks.
VerilogModule emit_pop36_module();
VerilogModule emit_popcounter_module(std::size_t width, bool handcrafted);

}  // namespace fabp::hw
