#include "fabp/core/instance.hpp"

#include <stdexcept>

#include "fabp/core/comparator.hpp"
#include "fabp/util/bitops.hpp"

namespace fabp::core {

InstancePorts build_alignment_instance(hw::Netlist& netlist,
                                       const InstanceConfig& config) {
  if (config.elements == 0)
    throw std::invalid_argument{"alignment instance: zero elements"};

  if (config.fixed_query && config.fixed_query->size() != config.elements)
    throw std::invalid_argument{
        "alignment instance: fixed query length mismatch"};

  InstancePorts ports;
  ports.query.resize(config.elements);
  ports.ref.resize(config.elements + 2);

  for (std::size_t i = 0; i < config.elements; ++i) {
    for (unsigned b = 0; b < 6; ++b) {
      ports.query[i][b] =
          config.fixed_query
              ? netlist.add_const((*config.fixed_query)[i].bit(b))
              : netlist.add_input();
    }
  }
  for (auto& r : ports.ref)
    for (auto& bit : r) bit = netlist.add_input();

  // Comparator column: element i aligns ref[i+2]; its history elements are
  // ref[i+1] (i-1) and ref[i] (i-2).
  for (std::size_t i = 0; i < config.elements; ++i) {
    const auto& q = ports.query[i];
    const auto& r = ports.ref[i + 2];
    const auto& r1 = ports.ref[i + 1];
    const auto& r2 = ports.ref[i];
    ports.matches.push_back(build_comparator_on(
        netlist, q, r[0], r[1], /*ref_im1_msb=*/r1[1],
        /*ref_im2_msb=*/r2[1], /*ref_im2_lsb=*/r2[0]));
  }

  // Optional pipeline register after the comparator stage.
  std::vector<hw::NetId> staged = ports.matches;
  if (config.pipelined)
    for (auto& net : staged) net = netlist.add_ff(net);

  if (!config.pipelined) {
    ports.score = hw::build_popcounter_handcrafted(netlist, staged);
  } else {
    // Pipelined Pop-Counter (§III-C/III-D): Pop36 blocks, a register
    // stage on their 6-bit outputs, then the reduction tree and the score
    // register.  Three-stage latency, each stage short enough for the
    // 200 MHz kernel clock.
    std::vector<hw::Bus> blocks;
    const std::span<const hw::NetId> staged_span{staged};
    for (std::size_t pos = 0; pos < staged.size(); pos += 36) {
      const std::size_t len =
          staged.size() - pos < 36 ? staged.size() - pos : 36;
      hw::Bus block =
          hw::build_pop36(netlist, staged_span.subspan(pos, len));
      for (auto& net : block) net = netlist.add_ff(net);
      blocks.push_back(std::move(block));
    }
    while (blocks.size() > 1) {
      std::vector<hw::Bus> next;
      for (std::size_t i = 0; i + 1 < blocks.size(); i += 2)
        next.push_back(hw::add_buses(netlist, blocks[i], blocks[i + 1]));
      if (blocks.size() % 2 != 0) next.push_back(std::move(blocks.back()));
      blocks = std::move(next);
    }
    ports.score = std::move(blocks.front());
    for (auto& net : ports.score) net = netlist.add_ff(net);
  }

  // Threshold compare: hit = score >= T via carry-out of
  // score + (2^n - T); the paper maps this compare onto a DSP slice.
  const std::size_t n = ports.score.size();
  const std::uint64_t max_score = std::uint64_t{1} << n;
  if (config.threshold >= max_score) {
    // Unreachable threshold: hit is constant false.
    ports.hit = netlist.add_const(false);
    return ports;
  }
  const std::uint64_t constant = max_score - config.threshold;
  hw::Bus const_bus;
  for (std::size_t b = 0; b < n; ++b)
    const_bus.push_back(netlist.add_const(((constant >> b) & 1) != 0));
  // threshold == 0 makes constant == 2^n whose bit n we dropped; the hit
  // is then constant true.
  if (config.threshold == 0) {
    ports.hit = netlist.add_const(true);
    return ports;
  }
  const hw::Bus sum = hw::add_buses(netlist, const_bus, ports.score);
  ports.hit = sum[n];  // carry out <=> score >= threshold
  return ports;
}

std::uint32_t simulate_instance(hw::Netlist& netlist,
                                const InstancePorts& ports,
                                const InstanceConfig& config,
                                const EncodedQuery& query,
                                std::span<const bio::Nucleotide> window) {
  if (query.size() != config.elements ||
      window.size() != config.elements + 2)
    throw std::invalid_argument{"simulate_instance: size mismatch"};

  for (std::size_t i = 0; i < query.size(); ++i)
    for (unsigned b = 0; b < 6; ++b)
      netlist.set_input(ports.query[i][b], query[i].bit(b));
  for (std::size_t i = 0; i < window.size(); ++i) {
    const std::uint8_t code = bio::code(window[i]);
    netlist.set_input(ports.ref[i][0], (code & 1) != 0);
    netlist.set_input(ports.ref[i][1], (code & 2) != 0);
  }
  netlist.settle();
  if (config.pipelined) {
    netlist.clock();  // match bits into stage 1
    netlist.clock();  // Pop36 block counts into stage 2
    netlist.clock();  // reduced score into stage 3
  }
  return static_cast<std::uint32_t>(
      hw::read_bus(netlist, ports.score));
}

hw::VerilogModule emit_instance_module(const InstanceConfig& config) {
  hw::Netlist nl;
  const InstancePorts ports = build_alignment_instance(nl, config);
  std::vector<hw::VerilogPort> inputs;
  for (std::size_t i = 0; i < ports.query.size(); ++i)
    for (unsigned b = 0; b < 6; ++b)
      inputs.push_back(hw::VerilogPort{
          hw::indexed_name(hw::indexed_name("q", i) + "_", b),
          ports.query[i][b]});
  for (std::size_t i = 0; i < ports.ref.size(); ++i)
    for (unsigned b = 0; b < 2; ++b)
      inputs.push_back(hw::VerilogPort{
          hw::indexed_name(hw::indexed_name("r", i) + "_", b),
          ports.ref[i][b]});
  std::vector<hw::VerilogPort> outputs;
  for (std::size_t b = 0; b < ports.score.size(); ++b)
    outputs.push_back(
        hw::VerilogPort{hw::indexed_name("score", b), ports.score[b]});
  outputs.push_back(hw::VerilogPort{"hit", ports.hit});
  return hw::emit_verilog(nl, "fabp_instance", inputs, outputs);
}

}  // namespace fabp::core
