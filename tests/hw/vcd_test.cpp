#include "fabp/hw/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "fabp/hw/verilog.hpp"

namespace fabp::hw {
namespace {

const Lut6 kNot = Lut6::from_function(
    [](std::uint8_t idx) { return (idx & 1) == 0; });

TEST(Vcd, HeaderAndDefinitions) {
  Netlist nl;
  const NetId a = nl.add_input();
  VcdTrace trace{"dut"};
  trace.watch(a, "a");
  trace.sample(nl);
  std::ostringstream os;
  trace.write(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("$timescale 5ns $end"), std::string::npos);
  EXPECT_NE(text.find("$scope module dut $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! a $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, RecordsChangesOnly) {
  Netlist nl;
  const NetId a = nl.add_input();
  VcdTrace trace{"dut"};
  trace.watch(a, "a");

  nl.set_input(a, false);
  nl.settle();
  trace.sample(nl);  // t0: 0
  trace.sample(nl);  // t1: unchanged
  nl.set_input(a, true);
  nl.settle();
  trace.sample(nl);  // t2: 1

  std::ostringstream os;
  trace.write(os);
  const std::string text = os.str();
  // Initial value at #0, nothing at #1, change at #2.
  EXPECT_NE(text.find("#0\n0!"), std::string::npos);
  EXPECT_NE(text.find("#2\n1!"), std::string::npos);
  EXPECT_EQ(text.find("#1\n0!"), std::string::npos);
  EXPECT_EQ(text.find("#1\n1!"), std::string::npos);
}

TEST(Vcd, VectorSignalsMsbFirst) {
  Netlist nl;
  const NetId b0 = nl.add_input();
  const NetId b1 = nl.add_input();
  VcdTrace trace{"dut"};
  const NetId bus[] = {b0, b1};  // LSB first
  trace.watch_bus(bus, "count");
  nl.set_input(b0, true);   // value 1
  nl.set_input(b1, false);
  nl.settle();
  trace.sample(nl);
  std::ostringstream os;
  trace.write(os);
  // 2-bit vector: MSB-first rendering of value 1 is "01".
  EXPECT_NE(os.str().find("b01 !"), std::string::npos);
  EXPECT_NE(os.str().find("count [1:0]"), std::string::npos);
}

TEST(Vcd, TracksSequentialLogicOverClocks) {
  Netlist nl;
  const NetId d = nl.add_input();
  const NetId q = nl.add_ff(d);
  const NetId nq = nl.add_lut(kNot, {q});
  VcdTrace trace{"dut"};
  trace.watch(q, "q");
  trace.watch(nq, "nq");

  nl.set_input(d, true);
  nl.settle();
  trace.sample(nl);
  nl.clock();
  trace.sample(nl);
  std::ostringstream os;
  trace.write(os);
  EXPECT_EQ(trace.samples(), 2u);
  // q rises at t1, nq falls at t1.
  EXPECT_NE(os.str().find("#1\n1!\n0\""), std::string::npos);
}

TEST(Vcd, WatchAfterSampleThrows) {
  Netlist nl;
  const NetId a = nl.add_input();
  VcdTrace trace{"dut"};
  trace.watch(a, "a");
  trace.sample(nl);
  EXPECT_THROW(trace.watch(a, "b"), std::logic_error);
}

TEST(Vcd, ManySignalsGetDistinctIds) {
  Netlist nl;
  VcdTrace trace{"dut"};
  std::vector<NetId> nets;
  for (std::size_t i = 0; i < 200; ++i) {
    nets.push_back(nl.add_input());
    trace.watch(nets.back(), indexed_name("s", i));
  }
  trace.sample(nl);
  std::ostringstream os;
  trace.write(os);
  // 200 > 94: two-character identifiers appear and parse uniquely.
  EXPECT_NE(os.str().find("$var wire 1 !\" s94 $end"), std::string::npos);
}

}  // namespace
}  // namespace fabp::hw
