#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace emts::netlist {
namespace {

TEST(CellLibrary, EveryTypeHasConsistentInfo) {
  for (std::size_t i = 0; i < cell_type_count(); ++i) {
    const CellInfo& info = cell_info(cell_type_at(i));
    EXPECT_FALSE(info.name.empty());
    EXPECT_GT(info.area_um2, 0.0);
    EXPECT_GT(info.gate_equivalents, 0.0);
    EXPECT_GE(info.delay_ps, 0.0);
    EXPECT_GE(info.switch_charge_fc, 0.0);
  }
}

TEST(CellLibrary, Nand2IsTheGateEquivalentReference) {
  EXPECT_DOUBLE_EQ(cell_info(CellType::kNand2).gate_equivalents, 1.0);
}

TEST(CellLibrary, TruthTables) {
  EXPECT_TRUE(eval_cell(CellType::kInv, {false}));
  EXPECT_FALSE(eval_cell(CellType::kInv, {true}));
  EXPECT_TRUE(eval_cell(CellType::kBuf, {true}));
  EXPECT_TRUE(eval_cell(CellType::kNand2, {true, false}));
  EXPECT_FALSE(eval_cell(CellType::kNand2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::kNor2, {false, false}));
  EXPECT_FALSE(eval_cell(CellType::kNor2, {true, false}));
  EXPECT_TRUE(eval_cell(CellType::kAnd2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::kOr2, {false, true}));
  EXPECT_TRUE(eval_cell(CellType::kXor2, {true, false}));
  EXPECT_FALSE(eval_cell(CellType::kXor2, {true, true}));
  EXPECT_TRUE(eval_cell(CellType::kXnor2, {true, true}));
  EXPECT_FALSE(eval_cell(CellType::kXnor2, {true, false}));
  EXPECT_FALSE(eval_cell(CellType::kTieLo, {}));
  EXPECT_TRUE(eval_cell(CellType::kTieHi, {}));
}

TEST(CellLibrary, Mux2SelectsBInputWhenSelHigh) {
  // inputs {a, b, sel}
  EXPECT_FALSE(eval_cell(CellType::kMux2, {false, true, false}));
  EXPECT_TRUE(eval_cell(CellType::kMux2, {false, true, true}));
  EXPECT_TRUE(eval_cell(CellType::kMux2, {true, false, false}));
}

TEST(CellLibrary, EvalRejectsWrongArity) {
  EXPECT_THROW(eval_cell(CellType::kInv, {true, false}), emts::precondition_error);
  EXPECT_THROW(eval_cell(CellType::kNand2, {true}), emts::precondition_error);
}

TEST(Netlist, AddNetAssignsSequentialIdsAndDefaultNames) {
  Netlist nl;
  const NetId a = nl.add_net();
  const NetId b = nl.add_net("clk");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(nl.net_name(0), "n0");
  EXPECT_EQ(nl.net_name(1), "clk");
}

TEST(Netlist, AddCellWiresDriverAndFanout) {
  Netlist nl;
  const NetId in = nl.add_net("in");
  const NetId out = nl.add_net("out");
  const CellId inv = nl.add_cell(CellType::kInv, {in}, out);
  EXPECT_TRUE(nl.has_driver(out));
  EXPECT_EQ(nl.driver(out), inv);
  EXPECT_FALSE(nl.has_driver(in));
  ASSERT_EQ(nl.fanout(in).size(), 1u);
  EXPECT_EQ(nl.fanout(in)[0].first, inv);
}

TEST(Netlist, RejectsDoubleDriver) {
  Netlist nl;
  const NetId in = nl.add_net();
  const NetId out = nl.add_net();
  nl.add_cell(CellType::kInv, {in}, out);
  EXPECT_THROW(nl.add_cell(CellType::kBuf, {in}, out), emts::precondition_error);
}

TEST(Netlist, RejectsUnknownNets) {
  Netlist nl;
  const NetId in = nl.add_net();
  EXPECT_THROW(nl.add_cell(CellType::kInv, {in}, 99), emts::precondition_error);
  EXPECT_THROW(nl.add_cell(CellType::kInv, {99}, in), emts::precondition_error);
}

TEST(Netlist, RejectsWrongInputCount) {
  Netlist nl;
  const NetId a = nl.add_net();
  const NetId out = nl.add_net();
  EXPECT_THROW(nl.add_cell(CellType::kNand2, {a}, out), emts::precondition_error);
}

TEST(Netlist, PrimaryInputMustBeUndriven) {
  Netlist nl;
  const NetId in = nl.add_net();
  const NetId out = nl.add_net();
  nl.add_cell(CellType::kInv, {in}, out);
  nl.mark_primary_input(in);
  EXPECT_THROW(nl.mark_primary_input(out), emts::precondition_error);
  EXPECT_EQ(nl.primary_inputs().size(), 1u);
}

TEST(Netlist, FlopsTrackedInInsertionOrder) {
  Netlist nl;
  const NetId d0 = nl.add_net();
  const NetId q0 = nl.add_net();
  const NetId q1 = nl.add_net();
  const CellId f0 = nl.add_cell(CellType::kDff, {d0}, q0);
  const CellId f1 = nl.add_cell(CellType::kDff, {q0}, q1);
  ASSERT_EQ(nl.flops().size(), 2u);
  EXPECT_EQ(nl.flops()[0], f0);
  EXPECT_EQ(nl.flops()[1], f1);
}

TEST(Netlist, GateCountAggregates) {
  Netlist nl;
  const NetId a = nl.add_net();
  const NetId b = nl.add_net();
  const NetId x = nl.add_net();
  const NetId y = nl.add_net();
  nl.add_cell(CellType::kNand2, {a, b}, x);
  nl.add_cell(CellType::kDff, {x}, y);
  const auto report = nl.gate_count();
  EXPECT_EQ(report.cell_count, 2u);
  EXPECT_DOUBLE_EQ(report.gate_equivalents, 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(report.area_um2, 12.0 + 72.0);
  EXPECT_EQ(report.count_by_type[static_cast<std::size_t>(CellType::kNand2)], 1u);
  EXPECT_EQ(report.count_by_type[static_cast<std::size_t>(CellType::kDff)], 1u);
}

}  // namespace
}  // namespace emts::netlist
