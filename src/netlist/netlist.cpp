#include "netlist/netlist.hpp"

#include "util/assert.hpp"

namespace emts::netlist {

Netlist::Netlist(std::string name) : name_{std::move(name)} {}

NetId Netlist::add_net(std::string net_name) {
  const auto id = static_cast<NetId>(net_names_.size());
  EMTS_REQUIRE(id != kInvalidNet, "netlist net capacity exhausted");
  if (net_name.empty()) net_name = "n" + std::to_string(id);
  net_names_.push_back(std::move(net_name));
  net_driver_.push_back(kInvalidNet);
  net_fanout_.emplace_back();
  return id;
}

CellId Netlist::add_cell(CellType type, std::vector<NetId> inputs, NetId output) {
  const CellInfo& info = cell_info(type);
  EMTS_REQUIRE(inputs.size() == info.num_inputs, "add_cell: wrong input count");
  EMTS_REQUIRE(output < net_names_.size(), "add_cell: output net does not exist");
  EMTS_REQUIRE(net_driver_[output] == kInvalidNet, "add_cell: output net already driven");
  for (NetId in : inputs) {
    EMTS_REQUIRE(in < net_names_.size(), "add_cell: input net does not exist");
  }

  const auto id = static_cast<CellId>(cells_.size());
  for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
    net_fanout_[inputs[pin]].emplace_back(id, pin);
  }
  net_driver_[output] = id;
  if (type == CellType::kDff) flops_.push_back(id);
  cells_.push_back(Cell{type, std::move(inputs), output});
  return id;
}

void Netlist::mark_primary_input(NetId net) {
  EMTS_REQUIRE(net < net_names_.size(), "mark_primary_input: no such net");
  EMTS_REQUIRE(net_driver_[net] == kInvalidNet, "primary input must be undriven");
  primary_inputs_.push_back(net);
}

void Netlist::mark_primary_output(NetId net) {
  EMTS_REQUIRE(net < net_names_.size(), "mark_primary_output: no such net");
  primary_outputs_.push_back(net);
}

const Cell& Netlist::cell(CellId id) const {
  EMTS_ASSERT(id < cells_.size());
  return cells_[id];
}

const std::string& Netlist::net_name(NetId id) const {
  EMTS_ASSERT(id < net_names_.size());
  return net_names_[id];
}

bool Netlist::has_driver(NetId net) const {
  EMTS_ASSERT(net < net_driver_.size());
  return net_driver_[net] != kInvalidNet;
}

CellId Netlist::driver(NetId net) const {
  EMTS_REQUIRE(has_driver(net), "driver: net is undriven");
  return net_driver_[net];
}

const std::vector<std::pair<CellId, std::size_t>>& Netlist::fanout(NetId net) const {
  EMTS_ASSERT(net < net_fanout_.size());
  return net_fanout_[net];
}

GateCountReport Netlist::gate_count() const {
  GateCountReport report;
  report.count_by_type.assign(cell_type_count(), 0);
  report.cell_count = cells_.size();
  for (const Cell& c : cells_) {
    const CellInfo& info = cell_info(c.type);
    report.gate_equivalents += info.gate_equivalents;
    report.area_um2 += info.area_um2;
    ++report.count_by_type[static_cast<std::size_t>(c.type)];
  }
  return report;
}

}  // namespace emts::netlist
