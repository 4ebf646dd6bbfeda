// Gate-level netlist graph. Cells drive nets; nets fan out to cell inputs.
// Invariants enforced at construction: every net has at most one driver, every
// cell input references an existing net. The structure is append-only, which
// keeps ids stable and lets the simulator index by plain vectors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cell.hpp"

namespace emts::netlist {

using NetId = std::uint32_t;
using CellId = std::uint32_t;

inline constexpr NetId kInvalidNet = 0xffffffffu;

/// One cell instance: type, input nets, output net.
struct Cell {
  CellType type;
  std::vector<NetId> inputs;
  NetId output = kInvalidNet;
};

/// Aggregate size report (drives the Table I reproduction).
struct GateCountReport {
  std::size_t cell_count = 0;
  double gate_equivalents = 0.0;
  double area_um2 = 0.0;
  std::vector<std::size_t> count_by_type;  // indexed by CellType
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top");

  const std::string& name() const { return name_; }

  /// Creates a new undriven net. Primary inputs are nets that never get a
  /// driving cell; the simulator sets them directly.
  NetId add_net(std::string net_name = "");

  /// Adds a cell driving `output`. Requires all nets to exist, the output to
  /// be undriven, and the input count to match the cell type.
  CellId add_cell(CellType type, std::vector<NetId> inputs, NetId output);

  /// Marks a net as a primary input (documentation + validation aid).
  void mark_primary_input(NetId net);

  /// Marks a net as a primary output.
  void mark_primary_output(NetId net);

  std::size_t net_count() const { return net_names_.size(); }
  std::size_t cell_count() const { return cells_.size(); }

  const Cell& cell(CellId id) const;
  const std::string& net_name(NetId id) const;

  /// Id of the cell driving `net`, or kInvalidCell sentinel via has_driver().
  bool has_driver(NetId net) const;
  CellId driver(NetId net) const;

  /// Cell inputs fed by `net` as (cell, pin) pairs.
  const std::vector<std::pair<CellId, std::size_t>>& fanout(NetId net) const;

  const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
  const std::vector<NetId>& primary_outputs() const { return primary_outputs_; }

  /// All state elements (DFF cells), in insertion order.
  const std::vector<CellId>& flops() const { return flops_; }

  GateCountReport gate_count() const;

 private:
  std::string name_;
  std::vector<std::string> net_names_;
  std::vector<Cell> cells_;
  std::vector<CellId> net_driver_;  // kInvalidNet used as "no driver" marker
  std::vector<std::vector<std::pair<CellId, std::size_t>>> net_fanout_;
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
  std::vector<CellId> flops_;
};

}  // namespace emts::netlist
