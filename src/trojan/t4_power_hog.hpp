// Trojan 4 — performance/power degradation (paper Sec. IV-A): "causes
// performance degradation of the circuit. It increases the power consumption
// by introducing more flipping registers after activation."
//
// Structure: a 1,380-flop toggle bank (every flop flips every cycle while
// armed) plus trigger decode — 2,793 cells total, matching T2 in Table I.
#pragma once

#include "trojan/trojan.hpp"

namespace emts::trojan {

class T4PowerHog final : public Trojan {
 public:
  T4PowerHog();

  TrojanKind kind() const override { return TrojanKind::kT4PowerHog; }
  std::string name() const override { return "T4 power-degradation register bank"; }
  const netlist::Netlist* gate_netlist() const override { return &netlist_; }
  double area_um2() const override;
  void contribute(const TraceContext& context, power::CurrentTrace& trace) const override;

  static constexpr std::size_t kBankWidth = 1380;

  netlist::NetId enable_net() const { return enable_; }

 private:
  netlist::Netlist netlist_;
  netlist::NetId enable_ = 0;
};

}  // namespace emts::trojan
