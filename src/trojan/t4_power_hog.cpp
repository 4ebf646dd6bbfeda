#include "trojan/t4_power_hog.hpp"

#include "netlist/builders.hpp"
#include "trojan/detail.hpp"
#include "util/assert.hpp"

namespace emts::trojan {

namespace {

constexpr std::size_t kTableOneCells = 2793;  // Table I (same as T2)
// The bank's flops are minimum-drive cells with no load beyond their own
// feedback XOR, so the per-flip charge is well below the AES datapath's
// heavily loaded registers.
constexpr double kBankChargePerCycleFc = 38500.0;
constexpr double kDormantChargeFc = 10.0;

}  // namespace

T4PowerHog::T4PowerHog() : netlist_{"t4_power_hog"} {
  using namespace netlist;
  Netlist& nl = netlist_;

  enable_ = nl.add_net("arm");
  nl.mark_primary_input(enable_);

  const auto bank = build_toggle_bank(nl, kBankWidth, enable_);
  nl.mark_primary_output(bank.q.front());

  detail::pad_with_driver_chain(nl, bank.q.back(), kTableOneCells);
  EMTS_ASSERT(nl.cell_count() == kTableOneCells);
}

double T4PowerHog::area_um2() const { return netlist_.gate_count().area_um2; }

void T4PowerHog::contribute(const TraceContext& context, power::CurrentTrace& trace) const {
  if (!active()) {
    for (std::size_t c = 0; c < context.num_cycles; ++c) {
      trace.add_pulse({c, 1.0, 150.0, 400.0}, kDormantChargeFc);
    }
    return;
  }

  // Every armed cycle the whole bank flips right after the clock edge — a
  // clock-synchronous amplitude increase, which is why T4's spectral
  // signature lifts the clock spots themselves (Fig. 6(l)).
  for (std::size_t c = 0; c < context.num_cycles; ++c) {
    trace.add_pulse({c, 1.0, 200.0, 1200.0}, kBankChargePerCycleFc);
  }
}

}  // namespace emts::trojan
