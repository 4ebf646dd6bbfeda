// Ring-oscillator network (RON) baseline — the on-chip Trojan-detection
// structure the paper positions itself against (its ref. [10], Zhang &
// Tehranipoor, DATE 2011; discussed in Sec. I: such structures "share a
// common problem of low coverage rates").
//
// Mechanism: ring oscillators scattered over the die oscillate at a
// frequency set by their local supply voltage. A Trojan's extra current
// drops the local rail (IR drop), slowing nearby ROs; counting RO cycles
// per measurement window and comparing against golden counts flags the
// shift. Coverage is limited by (a) the 1/d spatial falloff of IR drop
// around each RO, (b) counter quantization, and (c) sensitivity to
// *average* current only — signatures that barely move the mean (T1's
// sparse carrier bursts, A2's tiny oscillation) are invisible.
//
// The model computes each RO's average voltage droop from the per-module
// mean currents and a distance kernel over the floorplan, then quantizes
// to a cycle count — faithful to how a real RON reads out. The same z-test
// over EM trace features is the evaluator's "ron" stage (core/ron.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/chip.hpp"

namespace emts::baseline {

struct RonSpec {
  std::size_t rows = 4;            // RO grid over the core
  std::size_t cols = 4;
  double nominal_hz = 420e6;       // free-running RO frequency
  double droop_hz_per_amp = 6e9;   // frequency pushdown per ampere of local load
  double kernel_radius = 0.5e-3;   // IR-drop spatial falloff scale, m
  double window_s = 50e-6;         // count window (RON papers use ~us-ms)
  double jitter_cycles = 3.0;      // counter noise (period jitter accumulation)
};

/// One measurement: cycle counts of every RO over the window.
using RonReading = std::vector<double>;

class RonNetwork {
 public:
  RonNetwork(const RonSpec& spec, const layout::DieSpec& die);

  std::size_t oscillator_count() const { return positions_.size(); }
  const std::vector<layout::Vec3>& positions() const { return positions_; }

  /// Takes one reading from the chip: average module currents over a capture
  /// window -> local droop per RO -> quantized cycle counts (plus jitter).
  RonReading measure(sim::Chip& chip, bool encrypting, std::uint64_t trace_index,
                     Rng& rng) const;

  const RonSpec& spec() const { return spec_; }

 private:
  RonSpec spec_;
  std::vector<layout::Vec3> positions_;
};

/// Golden-calibrated detector over RON readings: per-RO mean/std from golden
/// readings; a suspect reading is anomalous when any RO deviates more than
/// `sigma_threshold` standard deviations (the classic RON statistical test).
class RonDetector {
 public:
  RonDetector(std::vector<RonReading> golden, double sigma_threshold = 4.0);

  /// Largest |z| over the network for this reading.
  double max_z(const RonReading& reading) const;

  bool is_anomalous(const RonReading& reading) const;

  double threshold() const { return sigma_threshold_; }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
  double sigma_threshold_;
};

}  // namespace emts::baseline
