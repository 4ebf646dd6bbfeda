#include "baseline/ron.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"

namespace emts::baseline {

RonNetwork::RonNetwork(const RonSpec& spec, const layout::DieSpec& die) : spec_{spec} {
  EMTS_REQUIRE(spec.rows >= 1 && spec.cols >= 1, "RON needs at least one oscillator");
  EMTS_REQUIRE(spec.nominal_hz > 0.0 && spec.window_s > 0.0, "RON rates must be positive");
  EMTS_REQUIRE(spec.kernel_radius > 0.0, "kernel radius must be positive");
  for (std::size_t r = 0; r < spec.rows; ++r) {
    for (std::size_t c = 0; c < spec.cols; ++c) {
      positions_.push_back(layout::Vec3{
          die.core_width * (static_cast<double>(c) + 0.5) / static_cast<double>(spec.cols),
          die.core_height * (static_cast<double>(r) + 0.5) / static_cast<double>(spec.rows),
          die.cell_z});
    }
  }
}

RonReading RonNetwork::measure(sim::Chip& chip, bool encrypting, std::uint64_t trace_index,
                               Rng& rng) const {
  // Average current per module over the window — an RO integrates over many
  // thousands of cycles, so only the mean load matters (this is exactly why
  // RON misses burst- and tone-shaped signatures).
  const auto currents = chip.module_transients(encrypting, trace_index);
  const auto& modules = chip.floorplan().modules();
  EMTS_ASSERT(currents.size() == modules.size());

  std::vector<double> mean_current(currents.size(), 0.0);
  for (std::size_t m = 0; m < currents.size(); ++m) {
    double acc = 0.0;
    for (double v : currents[m].samples()) acc += v;
    mean_current[m] = acc / static_cast<double>(currents[m].samples().size());
  }

  RonReading reading;
  reading.reserve(positions_.size());
  for (const auto& pos : positions_) {
    // IR droop: module currents weighted by a 1/(1 + (d/r0)^2) kernel.
    double local_load = 0.0;
    for (std::size_t m = 0; m < modules.size(); ++m) {
      const double dx = modules[m].region.cx() - pos.x;
      const double dy = modules[m].region.cy() - pos.y;
      const double d2 = dx * dx + dy * dy;
      const double r0 = spec_.kernel_radius;
      local_load += mean_current[m] / (1.0 + d2 / (r0 * r0));
    }
    const double freq = spec_.nominal_hz - spec_.droop_hz_per_amp * local_load;
    const double cycles = freq * spec_.window_s + rng.gaussian(0.0, spec_.jitter_cycles);
    reading.push_back(std::floor(cycles));  // counter quantization
  }
  return reading;
}

RonDetector::RonDetector(std::vector<RonReading> golden, double sigma_threshold)
    : sigma_threshold_{sigma_threshold} {
  EMTS_REQUIRE(golden.size() >= 3, "RON calibration needs >= 3 readings");
  EMTS_REQUIRE(sigma_threshold > 0.0, "sigma threshold must be positive");
  const std::size_t n = golden.front().size();
  for (const RonReading& r : golden) {
    EMTS_REQUIRE(r.size() == n, "ragged RON readings");
  }

  mean_.assign(n, 0.0);
  stddev_.assign(n, 0.0);
  for (std::size_t o = 0; o < n; ++o) {
    std::vector<double> samples;
    samples.reserve(golden.size());
    for (const RonReading& r : golden) samples.push_back(r[o]);
    mean_[o] = stats::mean(samples);
    // Quantized counters can be constant across golden readings; floor the
    // std at one count so z-scores stay finite.
    stddev_[o] = std::max(stats::stddev(samples), 1.0);
  }
}

double RonDetector::max_z(const RonReading& reading) const {
  EMTS_REQUIRE(reading.size() == mean_.size(), "RON reading size mismatch");
  double best = 0.0;
  for (std::size_t o = 0; o < reading.size(); ++o) {
    best = std::max(best, std::abs(reading[o] - mean_[o]) / stddev_[o]);
  }
  return best;
}

bool RonDetector::is_anomalous(const RonReading& reading) const {
  return max_z(reading) > sigma_threshold_;
}

}  // namespace emts::baseline
