#include "array/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace emts::array {

ArrayMonitor::ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration)
    : ArrayMonitor{grid, calibration, Options{}} {}

ArrayMonitor::ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration,
                           const Options& options)
    : grid_{grid}, options_{options} {
  EMTS_REQUIRE(calibration.sensor_count() == grid.sensor_count(),
               "ArrayMonitor: calibration sensor count does not match the grid");
  EMTS_REQUIRE(calibration.sample_rate > 0.0, "ArrayMonitor: calibration has no sample rate");
  EMTS_REQUIRE(options.spectral_debounce >= 1,
               "ArrayMonitor: spectral debounce must be >= 1");
  sessions_.reserve(calibration.sensor_count());
  golden_means_.reserve(calibration.sensor_count());
  baselines_.reserve(calibration.sensor_count());
  for (const SensorCalibration& sensor : calibration.sensors) {
    sessions_.emplace_back(calibration.sample_rate, sensor.evaluator, options.session);
    golden_means_.push_back(sensor.golden_mean);
    baselines_.push_back(sensor.baseline_residual);
  }
  residual_sums_.assign(sessions_.size(), 0.0);
  spectral_runs_.assign(sessions_.size(), 0);
  spectral_latched_.assign(sessions_.size(), false);
}

core::MonitorState ArrayMonitor::push_bundle(const Bundle& bundle) {
  EMTS_REQUIRE(bundle.sensor_count() == sessions_.size(),
               "ArrayMonitor: bundle sensor count does not match the grid");
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const std::uint64_t passes_before = sessions_[s].stats().spectral_passes;
    sessions_[s].push(bundle.traces[s]);
    residual_sums_[s] += residual_energy(bundle.traces[s], golden_means_[s]);
    if (sessions_[s].stats().spectral_passes > passes_before) {
      const auto& spectral = sessions_[s].last_spectral();
      // anomalies are sorted strongest first, so front() carries the gate.
      const bool anomalous = spectral.has_value() && spectral->anomalous() &&
                             spectral->anomalies.front().ratio >= options_.spectral_ratio_gate;
      spectral_runs_[s] = anomalous ? spectral_runs_[s] + 1 : 0;
      if (spectral_runs_[s] >= options_.spectral_debounce) spectral_latched_[s] = true;
    }
  }
  ++bundles_seen_;
  return any_alarm() ? core::MonitorState::kAlarm : core::MonitorState::kMonitoring;
}

core::MonitorState ArrayMonitor::push_bundles(const BundleSet& bundles) {
  core::MonitorState state =
      any_alarm() ? core::MonitorState::kAlarm : core::MonitorState::kMonitoring;
  for (std::size_t w = 0; w < bundles.windows(); ++w) state = push_bundle(bundles.bundle(w));
  return state;
}

bool ArrayMonitor::any_alarm() const {
  if (std::any_of(spectral_latched_.begin(), spectral_latched_.end(),
                  [](bool latched) { return latched; })) {
    return true;
  }
  return std::any_of(sessions_.begin(), sessions_.end(), [](const core::RuntimeMonitor& m) {
    return m.state() == core::MonitorState::kAlarm;
  });
}

bool ArrayMonitor::spectral_alarmed(std::size_t sensor) const {
  EMTS_ASSERT(sensor < spectral_latched_.size());
  return spectral_latched_[sensor];
}

std::vector<core::MonitorState> ArrayMonitor::states() const {
  std::vector<core::MonitorState> states;
  states.reserve(sessions_.size());
  for (const core::RuntimeMonitor& m : sessions_) states.push_back(m.state());
  return states;
}

const core::RuntimeMonitor& ArrayMonitor::session(std::size_t sensor) const {
  EMTS_ASSERT(sensor < sessions_.size());
  return sessions_[sensor];
}

core::RuntimeMonitor& ArrayMonitor::session(std::size_t sensor) {
  EMTS_ASSERT(sensor < sessions_.size());
  return sessions_[sensor];
}

std::vector<double> ArrayMonitor::anomaly_energy() const {
  std::vector<double> anomaly(sessions_.size(), 0.0);
  if (bundles_seen_ == 0) return anomaly;
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const double mean_residual = residual_sums_[s] / static_cast<double>(bundles_seen_);
    anomaly[s] = std::sqrt(std::max(0.0, mean_residual - baselines_[s]));
  }
  return anomaly;
}

}  // namespace emts::array
