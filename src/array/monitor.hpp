// Array runtime monitor: one pre-fitted RuntimeMonitor session per coil, all
// fed from the same bundle stream (the array analogue of Fig. 1's deployment
// loop). Detection stays per sensor — any session's alarm is the array's
// alarm — while the monitor additionally accumulates each coil's residual
// energy above its golden baseline into the anomaly-energy vector the
// Localizer matches against the sensitivity matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "core/monitor.hpp"

namespace emts::array {

class ArrayMonitor {
 public:
  struct Options {
    /// Per-sensor session options; every session cold-starts monitoring
    /// from its fitted artifact.
    core::RuntimeMonitor::Options session{};
    /// Consecutive spectral-anomalous windowed passes on one coil that latch
    /// the array alarm. RuntimeMonitor's own debounce counts *pushes*, so a
    /// spectral-only offender (A2's triggering tone) that is quiet in the
    /// per-trace distance never accumulates a push run; the array layer
    /// debounces windowed passes instead, where such a Trojan is persistent.
    std::size_t spectral_debounce = 2;
    /// Minimum strongest-anomaly ratio for a windowed pass to count toward
    /// the spectral latch. At micro-coil SNR the golden stream occasionally
    /// reports a "new" spot whose amplitude merely *matches* calibration
    /// (ratio ~1 — a local-max flicker at the detection gate); a real
    /// injected tone amplifies the bin well past it. Measured margins on the
    /// default config: golden flickers <= ~1.1, A2's tone >= ~2.5 on the
    /// quietest coupled coil.
    double spectral_ratio_gate = 1.5;
  };

  /// Builds one pre-fitted session per coil from the calibration (which must
  /// match the grid's sensor count).
  ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration);
  ArrayMonitor(const SensorGrid& grid, const ArrayCalibration& calibration,
               const Options& options);

  const SensorGrid& grid() const { return grid_; }
  std::size_t sensor_count() const { return sessions_.size(); }

  /// Feeds one bundle: trace s goes to session s, in order, and each coil's
  /// residual energy against its golden mean joins the anomaly accumulator.
  /// Returns kAlarm if any session is alarmed, else kMonitoring.
  core::MonitorState push_bundle(const Bundle& bundle);

  /// Feeds a whole batch bundle-by-bundle (window order preserved).
  core::MonitorState push_bundles(const BundleSet& bundles);

  /// Any session latched in alarm, or any coil's spectral latch set (see
  /// Options::spectral_debounce).
  bool any_alarm() const;

  /// Whether sensor `sensor`'s spectral latch is set.
  bool spectral_alarmed(std::size_t sensor) const;

  /// Per-sensor session states, grid row-major.
  std::vector<core::MonitorState> states() const;

  const core::RuntimeMonitor& session(std::size_t sensor) const;
  core::RuntimeMonitor& session(std::size_t sensor);

  /// The localization observable: per sensor, sqrt(max(0, mean residual
  /// energy over the pushed bundles - golden baseline)) — linear in the
  /// Trojan's coupling into that coil (see array/calibration.hpp). Zero
  /// everywhere on a golden stream up to noise.
  std::vector<double> anomaly_energy() const;

 private:
  const SensorGrid& grid_;
  Options options_;
  std::vector<core::RuntimeMonitor> sessions_;
  std::vector<core::Trace> golden_means_;
  std::vector<double> baselines_;
  std::vector<double> residual_sums_;
  // Spectral persistence per coil: consecutive anomalous windowed passes and
  // the latched flag once the run reaches spectral_debounce.
  std::vector<std::size_t> spectral_runs_;
  std::vector<bool> spectral_latched_;
  std::size_t bundles_seen_ = 0;
};

}  // namespace emts::array
