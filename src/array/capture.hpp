// Array acquisition: one (seed, trace_index) realization observed by every
// grid coil at once. The physics of a window — the per-module current
// derivatives, read from the chip (see sim::Chip::current_derivatives) — is
// taken exactly once; each sensor then sees the same switching activity
// through its own row of the sensitivity matrix plus its own deterministic
// noise stream, so bundles are bit-reproducible across runs and thread
// counts (the CaptureEngine batch axis: N correlated traces per window
// instead of one).
#pragma once

#include <cstdint>
#include <vector>

#include "array/grid.hpp"
#include "core/trace.hpp"
#include "sensor/measurement.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"

namespace emts::array {

/// Every sensor's recording of one capture window.
struct Bundle {
  std::vector<core::Trace> traces;  // one per sensor, grid row-major order
  double sample_rate = 0.0;         // Hz

  std::size_t sensor_count() const { return traces.size(); }
};

/// A batch of bundles, transposed into one TraceSet per sensor — the shape
/// the per-sensor calibration and monitoring paths consume.
struct BundleSet {
  std::vector<core::TraceSet> per_sensor;
  double sample_rate = 0.0;

  std::size_t sensor_count() const { return per_sensor.size(); }
  std::size_t windows() const { return per_sensor.empty() ? 0 : per_sensor.front().size(); }
};

struct ArrayCaptureOptions {
  /// Measurement chain per micro-coil. The defaults model an on-die
  /// differential readout: higher gain than the spiral front-end (the
  /// micro-coil emf is smaller) and a small ambient pickup (shielded,
  /// millimetre-scale loop).
  sensor::ChainSpec chain{200.0, 500e6, 1.0, 12};
  sensor::NoiseSpec noise{};

  ArrayCaptureOptions() {
    noise.thermal_rms_v = 2.0e-6;
    noise.environment_rms_v = 115.0e-6;
    noise.environment_pickup = 0.05;
  }
};

class ArrayCapture {
 public:
  ArrayCapture(const SensorGrid& grid, const ArrayCaptureOptions& options = {});

  const SensorGrid& grid() const { return grid_; }
  const ArrayCaptureOptions& options() const { return options_; }

  /// Records one window on every sensor. Pure function of (chip config/seed,
  /// armed Trojan, encrypting, trace_index, sensor index): repeated calls —
  /// on any thread — return bit-identical bundles. The grid must be built on
  /// the same floorplan as the chip (module order is asserted).
  Bundle capture_bundle(const sim::Chip& chip, std::uint64_t trace_index,
                        bool encrypting = true) const;

  /// Records `count` windows at [first_index, first_index + count) across
  /// the engine's worker pool, one physics evaluation per window. Output is
  /// slot-ordered and bit-identical to the serial loop for any thread count.
  BundleSet capture_batch(const sim::CaptureEngine& engine, const sim::Chip& chip,
                          std::size_t count, std::uint64_t first_index,
                          bool encrypting = true) const;

 private:
  const SensorGrid& grid_;
  ArrayCaptureOptions options_;
  sensor::MeasurementChain chain_;
};

}  // namespace emts::array
