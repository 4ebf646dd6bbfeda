#include "array/capture.hpp"

#include <span>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::array {

namespace {

// Per-sensor noise stream salt. Mixed so that no grid size can collide with
// the chip's own pickup salts (0x0c1 / 0xe72) or with another sensor.
std::uint64_t sensor_salt(std::size_t sensor) {
  return mix64(0xa77a1ULL + static_cast<std::uint64_t>(sensor));
}

// Measurement chain per micro-coil. It models an on-die differential
// readout: higher gain than the spiral front-end (the micro-coil emf is
// smaller) and a small ambient pickup (shielded, millimetre-scale loop).
sensor::MeasurementChain coil_chain() {
  sensor::NoiseSpec noise;
  noise.thermal_rms_v = 2.0e-6;
  noise.environment_rms_v = 115.0e-6;
  noise.environment_pickup = 0.05;
  return sensor::MeasurementChain{sensor::ChainSpec{200.0, 500e6, 1.0, 12}, noise};
}

}  // namespace

ArrayCapture::ArrayCapture(const SensorGrid& grid) : grid_{grid}, chain_{coil_chain()} {}

Bundle ArrayCapture::capture_bundle(const sim::Chip& chip, std::uint64_t trace_index,
                                    bool encrypting) const {
  // One physics evaluation feeds every coil, exactly like Chip::capture()
  // feeding both pickups: take the per-module current derivatives once,
  // then each sensor sums Faraday terms through its own sensitivity row.
  const sim::ModuleDerivatives didt = chip.current_derivatives(encrypting, trace_index);
  EMTS_REQUIRE(didt.size() == grid_.module_count(),
               "sensor grid floorplan does not match the chip's floorplan");

  const std::size_t modules = didt.size();
  const std::span<const double> sens{grid_.sensitivity().values()};  // sensors x modules

  Bundle bundle;
  bundle.sample_rate = chip.sample_rate();
  bundle.traces.reserve(grid_.sensor_count());
  for (std::size_t s = 0; s < grid_.sensor_count(); ++s) {
    std::vector<double> emf(chip.samples_per_trace());
    sim::faraday_emf(sens.subspan(s * modules, modules), didt, emf);
    Rng rng = chip.capture_rng(encrypting, trace_index, sensor_salt(s));
    bundle.traces.push_back(chain_.measure(std::move(emf), chip.sample_rate(), rng));
  }
  return bundle;
}

BundleSet ArrayCapture::capture_batch(const sim::CaptureEngine& engine, const sim::Chip& chip,
                                      std::size_t count, std::uint64_t first_index,
                                      bool encrypting) const {
  const std::size_t sensors = grid_.sensor_count();
  // Slot-indexed staging: worker w owns column w of every sensor's batch, so
  // the result is independent of scheduling order.
  std::vector<std::vector<core::Trace>> slots(sensors, std::vector<core::Trace>(count));
  engine.parallel_for(count, [&](std::size_t w) {
    Bundle b = capture_bundle(chip, first_index + static_cast<std::uint64_t>(w), encrypting);
    for (std::size_t s = 0; s < sensors; ++s) slots[s][w] = std::move(b.traces[s]);
  });

  BundleSet out;
  out.sample_rate = chip.sample_rate();
  out.per_sensor.resize(sensors);
  for (std::size_t s = 0; s < sensors; ++s) {
    out.per_sensor[s].sample_rate = chip.sample_rate();
    out.per_sensor[s].add_all(std::move(slots[s]));
  }
  return out;
}

}  // namespace emts::array
