#include "array/artifact.hpp"

#include <cmath>

#include "io/calibration.hpp"
#include "io/file_writer.hpp"
#include "io/mapped_file.hpp"
#include "util/assert.hpp"

namespace emts::array {

namespace {

constexpr char kMagic[4] = {'E', 'M', 'A', 'A'};
constexpr std::uint32_t kVersion = 1;
// An array larger than this is a corrupt header, not a plausible die.
constexpr std::uint32_t kMaxAxis = 4096;

}  // namespace

void save_array_calibration(util::ByteWriter& out, const ArrayCalibration& calibration) {
  const GridSpec& grid = calibration.grid;
  EMTS_REQUIRE(calibration.sensor_count() == grid.nx * grid.ny,
               "save_array_calibration: sensor count does not match the grid");
  out.magic(kMagic);
  out.u32(kVersion);
  out.u32(static_cast<std::uint32_t>(grid.nx));
  out.u32(static_cast<std::uint32_t>(grid.ny));
  out.f64(grid.coil_radius);
  out.u32(static_cast<std::uint32_t>(grid.turns));
  out.f64(grid.z_clearance);
  out.f64(calibration.sample_rate);
  out.u32(static_cast<std::uint32_t>(calibration.sensor_count()));
  for (const SensorCalibration& sensor : calibration.sensors) {
    out.f64_vec(sensor.golden_mean);
    out.f64(sensor.baseline_residual);
    io::save_calibration(out, sensor.evaluator);
  }
}

void save_array_calibration(const std::string& path, const ArrayCalibration& calibration) {
  std::string bytes;
  util::encode_exact(bytes,
                     [&](util::ByteWriter& out) { save_array_calibration(out, calibration); });
  io::FileWriter file{path, "save_array_calibration"};
  file.write(bytes);
  file.close();
}

ArrayCalibration load_array_calibration(util::ByteReader& in) {
  in.expect_magic(kMagic, "load_array_calibration");
  const std::uint32_t version = in.u32();
  EMTS_REQUIRE(version == kVersion, "load_array_calibration: unsupported version");

  ArrayCalibration calibration;
  const std::uint32_t nx = in.u32();
  const std::uint32_t ny = in.u32();
  EMTS_REQUIRE(nx >= 2 && nx <= kMaxAxis && ny >= 2 && ny <= kMaxAxis,
               "load_array_calibration: implausible grid shape");
  calibration.grid.nx = nx;
  calibration.grid.ny = ny;
  calibration.grid.coil_radius = in.f64();
  EMTS_REQUIRE(std::isfinite(calibration.grid.coil_radius) && calibration.grid.coil_radius >= 0.0,
               "load_array_calibration: bad coil radius");
  calibration.grid.turns = in.u32();
  EMTS_REQUIRE(calibration.grid.turns >= 1, "load_array_calibration: bad turn count");
  calibration.grid.z_clearance = in.f64();
  EMTS_REQUIRE(std::isfinite(calibration.grid.z_clearance) && calibration.grid.z_clearance >= 0.0,
               "load_array_calibration: bad z clearance");
  calibration.sample_rate = in.f64();
  EMTS_REQUIRE(std::isfinite(calibration.sample_rate) && calibration.sample_rate > 0.0,
               "load_array_calibration: bad sample rate");

  const std::uint32_t count = in.u32();
  EMTS_REQUIRE(count == nx * ny,
               "load_array_calibration: sensor count does not match the grid shape");
  // No reserve: the count is only as good as the bytes behind it, so the
  // vector grows with the sensors that decode.
  for (std::uint32_t s = 0; s < count; ++s) {
    core::Trace golden_mean = in.f64_vec();
    EMTS_REQUIRE(!golden_mean.empty(), "load_array_calibration: empty golden mean trace");
    const double baseline = in.f64();
    EMTS_REQUIRE(std::isfinite(baseline) && baseline >= 0.0,
                 "load_array_calibration: bad baseline residual");
    // The embedded EMCA is self-delimiting: its loader consumes exactly one
    // artifact and leaves the reader at the next sensor's golden mean.
    core::TrustEvaluator evaluator = io::load_calibration(in);
    calibration.sensors.push_back(
        SensorCalibration{std::move(evaluator), std::move(golden_mean), baseline});
  }
  return calibration;
}

ArrayCalibration load_array_calibration(const std::string& path) {
  const io::MappedFile file{path, "load_array_calibration"};
  util::ByteReader in{file.bytes()};
  ArrayCalibration calibration = load_array_calibration(in);
  in.expect_end("load_array_calibration: " + path);
  return calibration;
}

}  // namespace emts::array
