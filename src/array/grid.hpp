// Sensor-array grid: N x M parametric pickup micro-coils tiled over the die,
// the array extension of the paper's single spiral (PAPERS.md: "Programmable
// EM Sensor Array for Golden-Model Free Run-time Trojan Detection and
// Localization", arXiv 2401.12193). Each grid cell hosts a small multi-turn
// coil on the sensor metal layer; the coupling of every floorplan module's
// supply loop into every coil is precomputed once into a SensitivityMatrix —
// the geometric fingerprint that later turns a per-sensor anomaly vector
// into a named floorplan region (array::Localizer).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "layout/floorplan.hpp"

namespace emts::array {

struct GridSpec {
  std::size_t nx = 4;
  std::size_t ny = 4;
  /// Pickup radius of each micro-coil (m). 0 = auto: 40% of the smaller
  /// cell pitch, so neighbouring coils never overlap.
  double coil_radius = 0.0;
  /// Stacked turns per micro-coil; the flux (and hence every coupling)
  /// scales linearly with it, exactly like the spiral's accumulated area.
  std::size_t turns = 8;
  /// Height of the coil plane above the sensor metal layer (m).
  double z_clearance = 2e-6;
};

/// One grid site: cell indices plus the coil centre in die coordinates.
struct SensorSite {
  std::size_t ix = 0;
  std::size_t iy = 0;
  double x = 0.0;  // m
  double y = 0.0;  // m
};

/// One floorplan module as the array sees it: name + placement centre.
struct ModuleRef {
  std::string name;
  double cx = 0.0;  // m
  double cy = 0.0;  // m
};

/// Couplings (henries) of every module supply loop into every grid coil.
/// Row s = sensor, column m = module (floorplan order). Values are signed;
/// localization correlates against magnitudes.
class SensitivityMatrix {
 public:
  SensitivityMatrix() = default;
  SensitivityMatrix(std::size_t sensors, std::size_t modules);

  std::size_t sensors() const { return sensors_; }
  std::size_t modules() const { return modules_; }

  double at(std::size_t sensor, std::size_t module) const;
  double& at(std::size_t sensor, std::size_t module);

  /// One module's |coupling| pattern over the whole array — the template the
  /// localizer matches anomaly vectors against.
  std::vector<double> column_magnitudes(std::size_t module) const;

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

 private:
  std::size_t sensors_ = 0;
  std::size_t modules_ = 0;
  std::vector<double> values_;  // row-major, sensors x modules
};

/// The instantiated array: sites, module references, and the precomputed
/// sensitivity matrix. Pure geometry — no randomness, bit-reproducible.
class SensorGrid {
 public:
  /// Tiles `spec` over the floorplan core and solves the coupling of every
  /// module supply loop into every coil (em::flux_through_surface over a
  /// disk turn surface, times the turn count).
  SensorGrid(const layout::Floorplan& floorplan, const GridSpec& spec);

  const GridSpec& spec() const { return spec_; }
  std::size_t nx() const { return spec_.nx; }
  std::size_t ny() const { return spec_.ny; }
  std::size_t sensor_count() const { return sites_.size(); }
  std::size_t module_count() const { return modules_.size(); }

  const std::vector<SensorSite>& sites() const { return sites_; }
  const SensorSite& site(std::size_t sensor) const;

  const std::vector<ModuleRef>& modules() const { return modules_; }
  /// Index of a module by floorplan name; throws precondition_error if absent.
  std::size_t module_index(const std::string& name) const;

  const SensitivityMatrix& sensitivity() const { return sensitivity_; }

  /// Grid pitch (m) along each axis.
  double pitch_x() const;
  double pitch_y() const;
  /// Resolved pickup radius (m) after the auto rule.
  double coil_radius() const { return coil_radius_; }

  /// Grid cell whose centre is nearest to (x, y).
  SensorSite nearest_site(double x, double y) const;

 private:
  GridSpec spec_;
  double core_width_ = 0.0;
  double core_height_ = 0.0;
  double coil_z_ = 0.0;
  double coil_radius_ = 0.0;
  std::vector<SensorSite> sites_;
  std::vector<ModuleRef> modules_;
  SensitivityMatrix sensitivity_;
};

}  // namespace emts::array
