#include "array/grid.hpp"

#include <algorithm>
#include <cmath>

#include "em/coil.hpp"
#include "em/mutual.hpp"
#include "layout/power_grid.hpp"
#include "util/assert.hpp"

namespace emts::array {

SensitivityMatrix::SensitivityMatrix(std::size_t sensors, std::size_t modules)
    : sensors_{sensors}, modules_{modules}, values_(sensors * modules, 0.0) {}

double SensitivityMatrix::at(std::size_t sensor, std::size_t module) const {
  EMTS_ASSERT(sensor < sensors_ && module < modules_);
  return values_[sensor * modules_ + module];
}

double& SensitivityMatrix::at(std::size_t sensor, std::size_t module) {
  EMTS_ASSERT(sensor < sensors_ && module < modules_);
  return values_[sensor * modules_ + module];
}

std::vector<double> SensitivityMatrix::column_magnitudes(std::size_t module) const {
  EMTS_ASSERT(module < modules_);
  std::vector<double> column(sensors_, 0.0);
  for (std::size_t s = 0; s < sensors_; ++s) column[s] = std::abs(at(s, module));
  return column;
}

SensorGrid::SensorGrid(const layout::Floorplan& floorplan, const GridSpec& spec)
    : spec_{spec} {
  EMTS_REQUIRE(spec.nx >= 2 && spec.ny >= 2, "sensor grid needs at least 2x2 coils");
  EMTS_REQUIRE(spec.turns >= 1, "sensor grid coils need at least one turn");
  EMTS_REQUIRE(spec.z_clearance >= 0.0, "sensor grid z clearance must be >= 0");

  const layout::DieSpec& die = floorplan.spec();
  core_width_ = die.core_width;
  core_height_ = die.core_height;
  coil_z_ = die.sensor_z + spec.z_clearance;

  const double px = pitch_x();
  const double py = pitch_y();
  coil_radius_ = spec.coil_radius > 0.0 ? spec.coil_radius : 0.4 * std::min(px, py);
  EMTS_REQUIRE(coil_radius_ > 0.0, "sensor grid coil radius must be positive");
  EMTS_REQUIRE(2.0 * coil_radius_ <= std::min(px, py) + 1e-12,
               "sensor grid coils overlap: radius exceeds half the cell pitch");

  sites_.reserve(spec.nx * spec.ny);
  for (std::size_t iy = 0; iy < spec.ny; ++iy) {
    for (std::size_t ix = 0; ix < spec.nx; ++ix) {
      SensorSite site;
      site.ix = ix;
      site.iy = iy;
      site.x = px * (static_cast<double>(ix) + 0.5);
      site.y = py * (static_cast<double>(iy) + 0.5);
      sites_.push_back(site);
    }
  }

  // Couplings: the flux of each module's unit-current supply loop through
  // each coil's disk surface, scaled by the stacked turn count (the same
  // accumulated-area argument the paper makes for the spiral, Sec. III-C).
  const auto pads = layout::PadRing::for_die(die);
  const auto loops = layout::supply_loops(floorplan, pads);
  modules_.reserve(loops.size());
  for (const auto& loop : loops) {
    const layout::PlacedModule& placed = floorplan.module(loop.module_name);
    modules_.push_back(ModuleRef{loop.module_name, placed.region.cx(), placed.region.cy()});
  }

  sensitivity_ = SensitivityMatrix{sites_.size(), loops.size()};
  const em::FluxOptions flux_options{coil_radius_ / 2.0};
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const em::TurnSurface disk{em::TurnSurface::Shape::kDisk, coil_z_, sites_[s].x,
                               sites_[s].y, coil_radius_, 0.0};
    for (std::size_t m = 0; m < loops.size(); ++m) {
      sensitivity_.at(s, m) = static_cast<double>(spec.turns) *
                              em::flux_through_surface(loops[m].segments, 1.0, disk,
                                                       flux_options);
    }
  }
}

const SensorSite& SensorGrid::site(std::size_t sensor) const {
  EMTS_ASSERT(sensor < sites_.size());
  return sites_[sensor];
}

std::size_t SensorGrid::module_index(const std::string& name) const {
  for (std::size_t m = 0; m < modules_.size(); ++m) {
    if (modules_[m].name == name) return m;
  }
  throw precondition_error("sensor grid knows no module named " + name);
}

double SensorGrid::pitch_x() const {
  return core_width_ / static_cast<double>(spec_.nx);
}

double SensorGrid::pitch_y() const {
  return core_height_ / static_cast<double>(spec_.ny);
}

SensorSite SensorGrid::nearest_site(double x, double y) const {
  EMTS_ASSERT(!sites_.empty());
  std::size_t best = 0;
  double best_d2 = -1.0;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const double dx = sites_[s].x - x;
    const double dy = sites_[s].y - y;
    const double d2 = dx * dx + dy * dy;
    if (best_d2 < 0.0 || d2 < best_d2) {
      best_d2 = d2;
      best = s;
    }
  }
  return sites_[best];
}

}  // namespace emts::array
