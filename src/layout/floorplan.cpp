#include "layout/floorplan.hpp"

#include "util/assert.hpp"

namespace emts::layout {

Floorplan::Floorplan(const DieSpec& spec) : spec_{spec} {
  EMTS_REQUIRE(spec.core_width > 0.0 && spec.core_height > 0.0, "die core must be non-empty");
  EMTS_REQUIRE(spec.cell_z < spec.grid_z && spec.grid_z < spec.sensor_z,
               "metal stack must order cell < grid < sensor");
  EMTS_REQUIRE(spec.min_wire_width > 0.0, "min wire width must be positive");
}

void Floorplan::place(std::string name, const Rect& region, double area_um2) {
  EMTS_REQUIRE(region.width() > 0.0 && region.height() > 0.0, "module region must be non-empty");
  const Rect c = core();
  EMTS_REQUIRE(region.x0 >= c.x0 && region.y0 >= c.y0 && region.x1 <= c.x1 && region.y1 <= c.y1,
               "module region must lie inside the core");
  for (const PlacedModule& m : modules_) {
    EMTS_REQUIRE(!m.region.overlaps(region), "module region overlaps " + m.name);
    EMTS_REQUIRE(m.name != name, "duplicate module name " + name);
  }
  modules_.push_back(PlacedModule{std::move(name), region, area_um2});
}

const PlacedModule& Floorplan::module(const std::string& name) const {
  for (const PlacedModule& m : modules_) {
    if (m.name == name) return m;
  }
  throw precondition_error("no module named " + name);
}

bool Floorplan::has_module(const std::string& name) const {
  for (const PlacedModule& m : modules_) {
    if (m.name == name) return true;
  }
  return false;
}

Floorplan reference_floorplan(const DieSpec& spec) {
  Floorplan fp{spec};
  const double w = spec.core_width;
  const double h = spec.core_height;

  // AES occupies the left 72% of the core, split into its six units roughly
  // in proportion to their synthesized area (S-box array dominating).
  const double aes_w = 0.72 * w;
  namespace mn = module_names;
  // S-box array: big central block.
  fp.place(mn::kAesSbox, Rect{0.02 * w, 0.25 * h, aes_w, 0.95 * h}, 371520.0);
  // Key schedule below it.
  fp.place(mn::kAesKeySchedule, Rect{0.02 * w, 0.02 * h, 0.45 * aes_w, 0.23 * h}, 95904.0);
  // State + key registers in the lower middle strip.
  fp.place(mn::kAesState, Rect{0.46 * aes_w, 0.02 * h, 0.62 * aes_w, 0.23 * h}, 6912.0);
  fp.place(mn::kAesKeyRegs, Rect{0.63 * aes_w, 0.02 * h, 0.78 * aes_w, 0.23 * h}, 4608.0);
  // MixColumns and control complete the strip.
  fp.place(mn::kAesMixColumns, Rect{0.79 * aes_w, 0.02 * h, 0.92 * aes_w, 0.23 * h}, 13248.0);
  fp.place(mn::kAesControl, Rect{0.93 * aes_w, 0.02 * h, aes_w, 0.23 * h}, 101178.0);

  // Four digital Trojans stack along the right edge (Fig. 3), A2 above them.
  const double tx0 = aes_w + 0.03 * w;
  const double tx1 = 0.98 * w;
  fp.place(mn::kTrojanA2, Rect{tx0, 0.74 * h, tx1, 0.80 * h}, 518.0);
  fp.place(mn::kTrojan1, Rect{tx0, 0.56 * h, tx1, 0.70 * h}, 29826.0);
  fp.place(mn::kTrojan2, Rect{tx0, 0.40 * h, tx1, 0.54 * h}, 50274.0);
  fp.place(mn::kTrojan3, Rect{tx0, 0.30 * h, tx1, 0.38 * h}, 4500.0);
  fp.place(mn::kTrojan4, Rect{tx0, 0.14 * h, tx1, 0.28 * h}, 50274.0);

  return fp;
}

}  // namespace emts::layout
