#include "array/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/artifact.hpp"
#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "temp_path.hpp"

namespace emts::array {
namespace {

// Shared world for the expensive paths: one golden chip, the default 4x4
// grid, and one 64-window calibration — fitted once for the whole suite
// (the deployment shape: calibrate once, monitor many).
struct ArrayWorld {
  sim::Chip chip{sim::make_default_config()};
  SensorGrid grid{chip.floorplan(), GridSpec{}};
  ArrayCapture capture{grid};
  ArrayCalibration calibration;
};

const ArrayWorld& world() {
  static const ArrayWorld* w = [] {
    auto* built = new ArrayWorld;
    built->calibration =
        calibrate_array(built->capture, sim::CaptureEngine::shared(), built->chip);
    return built;
  }();
  return *w;
}

// A fresh chip sharing the world's floorplan/config, with one Trojan armed.
sim::Chip armed_chip(trojan::TrojanKind kind) {
  sim::Chip chip{sim::make_default_config()};
  chip.arm(kind);
  return chip;
}

TEST(SensorGrid, ShapeAndGeometry) {
  const ArrayWorld& w = world();
  EXPECT_EQ(w.grid.nx(), 4u);
  EXPECT_EQ(w.grid.ny(), 4u);
  EXPECT_EQ(w.grid.sensor_count(), 16u);
  EXPECT_EQ(w.grid.modules().size(), w.grid.module_count());
  EXPECT_EQ(w.grid.sensitivity().sensors(), w.grid.sensor_count());
  EXPECT_EQ(w.grid.sensitivity().modules(), w.grid.module_count());
  // Sites tile the core row-major: site(iy * nx + ix) carries those indices.
  for (std::size_t s = 0; s < w.grid.sensor_count(); ++s) {
    const SensorSite& site = w.grid.site(s);
    EXPECT_EQ(site.iy * w.grid.nx() + site.ix, s);
    EXPECT_EQ(w.grid.nearest_site(site.x, site.y).ix, site.ix);
    EXPECT_EQ(w.grid.nearest_site(site.x, site.y).iy, site.iy);
  }
  EXPECT_THROW(w.grid.module_index("no/such/module"), precondition_error);
  // Coils must not overlap: the auto radius stays under half the pitch.
  EXPECT_LT(2.0 * w.grid.coil_radius(), std::min(w.grid.pitch_x(), w.grid.pitch_y()) + 1e-12);
}

TEST(SensorGrid, RejectsDegenerateSpecs) {
  const ArrayWorld& w = world();
  GridSpec one_by_n;
  one_by_n.nx = 1;
  EXPECT_THROW(SensorGrid(w.chip.floorplan(), one_by_n), precondition_error);
  GridSpec no_turns;
  no_turns.turns = 0;
  EXPECT_THROW(SensorGrid(w.chip.floorplan(), no_turns), precondition_error);
}

TEST(SensorGrid, SensitivityDecaysLaterallyWithDistance) {
  // Supply loops are extended conductors, so per-coil magnitudes are not
  // strictly monotone in distance to the module *centre* — but the aggregate
  // trend must hold: for every module, the nearest third of the coils couples
  // more strongly on average than the farthest third.
  const ArrayWorld& w = world();
  for (std::size_t m = 0; m < w.grid.module_count(); ++m) {
    const ModuleRef& module = w.grid.modules()[m];
    std::vector<std::pair<double, double>> by_distance;  // (distance, |M|)
    for (std::size_t s = 0; s < w.grid.sensor_count(); ++s) {
      const SensorSite& site = w.grid.site(s);
      by_distance.emplace_back(std::hypot(site.x - module.cx, site.y - module.cy),
                               std::abs(w.grid.sensitivity().at(s, m)));
    }
    std::sort(by_distance.begin(), by_distance.end());
    const std::size_t third = by_distance.size() / 3;
    double near_sum = 0.0;
    double far_sum = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      near_sum += by_distance[i].second;
      far_sum += by_distance[by_distance.size() - 1 - i].second;
    }
    EXPECT_GT(near_sum, far_sum) << "module " << module.name;
  }
}

TEST(SensorGrid, SensitivityDecaysMonotonicallyWithHeight) {
  // Lifting the whole coil plane away from the die weakens every module's
  // total coupling strictly — the clean monotone-decay axis.
  const ArrayWorld& w = world();
  const double heights[] = {2e-6, 8e-6, 32e-6, 128e-6};
  std::vector<double> previous;
  for (const double z : heights) {
    GridSpec spec;
    spec.z_clearance = z;
    const SensorGrid grid{w.chip.floorplan(), spec};
    std::vector<double> norms(grid.module_count(), 0.0);
    for (std::size_t m = 0; m < grid.module_count(); ++m) {
      double sum = 0.0;
      for (std::size_t s = 0; s < grid.sensor_count(); ++s) {
        const double v = grid.sensitivity().at(s, m);
        sum += v * v;
      }
      norms[m] = std::sqrt(sum);
    }
    if (!previous.empty()) {
      for (std::size_t m = 0; m < norms.size(); ++m) {
        EXPECT_LT(norms[m], previous[m]) << "z = " << z << ", module " << m;
      }
    }
    previous = std::move(norms);
  }
}

TEST(ArrayCapture, BundlesBitIdenticalAcrossRunsAndThreadCounts) {
  const ArrayWorld& w = world();
  sim::EngineOptions serial;
  serial.threads = 1;
  sim::EngineOptions parallel;
  parallel.threads = 4;
  const sim::CaptureEngine engine1{serial};
  const sim::CaptureEngine engine4{parallel};

  const BundleSet a = w.capture.capture_batch(engine1, w.chip, 6, 777);
  const BundleSet b = w.capture.capture_batch(engine4, w.chip, 6, 777);
  const BundleSet c = w.capture.capture_batch(engine4, w.chip, 6, 777);
  ASSERT_EQ(a.sensor_count(), b.sensor_count());
  for (std::size_t s = 0; s < a.sensor_count(); ++s) {
    for (std::size_t t = 0; t < a.windows(); ++t) {
      EXPECT_EQ(a.per_sensor[s].traces[t], b.per_sensor[s].traces[t]);
      EXPECT_EQ(b.per_sensor[s].traces[t], c.per_sensor[s].traces[t]);
    }
  }

  // The single-window path agrees with the batch at the same index.
  const Bundle single = w.capture.capture_bundle(w.chip, 779);
  for (std::size_t s = 0; s < single.sensor_count(); ++s) {
    EXPECT_EQ(single.traces[s], a.per_sensor[s].traces[2]);
  }

  // Different windows and different sensors see different noise streams.
  EXPECT_NE(a.per_sensor[0].traces[0], a.per_sensor[0].traces[1]);
  EXPECT_NE(a.per_sensor[0].traces[0], a.per_sensor[1].traces[0]);
}

TEST(ArrayCalibration, RefusesArmedChip) {
  const ArrayWorld& w = world();
  const sim::Chip infected = armed_chip(trojan::TrojanKind::kT4PowerHog);
  EXPECT_THROW(calibrate_array(w.capture, sim::CaptureEngine::shared(), infected),
               precondition_error);
}

TEST(ArrayArtifact, EmaaRoundTripsBitIdentically) {
  const ArrayWorld& w = world();
  const std::string path = temp_path("emts_array_test", ".emaa");
  save_array_calibration(path, w.calibration);
  const ArrayCalibration loaded = load_array_calibration(path);

  EXPECT_EQ(loaded.grid.nx, w.calibration.grid.nx);
  EXPECT_EQ(loaded.grid.ny, w.calibration.grid.ny);
  EXPECT_EQ(loaded.grid.turns, w.calibration.grid.turns);
  EXPECT_EQ(loaded.grid.coil_radius, w.calibration.grid.coil_radius);
  EXPECT_EQ(loaded.grid.z_clearance, w.calibration.grid.z_clearance);
  EXPECT_EQ(loaded.sample_rate, w.calibration.sample_rate);
  ASSERT_EQ(loaded.sensor_count(), w.calibration.sensor_count());
  for (std::size_t s = 0; s < loaded.sensor_count(); ++s) {
    EXPECT_EQ(loaded.sensors[s].golden_mean, w.calibration.sensors[s].golden_mean);
    EXPECT_EQ(loaded.sensors[s].baseline_residual, w.calibration.sensors[s].baseline_residual);
    EXPECT_EQ(loaded.sensors[s].evaluator.detectors().size(),
              w.calibration.sensors[s].evaluator.detectors().size());
  }

  // A loaded calibration drives a monitor exactly like the in-memory one.
  ArrayMonitor original{w.grid, w.calibration};
  ArrayMonitor reloaded{w.grid, loaded};
  const BundleSet probe = w.capture.capture_batch(sim::CaptureEngine::shared(), w.chip, 4, 5000);
  original.push_bundles(probe);
  reloaded.push_bundles(probe);
  EXPECT_EQ(original.anomaly_energy(), reloaded.anomaly_energy());

  // Corrupt magic must be refused.
  {
    std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
    file.seekp(0);
    file.put('X');
  }
  EXPECT_THROW(load_array_calibration(path), precondition_error);
  std::filesystem::remove(path);
}

TEST(ArrayMonitor, GoldenStreamNeverAlarmsOver64Windows) {
  const ArrayWorld& w = world();
  ArrayMonitor monitor{w.grid, w.calibration};
  const BundleSet golden =
      w.capture.capture_batch(sim::CaptureEngine::shared(), w.chip, 64, 20000);
  const core::MonitorState state = monitor.push_bundles(golden);
  EXPECT_EQ(state, core::MonitorState::kMonitoring);
  EXPECT_FALSE(monitor.any_alarm());
  for (std::size_t s = 0; s < monitor.sensor_count(); ++s) {
    EXPECT_NE(monitor.session(s).state(), core::MonitorState::kAlarm) << "coil " << s;
    EXPECT_FALSE(monitor.spectral_alarmed(s)) << "coil " << s;
  }
}

TEST(ArrayMonitor, RejectsMismatchedCalibration) {
  const ArrayWorld& w = world();
  GridSpec small;
  small.nx = 2;
  small.ny = 2;
  const SensorGrid other{w.chip.floorplan(), small};
  EXPECT_THROW(ArrayMonitor(other, w.calibration), precondition_error);
}

TEST(Localizer, NamesTheHostModuleForEveryTrojan) {
  const ArrayWorld& w = world();
  const Localizer localizer{w.grid};
  struct Case {
    trojan::TrojanKind kind;
    std::size_t max_cells;  // T2/T4 exact, others within one grid cell
  };
  const Case cases[] = {
      {trojan::TrojanKind::kT1AmLeak, 1},  {trojan::TrojanKind::kT2Leakage, 0},
      {trojan::TrojanKind::kT3Cdma, 1},    {trojan::TrojanKind::kT4PowerHog, 0},
      {trojan::TrojanKind::kA2Analog, 1},
  };
  for (const Case& c : cases) {
    const sim::Chip infected = armed_chip(c.kind);
    const BundleSet bundles =
        w.capture.capture_batch(sim::CaptureEngine::shared(), infected, 48, 10000);
    ArrayMonitor monitor{w.grid, w.calibration};
    monitor.push_bundles(bundles);
    EXPECT_TRUE(monitor.any_alarm()) << trojan::kind_label(c.kind);

    const LocalizationReport report = localizer.localize(monitor.anomaly_energy());
    ASSERT_TRUE(report.localized) << trojan::kind_label(c.kind);
    const std::string expected = sim::trojan_host_module(c.kind);
    const std::size_t cells = cell_distance(w.grid, report.module_name, expected);
    EXPECT_LE(cells, c.max_cells)
        << trojan::kind_label(c.kind) << " localized to " << report.module_name;
    if (c.max_cells == 0) {
      EXPECT_EQ(report.module_name, expected);
    }
    EXPECT_GT(report.score, 0.5) << trojan::kind_label(c.kind);
  }
}

TEST(Localizer, ZeroAnomalyDoesNotLocalize) {
  const ArrayWorld& w = world();
  const Localizer localizer{w.grid};
  const LocalizationReport report =
      localizer.localize(std::vector<double>(w.grid.sensor_count(), 0.0));
  EXPECT_FALSE(report.localized);
}

}  // namespace
}  // namespace emts::array
