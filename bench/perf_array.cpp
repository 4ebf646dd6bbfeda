// Sensor-array capture + monitoring throughput: grid size x window count
// sweep over the full array pipeline (one physics evaluation per window,
// fanned out to N coils, scored by N detector stacks, localized on demand).
// The question the sweep answers: how does the per-window cost grow with the
// coil count, and how far from real time does the array monitor run?
//
// Writes BENCH_array.json through bench_util's rules, like
// BENCH_fleet_scale.json: hardware_threads is the *first* key, every row
// records whether the run was oversubscribed (engine workers > hardware
// threads), and every capture, push and localize figure is the best of three
// timed runs (calibrate_s is one timed calibration per grid).
//
// The bench also re-proves the subsystem's gate on every run: the golden
// replay must not alarm any coil, and the process exits non-zero if it does,
// so a recorded BENCH_array.json implies the no-false-alarm guarantee held.
//
// Usage: perf_array [out.json] [--smoke]
//   --smoke: 3x3 grid, one window count — the CI configuration.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "bench_util.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"

using namespace emts;

namespace {

// Everything one grid size needs. The capture and the localizer refer to
// `grid`, so a Grid never moves once built (the sweep keeps them in a deque).
struct Grid {
  Grid(const sim::Chip& chip, std::size_t side)
      : grid{chip.floorplan(), {.nx = side, .ny = side}}, capture{grid}, localizer{grid} {}

  array::SensorGrid grid;
  array::ArrayCapture capture;
  array::Localizer localizer;
  array::ArrayCalibration calibration;
  double calibrate_s = 0.0;
};

// One (grid, window count) row and what its timed steps hand each other.
struct Row {
  const Grid* grid = nullptr;
  std::size_t windows = 0;
  array::BundleSet bundles;    // from the capture step
  std::vector<double> energy;  // from the push step
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_array.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  bench::warm_up();
  const sim::CaptureEngine& engine = sim::CaptureEngine::shared();
  const sim::Chip chip{sim::make_default_config()};

  const std::vector<std::size_t> sides =
      smoke ? std::vector<std::size_t>{3} : std::vector<std::size_t>{3, 4, 5};
  const std::vector<std::size_t> window_counts =
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 64};

  std::deque<Grid> grids;
  std::vector<Row> rows;
  for (const std::size_t side : sides) {
    Grid& grid = grids.emplace_back(chip, side);
    array::ArrayCalibrationOptions calibration_options;
    calibration_options.windows = smoke ? 16 : 64;
    const auto t0 = std::chrono::steady_clock::now();
    grid.calibration = array::calibrate_array(grid.capture, engine, chip, calibration_options);
    grid.calibrate_s = bench::seconds_since(t0);
    for (const std::size_t windows : window_counts) rows.push_back({&grid, windows, {}, {}});
  }

  // Three steps per row, timed as 3 x rows best-of-3 rows: every row's
  // capture, then every row's push, then every row's localization, so the
  // three runs of one step sit a whole pass over all steps apart.
  constexpr int kLocalizeCalls = 20000;  // one localization is well under 1 us
  const std::size_t n = rows.size();
  bool golden_alarm_free = true;
  const auto best = bench::best_of_3(3 * n, [&](std::size_t step) {
    Row& row = rows[step % n];
    const double bundles_timed = static_cast<double>(row.windows);
    if (step < n) {
      const auto t0 = std::chrono::steady_clock::now();
      row.bundles = row.grid->capture.capture_batch(engine, chip, row.windows, 100000);
      return bench::TimedRun{bundles_timed, bench::seconds_since(t0)};
    }
    if (step < 2 * n) {
      array::ArrayMonitor monitor{row.grid->grid, row.grid->calibration};
      const auto t0 = std::chrono::steady_clock::now();
      monitor.push_bundles(row.bundles);
      const bench::TimedRun run{bundles_timed, bench::seconds_since(t0)};
      row.energy = monitor.anomaly_energy();
      if (monitor.any_alarm()) {
        std::fprintf(stderr, "perf_array: golden replay alarmed (%zu coils, %zu windows)\n",
                     row.grid->grid.sensor_count(), row.windows);
        golden_alarm_free = false;
      }
      return run;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLocalizeCalls; ++i) (void)row.grid->localizer.localize(row.energy);
    return bench::TimedRun{kLocalizeCalls, bench::seconds_since(t0)};
  });

  std::vector<bench::JsonObject> json_rows;
  for (std::size_t r = 0; r < n; ++r) {
    const Row& row = rows[r];
    const std::size_t side = row.grid->grid.spec().nx;
    json_rows.push_back(bench::JsonObject{}
                            .add("grid", std::to_string(side) + "x" + std::to_string(side))
                            .add("sensors", side * side)
                            .add("windows", row.windows)
                            .add("calibrate_s", row.grid->calibrate_s)
                            .add("capture_bundles_per_sec", best[r].per_second())
                            .add("push_bundles_per_sec", best[n + r].per_second())
                            .add("localize_us", 1e6 / best[2 * n + r].per_second())
                            .add("engine_threads", engine.thread_count())
                            .add("oversubscribed", bench::oversubscribed(engine.thread_count())));
  }

  bench::JsonObject{}
      .add("smoke", smoke)
      .add("trace_samples", chip.samples_per_trace())
      .add("golden_alarm_free", golden_alarm_free)
      .add("rows", json_rows)
      .write_bench(out_path);
  return golden_alarm_free ? 0 : 1;
}
