// Sensor-array capture + monitoring throughput: grid size x window count
// sweep over the full array pipeline (one physics evaluation per window,
// fanned out to N coils, scored by N detector stacks, localized on demand).
// The question the sweep answers: how does the per-window cost grow with the
// coil count, and how far from real time does the array monitor run?
//
// Writes BENCH_array.json. Following BENCH_fleet_scale.json:
// hardware_threads is the *first* key — on a one-core host the capture rates
// are contention measurements, not capacities — and every row records
// whether the run was oversubscribed (engine workers > hardware threads).
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
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"

using namespace emts;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Row {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t windows = 0;
  double calibrate_s = 0.0;
  double capture_bundles_per_sec = 0.0;
  double push_bundles_per_sec = 0.0;
  double localize_us = 0.0;
  std::size_t engine_threads = 0;
  bool oversubscribed = false;
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

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const sim::CaptureEngine& engine = sim::CaptureEngine::shared();
  const sim::Chip chip{sim::make_default_config()};

  const std::vector<std::pair<std::size_t, std::size_t>> grids =
      smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{3, 3}}
            : std::vector<std::pair<std::size_t, std::size_t>>{{3, 3}, {4, 4}, {5, 5}};
  const std::vector<std::size_t> window_counts =
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 64};

  std::vector<Row> rows;
  bool golden_alarm_free = true;
  for (const auto& [nx, ny] : grids) {
    array::GridSpec spec;
    spec.nx = nx;
    spec.ny = ny;
    const array::SensorGrid grid{chip.floorplan(), spec};
    const array::ArrayCapture capture{grid};

    array::ArrayCalibrationOptions calibration_options;
    calibration_options.windows = smoke ? 16 : 64;
    const auto t_calibrate = std::chrono::steady_clock::now();
    const array::ArrayCalibration calibration =
        array::calibrate_array(capture, engine, chip, calibration_options);
    const double calibrate_s = seconds_since(t_calibrate);

    const array::Localizer localizer{grid};
    for (const std::size_t windows : window_counts) {
      Row row;
      row.nx = nx;
      row.ny = ny;
      row.windows = windows;
      row.calibrate_s = calibrate_s;
      row.engine_threads = engine.thread_count();
      row.oversubscribed =
          hardware_threads > 0 && engine.thread_count() > hardware_threads;

      const auto t_capture = std::chrono::steady_clock::now();
      const array::BundleSet bundles =
          capture.capture_batch(engine, chip, windows, 100000);
      const double capture_s = seconds_since(t_capture);
      row.capture_bundles_per_sec = static_cast<double>(windows) / capture_s;

      array::ArrayMonitor monitor{grid, calibration};
      const auto t_push = std::chrono::steady_clock::now();
      monitor.push_bundles(bundles);
      const double push_s = seconds_since(t_push);
      row.push_bundles_per_sec = static_cast<double>(windows) / push_s;
      if (monitor.any_alarm()) {
        std::fprintf(stderr, "perf_array: golden replay alarmed at %zux%zu/%zu windows\n",
                     nx, ny, windows);
        golden_alarm_free = false;
      }

      const auto t_localize = std::chrono::steady_clock::now();
      const array::LocalizationReport report = localizer.localize(monitor.anomaly_energy());
      row.localize_us = seconds_since(t_localize) * 1e6;
      (void)report;

      std::printf("%zux%zu  %3zu windows: capture %8.1f bundles/s, push %8.1f bundles/s,"
                  " localize %6.1f us (calibrate %.2f s)\n",
                  nx, ny, windows, row.capture_bundles_per_sec, row.push_bundles_per_sec,
                  row.localize_us, calibrate_s);
      rows.push_back(row);
    }
  }

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"trace_samples\": " << chip.samples_per_trace() << ",\n";
  out << "  \"golden_alarm_free\": " << (golden_alarm_free ? "true" : "false") << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "    {\"grid\": \"%zux%zu\", \"sensors\": %zu, \"windows\": %zu,"
                  " \"calibrate_s\": %.3f, \"capture_bundles_per_sec\": %.2f,"
                  " \"push_bundles_per_sec\": %.2f, \"localize_us\": %.2f,"
                  " \"engine_threads\": %zu, \"oversubscribed\": %s}%s\n",
                  r.nx, r.ny, r.nx * r.ny, r.windows, r.calibrate_s,
                  r.capture_bundles_per_sec, r.push_bundles_per_sec, r.localize_us,
                  r.engine_threads, r.oversubscribed ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return golden_alarm_free ? 0 : 1;
}
