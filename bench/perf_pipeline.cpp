// Performance microbenchmarks (google-benchmark): the computational cost of
// each pipeline stage — FFT, PCA fit, coupling solve, capture synthesis,
// per-trace scoring — so a deployment can budget its analysis module.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/euclidean.hpp"
#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/spectral.hpp"
#include "io/calibration.hpp"
#include "dsp/fft.hpp"
#include "em/mutual.hpp"
#include "layout/power_grid.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "stats/pca.hpp"
#include "util/alloc_counter.hpp"
#include "util/latency.hpp"
#include "util/rng.hpp"

using namespace emts;

namespace {

sim::Chip& shared_chip() {
  static sim::Chip chip{sim::make_default_config()};
  return chip;
}

core::TraceSet shared_golden() {
  return sim::CaptureEngine::shared().capture_batch(shared_chip(),
                                                    sim::Pickup::kOnChipSensor, 48, 0);
}

// The kernel alone: the plan is built once outside the timed loop, as the
// monitor builds it once per trace shape. 2048 is the monitor's plan size
// (the half-size transform of a 4096-sample capture).
void BM_FftForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  std::vector<dsp::cplx> data(n);
  for (auto& x : data) x = dsp::cplx{rng.gaussian(), 0.0};
  const dsp::FftPlan plan{n};
  std::vector<dsp::cplx> work(n);
  for (auto _ : state) {
    work = data;
    plan.forward(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftForward)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(16384);

void BM_PcaFit(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  linalg::Matrix data{rows, 256};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 256; ++c) data(r, c) = rng.gaussian();
  }
  for (auto _ : state) {
    auto model = stats::PcaModel::fit(data, 8);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_PcaFit)->Arg(32)->Arg(64)->Arg(128);

void BM_CouplingSolve(benchmark::State& state) {
  const layout::DieSpec die{};
  const auto fp = layout::reference_floorplan(die);
  const auto loops = layout::supply_loops(fp, layout::PadRing::for_die(die));
  const auto coil = em::make_onchip_spiral(die, em::OnChipSpiralSpec{});
  for (auto _ : state) {
    const auto m = em::couplings(loops, coil);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_CouplingSolve);

void BM_ChipCapture(benchmark::State& state) {
  sim::Chip& chip = shared_chip();
  std::uint64_t index = 1000000;
  for (auto _ : state) {
    const auto acq = chip.capture(true, index++);
    benchmark::DoNotOptimize(acq.onchip_v.data());
  }
}
BENCHMARK(BM_ChipCapture);

// Acquisition throughput, serial vs. parallel: items_per_second is
// traces/sec, so BENCH_*.json tracks the CaptureEngine speedup directly.
// Arg = worker threads (1 = the serial inline path).
void BM_CaptureBatch(benchmark::State& state) {
  sim::EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::CaptureEngine engine{options};
  const sim::Chip& chip = shared_chip();
  constexpr std::size_t kBatch = 16;
  std::uint64_t index = 2000000;
  for (auto _ : state) {
    const auto set =
        engine.capture_batch(chip, sim::Pickup::kOnChipSensor, kBatch, index);
    index += kBatch;
    benchmark::DoNotOptimize(set.traces.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CaptureBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Both pickups of the same windows in one pass (the Fig. 6 campaign shape).
void BM_CapturePairBatch(benchmark::State& state) {
  sim::EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  sim::CaptureEngine engine{options};
  const sim::Chip& chip = shared_chip();
  constexpr std::size_t kBatch = 16;
  std::uint64_t index = 3000000;
  for (auto _ : state) {
    const auto pair = engine.capture_pair_batch(chip, kBatch, index);
    index += kBatch;
    benchmark::DoNotOptimize(pair.onchip.traces.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CapturePairBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DetectorCalibrate(benchmark::State& state) {
  const auto golden = shared_golden();
  for (auto _ : state) {
    auto det = core::EuclideanDetector::calibrate(golden);
    benchmark::DoNotOptimize(&det);
  }
}
BENCHMARK(BM_DetectorCalibrate);

void BM_DetectorScore(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto det = core::EuclideanDetector::calibrate(golden);
  const auto trace = shared_chip().capture(true, 777).onchip_v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.score(trace));
  }
}
BENCHMARK(BM_DetectorScore);

// Cold-start comparison: what a deployment pays to reach kMonitoring.
// Calibrating from golden captures fits PCA + spectra from scratch;
// loading an EMCA artifact is pure deserialization.
void BM_ColdStartCalibrate(benchmark::State& state) {
  const auto golden = shared_golden();
  for (auto _ : state) {
    auto evaluator = core::TrustEvaluator::calibrate(golden);
    benchmark::DoNotOptimize(&evaluator);
  }
}
BENCHMARK(BM_ColdStartCalibrate)->Unit(benchmark::kMillisecond);

void BM_CalibrateAndSave(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto path =
      (std::filesystem::temp_directory_path() / "emts_bench_model.emca").string();
  for (auto _ : state) {
    const auto evaluator = core::TrustEvaluator::calibrate(golden);
    io::save_calibration(path, evaluator);
    benchmark::DoNotOptimize(&evaluator);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_CalibrateAndSave)->Unit(benchmark::kMillisecond);

void BM_ColdStartLoadArtifact(benchmark::State& state) {
  const auto path =
      (std::filesystem::temp_directory_path() / "emts_bench_model.emca").string();
  io::save_calibration(path, core::TrustEvaluator::calibrate(shared_golden()));
  for (auto _ : state) {
    auto evaluator = io::load_calibration(path);
    benchmark::DoNotOptimize(&evaluator);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ColdStartLoadArtifact)->Unit(benchmark::kMillisecond);

void BM_SpectralAnalyze(benchmark::State& state) {
  const auto golden = shared_golden();
  const auto det = core::SpectralDetector::calibrate(golden);
  const auto trace = shared_chip().capture(true, 778).onchip_v;
  for (auto _ : state) {
    const auto report = det.analyze(trace);
    benchmark::DoNotOptimize(&report);
  }
}
BENCHMARK(BM_SpectralAnalyze);

// ---------------------------------------------------------------------------
// Streaming monitor hot path: RuntimeMonitor push, per trace and batched.
// ---------------------------------------------------------------------------

constexpr std::size_t kMonitorWindow = 64;

const core::TrustEvaluator& shared_evaluator() {
  static const core::TrustEvaluator evaluator = core::TrustEvaluator::calibrate(shared_golden());
  return evaluator;
}

const core::TraceSet& shared_stream() {
  static const core::TraceSet stream = sim::CaptureEngine::shared().capture_batch(
      shared_chip(), sim::Pickup::kOnChipSensor, 4 * kMonitorWindow, 5000000);
  return stream;
}

core::RuntimeMonitor::Options monitor_options() {
  core::RuntimeMonitor::Options options;
  options.spectral_window = kMonitorWindow;
  return options;
}

void BM_MonitorStreamPush(benchmark::State& state) {
  const auto& stream = shared_stream();
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  // Warm-up outside the measured region: size every scratch, slot and plan.
  for (const auto& trace : stream.traces) monitor.push(trace);
  for (auto _ : state) {
    for (const auto& trace : stream.traces) monitor.push(trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MonitorStreamPush)->Unit(benchmark::kMillisecond);

void BM_MonitorStreamBatch(benchmark::State& state) {
  const auto& stream = shared_stream();
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  monitor.push_batch(stream);  // warm-up
  for (auto _ : state) {
    monitor.push_batch(stream);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MonitorStreamBatch)->Unit(benchmark::kMillisecond);

/// Streamed-monitor measurement serialized to BENCH_monitor.json: traces/sec
/// on a 64-trace window, steady-state allocation counts, and the monitor's
/// own p50/p99 push latency with the tail ratio tracked directly as
/// push_p99_over_p50 (CI asserts it stays within ~10x).
void write_monitor_bench_json(const char* path) {
  const auto& stream = shared_stream();
  constexpr int kRepeats = 4;
  core::RuntimeMonitor monitor{shared_chip().sample_rate(), shared_evaluator(),
                               monitor_options()};
  for (const auto& trace : stream.traces) monitor.push(trace);  // warm-up
  const auto alloc0 = util::alloc::thread_counts();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r) monitor.push_batch(stream);
  const double elapsed = bench::seconds_since(t0);
  const auto alloc1 = util::alloc::thread_counts();

  const double pushes = static_cast<double>(kRepeats) * static_cast<double>(stream.size());
  const util::LatencyHistogram& push = monitor.stats().push_latency;
  const util::LatencyHistogram& spectral = monitor.stats().spectral_latency;
  const double tail_ratio = push.p50_ns() > 0.0 ? push.p99_ns() / push.p50_ns() : 0.0;

  bench::JsonObject{}
      .add("window_traces", kMonitorWindow)
      .add("trace_samples", stream.trace_length())
      .add("measured_pushes", static_cast<std::uint64_t>(pushes))
      .add("alloc_counting_active", util::alloc::counting_active())
      .add("streamed", bench::JsonObject{}
                           .add("traces_per_sec", pushes / elapsed)
                           .add("allocations", alloc1.allocations - alloc0.allocations)
                           .add("allocated_bytes", alloc1.bytes - alloc0.bytes)
                           .add("push_p50_ns", push.p50_ns())
                           .add("push_p99_ns", push.p99_ns())
                           .add("push_max_ns", push.max_ns())
                           .add("push_p99_over_p50", tail_ratio)
                           .add("spectral_p50_ns", spectral.p50_ns())
                           .add("spectral_p99_ns", spectral.p99_ns()))
      .write_bench(path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_monitor_bench_json("BENCH_monitor.json");
  return 0;
}
