// `campaign`: the runtime sensor-array localization of arXiv 2401.12193
// (src/array). A 4x4 coil grid watches one chip through golden,
// T1-T4 and A2 in turn: each scenario captures engine-wide bundle batches on
// a two-thread CaptureEngine (ArrayCapture::capture_batch), scores them
// through one RuntimeMonitor per coil (ArrayMonitor::push_bundles), and on
// alarm names the offending floorplan module (Localizer::localize). Sim
// physics and the array do the work; io and fleet do none, so a change to
// those must leave every number here unchanged.
#include <memory>
#include <string>
#include <vector>

#include "array/calibration.hpp"
#include "array/capture.hpp"
#include "array/grid.hpp"
#include "array/localizer.hpp"
#include "array/monitor.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "trojan/trojan.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace emts;

namespace {

constexpr std::size_t kGridSide = 4;
constexpr std::size_t kEngineThreads = 2;
// Bundles per capture_batch round: two per engine thread (about 36 ms of
// work). A coil monitor's spectral window is 16 bundles, so every fourth
// round carries a spectral pass: a quarter of the rounds, which puts p90
// inside that population rather than on the edge between the two.
// Latency quantiles come from the quietest 4-round windows (one spectral
// window each), pooled to at least 100 rounds (10 beyond p90) with every
// scenario contributing the same number of windows.
constexpr std::size_t kBatch = 2 * kEngineThreads;
constexpr std::size_t kWindowRounds = 4;
constexpr std::size_t kPooledRounds = 100;
constexpr std::size_t kWindows = 48;   // bundles per scenario pass
constexpr std::size_t kCalibrationWindows = 64;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kThreads = 1 + kEngineThreads;

struct Scenario {
  const char* label;
  bool infected;
  trojan::TrojanKind kind;
};

constexpr Scenario kScenarios[] = {
    {"golden", false, trojan::TrojanKind::kT1AmLeak},
    {"T1", true, trojan::TrojanKind::kT1AmLeak},
    {"T2", true, trojan::TrojanKind::kT2Leakage},
    {"T3", true, trojan::TrojanKind::kT3Cdma},
    {"T4", true, trojan::TrojanKind::kT4PowerHog},
    {"A2", true, trojan::TrojanKind::kA2Analog},
};
constexpr std::size_t kScenarioCount = sizeof kScenarios / sizeof kScenarios[0];

/// The fitted array; members that hold references to earlier ones are
/// declared after them.
struct World {
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<array::SensorGrid> grid;
  std::unique_ptr<array::ArrayCapture> capture;
  array::ArrayCalibration calibration;
};

struct SetupTimes {
  double grid_s = 0.0;
  double calibrate_s = 0.0;
  double total_s = 0.0;
};

/// The user's set-up: build the chip and the 4x4 grid, then fit every coil
/// on a golden calibration campaign.
World build_world(const sim::CaptureEngine& engine, std::uint64_t seed, SetupTimes& times) {
  const std::uint64_t t0 = now_ns();
  World world;
  world.chip = std::make_unique<sim::Chip>(sim::make_default_config());
  const std::uint64_t t1 = now_ns();
  array::GridSpec spec;
  spec.nx = kGridSide;
  spec.ny = kGridSide;
  world.grid = std::make_unique<array::SensorGrid>(world.chip->floorplan(), spec);
  world.capture = std::make_unique<array::ArrayCapture>(*world.grid);
  const std::uint64_t t2 = now_ns();
  array::ArrayCalibrationOptions options;
  options.windows = kCalibrationWindows;
  options.first_index = derive(seed, 11) >> 24;
  world.calibration = array::calibrate_array(*world.capture, engine, *world.chip, options);
  const std::uint64_t t3 = now_ns();
  times.grid_s = static_cast<double>(t2 - t1) * 1e-9;
  times.calibrate_s = static_cast<double>(t3 - t2) * 1e-9;
  times.total_s = static_cast<double>(t3 - t0) * 1e-9;
  return world;
}

World repeated_setup(const sim::CaptureEngine& engine, std::uint64_t seed,
                     std::vector<SetupTimes>& reps) {
  World world;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    world = World{};
    SetupTimes times;
    world = build_world(engine, seed, times);
    reps.push_back(times);
  }
  return world;
}

/// One chip per scenario, armed before any clock starts.
std::vector<std::unique_ptr<sim::Chip>> scenario_chips() {
  std::vector<std::unique_ptr<sim::Chip>> chips;
  for (const Scenario& scenario : kScenarios) {
    auto chip = std::make_unique<sim::Chip>(sim::make_default_config());
    if (scenario.infected) chip->arm(scenario.kind);
    chips.push_back(std::move(chip));
  }
  return chips;
}

/// Figures of every scenario pass, indexed [scenario][pass]. A pass is one
/// scenario's whole verdict: monitor construction, its capture/push rounds
/// and, for a Trojan, localization.
struct Sweep {
  std::vector<std::vector<double>> round_us{kScenarioCount};  // every round, in order
  std::vector<std::vector<double>> pass_s{kScenarioCount};    // wall time of each pass
  std::vector<std::vector<double>> pass_cpu_s{kScenarioCount};  // process CPU of each pass
  std::uint64_t bundles = 0;
  double seconds = 0.0;
  std::size_t sweeps = 0;

  /// Bundles per second of one sweep assembled from each scenario's best
  /// pass: every scenario weighs in, so a slowdown confined to one Trojan
  /// model or to localization moves it.
  double per_s() const {
    double best_s = 0.0;
    for (const std::vector<double>& passes : pass_s) best_s += best_time(passes);
    return static_cast<double>(kScenarioCount * kWindows) / best_s;
  }
  /// Process CPU per bundle of one sweep assembled from each scenario's
  /// median pass.
  double cpu_us_per_bundle() const {
    double cpu_s = 0.0;
    for (const std::vector<double>& passes : pass_cpu_s) cpu_s += median(passes);
    return cpu_s * 1e6 / static_cast<double>(kScenarioCount * kWindows);
  }
  /// Closed-loop rounds for the latency quantiles: the quietest windows of
  /// each scenario, an equal share of the pool from every one.
  std::vector<double> quiet_rounds() const {
    std::vector<double> pool;
    for (const std::vector<double>& rounds : round_us) {
      std::vector<std::vector<double>> windows;
      cut_windows(rounds, kWindowRounds, windows);
      const std::vector<double> quiet =
          quietest_rounds(windows, (kPooledRounds + kScenarioCount - 1) / kScenarioCount);
      pool.insert(pool.end(), quiet.begin(), quiet.end());
    }
    return pool;
  }
  std::vector<double> all_rounds() const {
    std::vector<double> all;
    for (const std::vector<double>& rounds : round_us) {
      all.insert(all.end(), rounds.begin(), rounds.end());
    }
    return all;
  }
};

/// Whole sweeps over every scenario until `budget_s` has passed. Window
/// indices advance every sweep, so each sweep sees fresh noise.
Sweep run_sweeps(const World& world, const sim::CaptureEngine& engine,
                 const std::vector<std::unique_ptr<sim::Chip>>& chips, std::uint64_t seed,
                 double budget_s, Result& result, SpanRecorder* spans) {
  const array::Localizer localizer{*world.grid};
  const std::uint64_t base = derive(seed, 12) >> 24;
  Sweep out;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(budget_s * 1e9);
  for (std::uint64_t sweep = 0; sweep == 0 || now_ns() < deadline; ++sweep) {
    for (std::size_t s = 0; s < kScenarioCount; ++s) {
      const Scenario& scenario = kScenarios[s];
      const std::uint64_t id = sweep * kScenarioCount + s;
      const double s_cpu = process_cpu_s();
      const std::uint64_t s0 = now_ns();
      std::int32_t span = spans ? spans->begin("array.monitor_build", id) : -1;
      array::ArrayMonitor monitor{*world.grid, world.calibration};
      if (spans) spans->end(span);
      const std::uint64_t first = base + (sweep * kScenarioCount + s) * kWindows;
      for (std::size_t w = 0; w < kWindows; w += kBatch) {
        const std::uint64_t r0 = now_ns();
        span = spans ? spans->begin("array.capture_batch", id) : -1;
        const array::BundleSet bundles =
            world.capture->capture_batch(engine, *chips[s], kBatch, first + w);
        if (spans) spans->end(span);
        span = spans ? spans->begin("array.push_bundles", id) : -1;
        monitor.push_bundles(bundles);
        if (spans) spans->end(span);
        out.round_us[s].push_back(static_cast<double>(now_ns() - r0) * 1e-3);
      }
      const bool alarm = monitor.any_alarm();
      array::LocalizationReport report;
      if (scenario.infected) {
        span = spans ? spans->begin("array.localize", id) : -1;
        report = localizer.localize(monitor.anomaly_energy());
        if (spans) spans->end(span);
      }
      out.pass_s[s].push_back(static_cast<double>(now_ns() - s0) * 1e-9);
      out.pass_cpu_s[s].push_back(process_cpu_s() - s_cpu);
      out.bundles += kWindows;
      result.attempt(kWindows);
      if (!scenario.infected) {
        result.check(!alarm, "campaign: golden sweep " + std::to_string(sweep) + " alarmed",
                     kWindows);
        continue;
      }
      const std::string expected = sim::trojan_host_module(scenario.kind);
      result.check(alarm && report.localized && report.module_name == expected,
                   std::string("campaign: ") + scenario.label + " in sweep " +
                       std::to_string(sweep) + (alarm ? "" : " never alarmed") +
                       " localized to '" + report.module_name + "', expected '" + expected + "'",
                   kWindows);
    }
    ++out.sweeps;
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

sim::EngineOptions engine_options() {
  sim::EngineOptions options;
  options.threads = kEngineThreads;
  options.chunk = 1;  // a round's bundles spread over both engine threads
  return options;
}

}  // namespace

void run_campaign(const RunConfig& config, Result& result) {
  const sim::CaptureEngine engine{engine_options()};
  std::vector<SetupTimes> reps;
  const World world = repeated_setup(engine, config.seed, reps);
  std::vector<double> setup;
  for (const SetupTimes& t : reps) setup.push_back(t.total_s);
  const auto chips = scenario_chips();

  const Sweep sweep = run_sweeps(world, engine, chips, config.seed, config.seconds, result, nullptr);
  const std::vector<double> quiet = sweep.quiet_rounds();
  const std::vector<double> all = sweep.all_rounds();
  result.metric("throughput_per_s", sweep.per_s(), "1/s");
  result.metric("verdict_p50_us", quantile(quiet, 0.50), "us");
  result.metric("verdict_p90_us", quantile(quiet, 0.90), "us");
  result.metric("cpu_us_per_verdict", sweep.cpu_us_per_bundle(), "us");
  result.metric("setup_s", median(setup), "s");
  result.metric("rss_mb", peak_rss_mb(), "MB");
  result.metric("success_frac", result.success_frac(), "frac");
  result.diagnostic("threads", static_cast<double>(kThreads));
  result.diagnostic("engine_threads", static_cast<double>(engine.thread_count()));
  result.diagnostic("sweeps", static_cast<double>(sweep.sweeps));
  result.diagnostic("rounds", static_cast<double>(all.size()));
  result.diagnostic("pooled_throughput_per_s", static_cast<double>(sweep.bundles) / sweep.seconds);
  result.diagnostic("pooled_verdict_p50_us", quantile(all, 0.50));
  result.diagnostic("pooled_verdict_p90_us", quantile(all, 0.90));
}

void trace_campaign(const RunConfig& config, Result& result) {
  const sim::CaptureEngine engine{engine_options()};
  std::vector<SetupTimes> reps;
  const World world = repeated_setup(engine, config.seed, reps);
  std::vector<double> grid_ms, calibrate_s;
  for (const SetupTimes& t : reps) {
    grid_ms.push_back(t.grid_s * 1e3);
    calibrate_s.push_back(t.calibrate_s);
  }
  result.metric("array.grid_ms", median(grid_ms), "ms");
  result.metric("array.calibrate_s", median(calibrate_s), "s");
  const auto chips = scenario_chips();

  const Sweep untraced =
      run_sweeps(world, engine, chips, config.seed, 0.4 * config.seconds, result, nullptr);
  SpanRecorder spans;
  const Sweep traced =
      run_sweeps(world, engine, chips, config.seed, 0.4 * config.seconds, result, &spans);

  // Serial costs of one window, on the calling thread: the chip's physics
  // alone, and the whole bundle (physics fanned out to every coil).
  const std::uint64_t base = derive(config.seed, 13) >> 24;
  for (std::uint64_t w = 0; w < 2 * kBatch; ++w) {
    std::int32_t span = spans.begin("sim.module_transients", w);
    const auto transients = world.chip->module_transients(true, base + w);
    spans.end(span);
    span = spans.begin("array.capture_bundle", w);
    const array::Bundle bundle = world.capture->capture_bundle(*world.chip, base + w);
    spans.end(span);
    (void)transients;
    (void)bundle;
  }
  const double bundles = static_cast<double>(traced.bundles);
  const double capture_us = median(spans.durations_us("array.capture_bundle"));
  const double push_us = spans.total_us("array.push_bundles") / bundles;
  const double localize_us = median(spans.durations_us("array.localize"));
  std::vector<double> batch_per_bundle;
  for (const double d : spans.durations_us("array.capture_batch")) {
    batch_per_bundle.push_back(d / static_cast<double>(kBatch));
  }
  result.metric("sim.transients_us", median(spans.durations_us("sim.module_transients")), "us");
  result.metric("sim.engine_scaling", capture_us / median(batch_per_bundle), "ratio");
  result.metric("array.capture_us", capture_us, "us");
  result.metric("array.push_us", push_us, "us");
  result.metric("array.localize_us", localize_us, "us");

  // Ledger, in thread CPU time: a bundle's serial capture, its push through
  // 16 coil monitors, and its share of monitor construction and
  // localization.
  const double explained =
      spans.mean_cpu_us("array.capture_bundle") +
      (spans.total_cpu_us("array.push_bundles") + spans.total_cpu_us("array.monitor_build") +
       spans.total_cpu_us("array.localize")) /
          bundles;
  const double untraced_cpu_us = untraced.cpu_us_per_bundle();
  const double untraced_per_s = untraced.per_s();
  result.metric("ledger.campaign.cpu_us_per_verdict", untraced_cpu_us, "us");
  result.metric("ledger.campaign.explained_us", explained, "us");
  result.metric("ledger.campaign.unexplained_us", untraced_cpu_us - explained, "us");
  result.metric("ledger.campaign.throughput_per_s", untraced_per_s, "1/s");
  // Like throughput_per_s, the prediction is for the best case: the
  // cheapest serial capture split over the engine threads, then the
  // cheapest push.
  std::vector<double> push_per_bundle;
  for (const double d : spans.durations_us("array.push_bundles")) {
    push_per_bundle.push_back(d / static_cast<double>(kBatch));
  }
  result.metric("ledger.campaign.predicted_per_s",
                1e6 / (best_time(spans.durations_us("array.capture_bundle")) /
                           static_cast<double>(kEngineThreads) +
                       best_time(push_per_bundle)),
                "1/s");
  result.metric("trace.campaign.overhead_frac",
                1.0 - traced.per_s() / untraced_per_s, "frac");
  if (!config.spans_path.empty()) write_spans(config.spans_path, {{"campaign", &spans}});
}

}  // namespace e2e
