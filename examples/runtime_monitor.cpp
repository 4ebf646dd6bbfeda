// Runtime monitoring: the deployment of Fig. 1. The detector stack is fitted
// on the trusted bring-up window of on-chip sensor captures, and the
// RuntimeMonitor scores every capture after it. Mid-stream, the attacker
// triggers the T2 leakage Trojan; the monitor raises a debounced alarm and
// prints what its detectors saw.
#include <cstdio>
#include <filesystem>

#include "core/monitor.hpp"
#include "io/calibration.hpp"
#include "io/table.hpp"
#include "sim/chip.hpp"
#include "sim/engine.hpp"

using namespace emts;

int main() {
  sim::Chip chip{sim::make_default_config()};
  const auto& engine = sim::CaptureEngine::shared();

  // Phase 1: trusted bring-up. The first 32 captures fit the detector stack;
  // the rest of the window is normal operation under the monitor.
  constexpr std::size_t kCalibration = 32;
  const auto bring_up = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 60, 0);
  core::TraceSet golden;
  golden.sample_rate = bring_up.sample_rate;
  golden.traces.assign(bring_up.traces.begin(), bring_up.traces.begin() + kCalibration);

  core::RuntimeMonitor::Options options;
  options.alarm_debounce = 3;
  core::RuntimeMonitor monitor{chip.sample_rate(), core::TrustEvaluator::calibrate(golden),
                               options};

  std::printf("runtime monitor demo — T2 activates at capture 60\n");
  std::printf("%-8s %-12s %-10s %s\n", "capture", "state", "score", "note");

  // The sensor hardware records windows continuously; the engine drains each
  // phase's windows as one parallel batch and the monitor consumes them in
  // stream order (its scoring is strictly per-trace, so batching the
  // acquisition changes nothing downstream).
  std::uint64_t index = kCalibration;
  const auto step = [&](const core::Trace& trace, const char* note) {
    const auto state = monitor.push(trace);
    if (index % 10 == 0 || state == core::MonitorState::kAlarm) {
      std::printf("%-8llu %-12s %-10s %s\n", static_cast<unsigned long long>(index),
                  core::monitor_state_label(state),
                  monitor.last_score().has_value()
                      ? io::Table::num(*monitor.last_score(), 3).c_str()
                      : "-",
                  note);
    }
    ++index;
    return state;
  };

  for (std::size_t t = kCalibration; t < bring_up.size(); ++t) {
    step(bring_up.traces[t], "normal operation");
  }

  // Phase 2: the Trojan activates in the field.
  chip.arm(trojan::TrojanKind::kT2Leakage);
  const auto infected = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 20, 60);
  for (const auto& trace : infected.traces) {
    if (monitor.state() == core::MonitorState::kAlarm) break;
    step(trace, "T2 active");
  }

  if (monitor.state() != core::MonitorState::kAlarm) {
    std::printf("UNEXPECTED: no alarm raised\n");
    return 1;
  }
  // What the detectors saw at the latch: the last capture's distance against
  // the fitted Eq. (1) threshold, and the last spectral window's anomalies.
  std::printf(">>> ALARM: distance %s (EDth %s), %zu spectral anomalies in the last window\n",
              io::Table::num(*monitor.last_score(), 3).c_str(),
              io::Table::num(monitor.evaluator().euclidean().threshold(), 3).c_str(),
              monitor.last_spectral().has_value() ? monitor.last_spectral()->anomalies.size()
                                                  : std::size_t{0});

  // Phase 3: the operator investigates, removes the trigger, resumes.
  chip.disarm_all();
  monitor.acknowledge_alarm();
  std::printf("alarm acknowledged; resuming monitoring\n");
  const auto resumed = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 20, 80);
  for (const auto& trace : resumed.traces) step(trace, "back to normal");

  const bool calm = monitor.state() == core::MonitorState::kMonitoring;
  std::printf("\nfinal state: %s\n", core::monitor_state_label(monitor.state()));
  if (!calm) return 1;

  // Phase 4: warm redeploy — "calibrate once, monitor many". The fitted
  // detector stack is saved as an EMCA artifact; a second monitor (a reboot,
  // or another unit of the same design) cold-starts from it and is scoring
  // from its very first capture, zero calibration captures spent.
  const auto model_path =
      (std::filesystem::temp_directory_path() / "emts_runtime_monitor.emca").string();
  io::save_calibration(model_path, monitor.evaluator());
  auto evaluator = io::load_calibration(model_path);
  std::filesystem::remove(model_path);

  core::RuntimeMonitor redeployed{evaluator.sample_rate(), std::move(evaluator), options};
  std::printf("\nwarm redeploy from %s: state %s after %zu captures\n", model_path.c_str(),
              core::monitor_state_label(redeployed.state()), redeployed.traces_seen());

  // push_batch: same hot path and identical transitions as trace-by-trace
  // push, one call per acquisition batch.
  const auto fresh = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 20, 100);
  redeployed.push_batch(fresh);
  std::printf("redeployed monitor after 20 captures: %s\n",
              core::monitor_state_label(redeployed.state()));

  // What the first monitor's loop did, without ever perturbing it: lifetime
  // counters, push/spectral latency quantiles, and the structured event log.
  const core::MonitorStats& stats = monitor.stats();
  std::printf("\nmonitor stats: ingested %llu (scored %llu)\n",
              static_cast<unsigned long long>(stats.traces_ingested),
              static_cast<unsigned long long>(stats.scored_captures));
  std::printf("  per-trace anomalies %llu, windowed %llu/%llu passes, alarms %llu "
              "latched / %llu acked\n",
              static_cast<unsigned long long>(stats.per_trace_anomalies),
              static_cast<unsigned long long>(stats.windowed_anomalies),
              static_cast<unsigned long long>(stats.spectral_passes),
              static_cast<unsigned long long>(stats.alarms_latched),
              static_cast<unsigned long long>(stats.alarms_acknowledged));
  std::printf("  push latency p50 %.1f us, p99 %.1f us; spectral pass p50 %.1f us\n",
              stats.push_latency.p50_ns() / 1e3, stats.push_latency.p99_ns() / 1e3,
              stats.spectral_latency.p50_ns() / 1e3);
  for (const auto& event : monitor.drain_events()) {
    std::printf("  event #%-4llu %-18s %.6g\n",
                static_cast<unsigned long long>(event.trace_index),
                core::monitor_event_label(event.kind), event.value);
  }
  return redeployed.state() == core::MonitorState::kMonitoring ? 0 : 1;
}
