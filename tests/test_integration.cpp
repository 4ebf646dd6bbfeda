// End-to-end integration: the simulated chip feeds the trust-evaluation
// core exactly as the paper's measurement campaign feeds its data-analysis
// module. These tests reproduce the paper's qualitative claims:
//   * all four digital Trojans detected by the on-chip sensor (Sec. IV-C),
//   * the A2 triggering state caught in the frequency domain (Fig. 4),
//   * T3 invisible to the spectral method (Fig. 6(k)),
//   * the runtime monitor raising an alarm when a Trojan activates (Fig. 1).
#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "sim/chip.hpp"
#include "util/assert.hpp"

namespace emts {
namespace {

using core::TraceSet;
using sim::Chip;
using sim::Pickup;
using trojan::TrojanKind;

Chip& chip() {
  static Chip instance{sim::make_default_config()};
  instance.disarm_all();
  return instance;
}

TraceSet capture_set(Chip& c, Pickup pickup, std::size_t n, std::uint64_t base) {
  TraceSet set;
  set.sample_rate = c.sample_rate();
  for (std::size_t t = 0; t < n; ++t) {
    set.add(c.capture(true, base + t).of(pickup));
  }
  return set;
}

const core::EuclideanDetector& onchip_detector() {
  static const core::EuclideanDetector detector = [] {
    const auto golden = capture_set(chip(), Pickup::kOnChipSensor, 48, 10000);
    return core::EuclideanDetector::calibrate(golden);
  }();
  return detector;
}

TEST(Integration, AllFourDigitalTrojansExceedEqOneThreshold) {
  Chip& c = chip();
  const auto& det = onchip_detector();
  for (TrojanKind kind : {TrojanKind::kT1AmLeak, TrojanKind::kT2Leakage, TrojanKind::kT3Cdma,
                          TrojanKind::kT4PowerHog}) {
    c.arm(kind);
    const auto suspect = capture_set(c, Pickup::kOnChipSensor, 16, 20000);
    const double distance = det.population_distance(suspect);
    EXPECT_GT(distance, det.threshold()) << trojan::kind_label(kind);
    c.disarm_all();
  }
}

TEST(Integration, DistanceOrderingMatchesPaper) {
  // Sec. IV-C: T4 (0.28) >= T1 (0.27) > T2 (0.25) >> T3 (0.05).
  Chip& c = chip();
  const auto& det = onchip_detector();
  auto dist = [&](TrojanKind kind) {
    c.arm(kind);
    const double d = det.population_distance(capture_set(c, Pickup::kOnChipSensor, 16, 21000));
    c.disarm_all();
    return d;
  };
  const double d1 = dist(TrojanKind::kT1AmLeak);
  const double d2 = dist(TrojanKind::kT2Leakage);
  const double d3 = dist(TrojanKind::kT3Cdma);
  const double d4 = dist(TrojanKind::kT4PowerHog);
  EXPECT_GT(d1, d2 * 0.8);
  EXPECT_GT(d4, d2 * 0.8);
  EXPECT_LT(d3, 0.4 * d2) << "T3 must be by far the hardest";
  EXPECT_LT(d3, 0.4 * d1);
  EXPECT_LT(d3, 0.4 * d4);
}

TEST(Integration, GoldenPopulationStaysNearThreshold) {
  Chip& c = chip();
  const auto& det = onchip_detector();
  const auto fresh = capture_set(c, Pickup::kOnChipSensor, 16, 30000);
  EXPECT_LT(det.population_distance(fresh), det.threshold());
}

TEST(Integration, A2DetectedSpectrallyBetweenClockAndHarmonic) {
  Chip& c = chip();
  const auto golden = capture_set(c, Pickup::kOnChipSensor, 16, 40000);
  const auto spectral = core::SpectralDetector::calibrate(golden);

  c.arm(TrojanKind::kA2Analog);
  const auto triggering = capture_set(c, Pickup::kOnChipSensor, 16, 41000);
  c.disarm_all();

  const auto report = spectral.analyze(triggering);
  ASSERT_TRUE(report.anomalous()) << "A2 triggering state must add a spectral spot (Fig. 4)";
  bool between = false;
  for (const auto& a : report.anomalies) {
    if (a.frequency_hz > 48e6 && a.frequency_hz < 96e6) between = true;
  }
  EXPECT_TRUE(between) << "the activation peak sits between the clock and its 2nd harmonic";
}

TEST(Integration, SpectralDetectorMissesT3AsInPaper) {
  // Fig. 6(k): "the frequency spots are not distinguished clearly because of
  // the extreme low overhead of the Trojan 3."
  Chip& c = chip();
  const auto golden = capture_set(c, Pickup::kOnChipSensor, 16, 42000);
  const auto spectral = core::SpectralDetector::calibrate(golden);
  c.arm(TrojanKind::kT3Cdma);
  const auto suspect = capture_set(c, Pickup::kOnChipSensor, 16, 43000);
  c.disarm_all();
  EXPECT_FALSE(spectral.analyze(suspect).anomalous());
}

TEST(Integration, SpectralDetectorCatchesT1Carrier) {
  // Fig. 6(i): T1 introduces extra energy at a low frequency (750 kHz).
  Chip& c = chip();
  const auto golden = capture_set(c, Pickup::kOnChipSensor, 16, 44000);
  const auto spectral = core::SpectralDetector::calibrate(golden);
  c.arm(TrojanKind::kT1AmLeak);
  const auto suspect = capture_set(c, Pickup::kOnChipSensor, 16, 45000);
  c.disarm_all();
  const auto report = spectral.analyze(suspect);
  ASSERT_TRUE(report.anomalous());
  bool low_freq = false;
  for (const auto& a : report.anomalies) {
    if (a.frequency_hz < 5e6) low_freq = true;
  }
  EXPECT_TRUE(low_freq) << "T1's AM carrier adds low-frequency energy";
}

TEST(Integration, ExternalProbeSeparatesWorseThanSensor) {
  // The Fig. 6 top-row vs middle-row comparison, as a separation statistic.
  Chip& c = chip();

  const auto golden_probe = capture_set(c, Pickup::kExternalProbe, 32, 50000);
  const auto det_probe = core::EuclideanDetector::calibrate(golden_probe);

  c.arm(TrojanKind::kT3Cdma);
  const auto t3_probe = capture_set(c, Pickup::kExternalProbe, 16, 51000);
  const auto t3_sensor = capture_set(c, Pickup::kOnChipSensor, 16, 51000);
  c.disarm_all();

  const double margin_probe =
      det_probe.population_distance(t3_probe) / det_probe.threshold();
  const double margin_sensor =
      onchip_detector().population_distance(t3_sensor) / onchip_detector().threshold();
  EXPECT_GT(margin_sensor, margin_probe)
      << "the on-chip sensor must out-separate the external probe on the hardest Trojan";
}

TEST(Integration, RuntimeMonitorRaisesAlarmWhenTrojanActivates) {
  Chip& c = chip();
  core::RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;

  // Deployment (Fig. 1): calibration on the trusted window, then normal
  // operation under the monitor.
  std::uint64_t t = 60000;
  const auto golden = capture_set(c, Pickup::kOnChipSensor, 24, t);
  t += 24;
  core::RuntimeMonitor monitor{c.sample_rate(), core::TrustEvaluator::calibrate(golden), opt};
  for (int i = 0; i < 6; ++i) monitor.push(c.capture(true, t++).onchip_v);
  ASSERT_EQ(monitor.state(), core::MonitorState::kMonitoring);
  ASSERT_EQ(monitor.stats().alarms_latched, 0u);

  // The attacker triggers T2 in the field.
  c.arm(TrojanKind::kT2Leakage);
  for (int i = 0; i < 8 && monitor.state() != core::MonitorState::kAlarm; ++i) {
    monitor.push(c.capture(true, t++).onchip_v);
  }
  c.disarm_all();
  EXPECT_EQ(monitor.stats().alarms_latched, 1u);
  EXPECT_EQ(monitor.state(), core::MonitorState::kAlarm);
}

// The monitor's input gate sums each capture once and hands that mean to
// the preprocessor; the standalone score() computes it with stats::mean.
// Both paths must give the same Euclidean score, bit for bit, on golden and
// T2 captures.
TEST(Integration, MonitorScoresEqualStandaloneEuclideanScores) {
  Chip& c = chip();
  std::uint64_t t = 80000;
  const auto golden = capture_set(c, Pickup::kOnChipSensor, 24, t);
  t += 24;
  const auto evaluator = core::TrustEvaluator::calibrate(golden);
  core::RuntimeMonitor monitor{c.sample_rate(), evaluator};
  const core::EuclideanDetector& euclidean = evaluator.euclidean();
  auto push_and_compare = [&](int pushes) {
    for (int i = 0; i < pushes; ++i, ++t) {
      const core::Trace trace = c.capture(true, t).onchip_v;
      monitor.push(trace);
      ASSERT_TRUE(monitor.last_score().has_value());
      EXPECT_EQ(*monitor.last_score(), euclidean.score(trace)) << "capture " << t;
    }
  };
  push_and_compare(20);
  c.arm(TrojanKind::kT2Leakage);
  push_and_compare(20);
  c.disarm_all();
  EXPECT_EQ(monitor.stats().scored_captures, 40u);
  EXPECT_EQ(monitor.state(), core::MonitorState::kAlarm);
}

TEST(Integration, TrustEvaluatorEndToEndVerdicts) {
  Chip& c = chip();
  const auto eval =
      core::TrustEvaluator::calibrate(capture_set(c, Pickup::kOnChipSensor, 32, 70000));

  const auto clean = eval.evaluate(capture_set(c, Pickup::kOnChipSensor, 12, 71000));
  EXPECT_EQ(clean.verdict, core::Verdict::kTrusted) << clean.summary();

  c.arm(TrojanKind::kT4PowerHog);
  const auto infected = eval.evaluate(capture_set(c, Pickup::kOnChipSensor, 12, 72000));
  c.disarm_all();
  EXPECT_NE(infected.verdict, core::Verdict::kTrusted) << infected.summary();
  EXPECT_GT(infected.mean_distance, clean.mean_distance);
}

}  // namespace
}  // namespace emts
