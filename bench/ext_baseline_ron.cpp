// Extension bench: the EM-sensor framework vs the ring-oscillator-network
// baseline (paper ref. [10]) — quantifying Sec. I's criticism that prior
// on-chip structures "share a common problem of low coverage rates". Each
// Trojan is scored by both detectors under identical conditions; the RON
// catches what moves average current near an oscillator and misses the
// rest, while the EM framework's distance + spectral stack covers all five.
#include <cstdio>
#include <string>

#include "baseline/ron.hpp"
#include "bench_util.hpp"
#include "core/euclidean.hpp"
#include "core/spectral.hpp"
#include "io/table.hpp"

using namespace emts;

int main() {
  std::printf("=== Extension: EM framework vs ring-oscillator-network baseline ===\n\n");

  sim::Chip chip{sim::make_default_config()};

  // EM framework: distance + spectral detectors on the on-chip sensor.
  const auto golden_traces = bench::capture_set(chip, sim::Pickup::kOnChipSensor, 48, 0);
  const auto euclid = core::EuclideanDetector::calibrate(golden_traces);
  const auto spectral = core::SpectralDetector::calibrate(golden_traces);

  // RON baseline: 4x4 oscillators, golden-calibrated z-test.
  const baseline::RonNetwork ron{chip.config().die};
  Rng rng{0x30a};
  std::vector<baseline::RonReading> golden_readings;
  for (std::uint64_t t = 0; t < 24; ++t) {
    golden_readings.push_back(ron.measure(chip, true, t, rng));
  }
  const baseline::RonDetector ron_detector{golden_readings};

  io::Table table{{"trojan", "EM distance margin", "EM spectral", "EM verdict", "RON max |z|",
                   "RON verdict"}};
  bench::ShapeChecks checks;
  std::size_t em_caught = 0;
  std::size_t ron_caught = 0;
  bool ron_missed_a2 = false;

  for (trojan::TrojanKind kind : trojan::kAllTrojanKinds) {
    chip.arm(kind);
    const auto suspect = bench::capture_set(chip, sim::Pickup::kOnChipSensor, 16, 7000);
    const double margin = euclid.population_distance(suspect) / euclid.threshold();
    const bool spectral_hit = spectral.analyze(suspect).anomalous();

    // Median RON z over a few readings (one reading can jitter).
    double z_sum = 0.0;
    for (std::uint64_t t = 0; t < 5; ++t) {
      z_sum += ron_detector.max_z(ron.measure(chip, true, 7000 + t, rng));
    }
    const double ron_z = z_sum / 5.0;
    chip.disarm_all();

    const bool em_hit = margin > 1.0 || spectral_hit;
    const bool ron_hit = ron_z > ron_detector.threshold();
    em_caught += em_hit;
    ron_caught += ron_hit;
    if (kind == trojan::TrojanKind::kA2Analog && !ron_hit) ron_missed_a2 = true;

    table.add_row({trojan::kind_label(kind), io::Table::num(margin, 3),
                   spectral_hit ? "anomaly" : "-", em_hit ? "DETECTED" : "missed",
                   io::Table::num(ron_z, 3), ron_hit ? "DETECTED" : "missed"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("EM framework coverage: %zu/5    RON coverage: %zu/5\n\n", em_caught, ron_caught);

  checks.expect(em_caught == 5, "EM framework covers all five Trojans");
  checks.expect(ron_caught < 5, "RON's coverage is partial (the paper's Sec. I argument)");
  checks.expect(ron_missed_a2, "RON misses the A2 analog Trojan");
  checks.expect(em_caught > ron_caught, "the on-chip EM sensor out-covers the RON baseline");
  return checks.exit_code();
}
