// Ablation: challenge workload vs random traffic. The framework calibrates
// on a *known* workload (paper Sec. III-B: "the users know how the circuit
// will operate"). This bench measures what that assumption is worth — and
// finds a robustness result: with the default mean-pooling preprocessing,
// the data-dependent activity variation averages out below the noise floor,
// so EDth and the detection margins barely move under random traffic. The
// known-workload assumption buys repeatability (and matters for per-sample
// analyses such as TVLA), but the Eq. 1 detector does not depend on it.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/euclidean.hpp"
#include "io/table.hpp"

using namespace emts;

namespace {

struct Row {
  double edth = 0.0;
  double margin_t3 = 0.0;
  double margin_t4 = 0.0;
};

Row evaluate(bool fixed_workload) {
  sim::ChipConfig config = sim::make_default_config();
  config.fixed_challenge_workload = fixed_workload;
  sim::Chip chip{config};

  const auto det = core::EuclideanDetector::calibrate(
      bench::capture_set(chip, sim::Pickup::kOnChipSensor, 48, 0));

  Row row;
  row.edth = det.threshold();
  chip.arm(trojan::TrojanKind::kT3Cdma);
  row.margin_t3 = det.population_distance(
                      bench::capture_set(chip, sim::Pickup::kOnChipSensor, 16, 5000)) /
                  det.threshold();
  chip.arm(trojan::TrojanKind::kT4PowerHog);
  row.margin_t4 = det.population_distance(
                      bench::capture_set(chip, sim::Pickup::kOnChipSensor, 16, 6000)) /
                  det.threshold();
  chip.disarm_all();
  return row;
}

}  // namespace

int main() {
  std::printf("=== Ablation: fixed challenge workload vs random traffic ===\n\n");

  const Row fixed = evaluate(true);
  const Row random = evaluate(false);

  io::Table table{{"workload", "EDth", "T3 margin", "T4 margin"}};
  table.add_row({"fixed challenge (default)", io::Table::num(fixed.edth, 3),
                 io::Table::num(fixed.margin_t3, 3), io::Table::num(fixed.margin_t4, 3)});
  table.add_row({"random traffic", io::Table::num(random.edth, 3),
                 io::Table::num(random.margin_t3, 3), io::Table::num(random.margin_t4, 3)});
  std::printf("%s\n", table.render().c_str());
  std::printf("margin = population distance / EDth; > 1 means detected.\n\n");

  bench::ShapeChecks checks;
  checks.expect(std::abs(random.edth - fixed.edth) < 0.3 * fixed.edth,
                "EDth is workload-insensitive (mean pooling averages data variation out)");
  checks.expect(fixed.margin_t3 > 1.0, "T3 detected under the challenge workload");
  checks.expect(random.margin_t3 > 1.0, "T3 stays detectable under random traffic");
  checks.expect(random.margin_t4 > 1.0, "T4 stays detectable under random traffic");
  return checks.exit_code();
}
