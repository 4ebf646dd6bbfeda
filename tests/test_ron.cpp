#include "baseline/ron.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace emts::baseline {
namespace {

sim::Chip& chip() {
  static sim::Chip instance{sim::make_default_config()};
  instance.disarm_all();
  return instance;
}

RonNetwork network() { return RonNetwork{chip().config().die}; }

TEST(RonNetwork, PlacesAGridOfOscillators) {
  const auto ron = network();
  EXPECT_EQ(ron.oscillator_count(), 16u);
  const auto& die = chip().config().die;
  for (const auto& p : ron.positions()) {
    EXPECT_GT(p.x, 0.0);
    EXPECT_LT(p.x, die.core_width);
    EXPECT_GT(p.y, 0.0);
    EXPECT_LT(p.y, die.core_height);
  }
}

TEST(RonNetwork, LoadSlowsTheOscillators) {
  const auto ron = network();
  Rng rng{1};
  const auto idle = ron.measure(chip(), false, 0, rng);
  const auto busy = ron.measure(chip(), true, 0, rng);
  ASSERT_EQ(idle.size(), busy.size());
  // The encrypting chip draws more current -> lower counts on average.
  double idle_sum = 0.0;
  double busy_sum = 0.0;
  for (std::size_t o = 0; o < idle.size(); ++o) {
    idle_sum += idle[o];
    busy_sum += busy[o];
  }
  EXPECT_LT(busy_sum, idle_sum);
}

TEST(RonNetwork, NearbyOscillatorsDroopMore) {
  // T4 sits in the lower-right quadrant: with T4 armed, the RO closest to it
  // must lose more cycles than the farthest RO.
  const auto ron = network();
  sim::Chip& c = chip();
  Rng rng_a{2};
  Rng rng_b{2};
  const auto golden = ron.measure(c, true, 1, rng_a);
  c.arm(trojan::TrojanKind::kT4PowerHog);
  const auto infected = ron.measure(c, true, 1, rng_b);
  c.disarm_all();

  const auto& t4 = c.floorplan().module(layout::module_names::kTrojan4);
  std::size_t nearest = 0;
  std::size_t farthest = 0;
  double dmin = 1e300;
  double dmax = -1.0;
  for (std::size_t o = 0; o < ron.oscillator_count(); ++o) {
    const double dx = ron.positions()[o].x - t4.region.cx();
    const double dy = ron.positions()[o].y - t4.region.cy();
    const double d = dx * dx + dy * dy;
    if (d < dmin) {
      dmin = d;
      nearest = o;
    }
    if (d > dmax) {
      dmax = d;
      farthest = o;
    }
  }
  const double droop_near = golden[nearest] - infected[nearest];
  const double droop_far = golden[farthest] - infected[farthest];
  EXPECT_GT(droop_near, droop_far);
}

TEST(RonDetector, CalibrationAndGoldenReadingsCalm) {
  const auto ron = network();
  Rng rng{3};
  std::vector<RonReading> golden;
  for (std::uint64_t t = 0; t < 20; ++t) golden.push_back(ron.measure(chip(), true, t, rng));
  const RonDetector detector{golden};
  std::size_t alarms = 0;
  for (std::uint64_t t = 100; t < 120; ++t) {
    alarms += detector.is_anomalous(ron.measure(chip(), true, t, rng));
  }
  EXPECT_LE(alarms, 2u);
}

TEST(RonDetector, CatchesTheBigPowerHog) {
  // T4 is exactly what RON was designed for: a large always-on load.
  const auto ron = network();
  sim::Chip& c = chip();
  Rng rng{4};
  std::vector<RonReading> golden;
  for (std::uint64_t t = 0; t < 20; ++t) golden.push_back(ron.measure(c, true, t, rng));
  const RonDetector detector{golden};

  c.arm(trojan::TrojanKind::kT4PowerHog);
  const auto reading = ron.measure(c, true, 200, rng);
  c.disarm_all();
  EXPECT_TRUE(detector.is_anomalous(reading));
}

TEST(RonDetector, MissesTheA2Trigger) {
  // The low-coverage problem (paper Sec. I): A2's sub-milliamp oscillation
  // barely moves any RO's average load.
  const auto ron = network();
  sim::Chip& c = chip();
  Rng rng{5};
  std::vector<RonReading> golden;
  for (std::uint64_t t = 0; t < 20; ++t) golden.push_back(ron.measure(c, true, t, rng));
  const RonDetector detector{golden};

  c.arm(trojan::TrojanKind::kA2Analog);
  std::size_t alarms = 0;
  for (std::uint64_t t = 300; t < 310; ++t) {
    alarms += detector.is_anomalous(ron.measure(c, true, t, rng));
  }
  c.disarm_all();
  EXPECT_LE(alarms, 2u) << "RON should be (nearly) blind to A2";
}

TEST(RonDetector, RejectsBadInputs) {
  EXPECT_THROW(RonDetector(std::vector<RonReading>{{1.0}}, 4.0), emts::precondition_error);
  const auto ron = network();
  Rng rng{6};
  std::vector<RonReading> golden;
  for (std::uint64_t t = 0; t < 5; ++t) golden.push_back(ron.measure(chip(), true, t, rng));
  const RonDetector detector{golden};
  EXPECT_THROW(detector.max_z(RonReading(3, 0.0)), emts::precondition_error);
}

}  // namespace
}  // namespace emts::baseline
