// Cross-cutting property tests: each pits a fast implementation against a
// slow-but-obviously-correct reference, or checks a physical invariant the
// models must not break (reciprocity, superposition, energy conservation).
#include <gtest/gtest.h>

#include <cmath>

#include "em/biot_savart.hpp"
#include "em/coil.hpp"
#include "em/mutual.hpp"
#include "layout/power_grid.hpp"
#include "power/current_trace.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts {
namespace {

// ---------- EM reciprocity ----------

TEST(EmProperties, NeumannMutualInductanceIsReciprocal) {
  // M(A,B) == M(B,A) for arbitrary loop pairs.
  Rng rng{17};
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<layout::Segment> a;
    std::vector<layout::Segment> b;
    auto random_loop = [&](double scale, double z) {
      std::vector<layout::Segment> loop;
      layout::Vec3 first{rng.uniform(0.0, scale), rng.uniform(0.0, scale), z};
      layout::Vec3 prev = first;
      for (int i = 0; i < 4; ++i) {
        layout::Vec3 next = i == 3
                                ? first
                                : layout::Vec3{rng.uniform(0.0, scale),
                                               rng.uniform(0.0, scale), z};
        loop.push_back(layout::Segment{prev, next});
        prev = next;
      }
      return loop;
    };
    a = random_loop(0.01, 0.0);
    b = random_loop(0.01, 0.004);
    const em::MutualOptions options{5e-4, 0.0};
    const double m_ab = em::mutual_inductance(a, b, options);
    const double m_ba = em::mutual_inductance(b, a, options);
    EXPECT_NEAR(m_ab, m_ba, 1e-12 + 1e-9 * std::abs(m_ab)) << "trial " << trial;
  }
}

TEST(EmProperties, FieldSuperposition) {
  // B(path1 + path2) = B(path1) + B(path2).
  const layout::Segment s1{layout::Vec3{0, 0, 0}, layout::Vec3{1e-3, 0, 0}};
  const layout::Segment s2{layout::Vec3{1e-3, 0, 0}, layout::Vec3{1e-3, 1e-3, 0}};
  const layout::Vec3 p{0.5e-3, 0.3e-3, 0.2e-3};
  const auto both = em::path_field({s1, s2}, 2.0, p);
  const auto separate = em::segment_field(s1, 2.0, p) + em::segment_field(s2, 2.0, p);
  EXPECT_NEAR(both.x, separate.x, 1e-18);
  EXPECT_NEAR(both.y, separate.y, 1e-18);
  EXPECT_NEAR(both.z, separate.z, 1e-18);
}

TEST(EmProperties, FluxLinearInCurrent) {
  const layout::DieSpec die{};
  const auto fp = layout::reference_floorplan(die);
  const auto loops = layout::supply_loops(fp, layout::PadRing::for_die(die));
  const em::TurnSurface surf{em::TurnSurface::Shape::kRect, die.sensor_z, 0.2e-3, 0.2e-3,
                             1.8e-3, 1.8e-3};
  const double f1 = em::flux_through_surface(loops[0].segments, 1.0, surf);
  const double f5 = em::flux_through_surface(loops[0].segments, 5.0, surf);
  EXPECT_NEAR(f5, 5.0 * f1, 1e-9 * std::abs(f5) + 1e-24);
}

TEST(EmProperties, CouplingDecaysWithCoilHeight) {
  // Raising the pickup plane monotonically weakens the coupling magnitude.
  const layout::DieSpec die{};
  const auto fp = layout::reference_floorplan(die);
  const auto loops = layout::supply_loops(fp, layout::PadRing::for_die(die));
  const auto& loop = loops.front();
  double prev = 1e9;
  for (double z : {10e-6, 50e-6, 200e-6, 1e-3}) {
    const em::TurnSurface surf{em::TurnSurface::Shape::kDisk, z, 1e-3, 1e-3, 0.9e-3, 0.0};
    const double m = std::abs(em::flux_through_surface(loop.segments, 1.0, surf));
    EXPECT_LT(m, prev) << "z = " << z;
    prev = m;
  }
}

// ---------- power model invariants ----------

TEST(PowerProperties, SuperpositionOfContributions) {
  power::ClockSpec clock{};
  power::CurrentTrace combined{clock, 16};
  power::CurrentTrace only_a{clock, 16};
  power::CurrentTrace only_b{clock, 16};

  combined.add_pulse({2, 40.0, 300.0, 2000.0}, 8.0);
  combined.add_dc(1e-4);
  only_a.add_pulse({2, 40.0, 300.0, 2000.0}, 8.0);
  only_b.add_dc(1e-4);

  for (std::size_t i = 0; i < combined.samples().size(); ++i) {
    EXPECT_NEAR(combined.samples()[i], only_a.samples()[i] + only_b.samples()[i], 1e-18);
  }
}

TEST(PowerProperties, DerivativeIntegratesBackToCurrentDeltas) {
  power::ClockSpec clock{};
  power::CurrentTrace trace{clock, 8};
  trace.add_pulse({1, 25.0, 400.0, 3000.0}, 12.0);
  trace.add_pulse({5, 60.0, 100.0, 1500.0}, 12.0);
  const auto didt = trace.derivative();
  // Trapezoid-free check: cumulative sum of dI/dt * dt recovers I (up to the
  // first-sample convention).
  const double dt = 1.0 / trace.sample_rate();
  double acc = trace.samples()[0];
  for (std::size_t i = 1; i < didt.size(); ++i) {
    acc += didt[i] * dt;
    EXPECT_NEAR(acc, trace.samples()[i], 1e-12 + 1e-9 * std::abs(acc)) << "sample " << i;
  }
}

// ---------- statistics sanity ----------

TEST(StatsProperties, RmsDominatedByMeanAndStd) {
  // rms^2 = mean^2 + population variance (exactly).
  Rng rng{23};
  std::vector<double> v(5000);
  for (double& x : v) x = rng.gaussian(3.0, 2.0);
  const double m = stats::mean(v);
  double pop_var = 0.0;
  for (double x : v) pop_var += (x - m) * (x - m);
  pop_var /= static_cast<double>(v.size());
  EXPECT_NEAR(stats::rms(v) * stats::rms(v), m * m + pop_var, 1e-9);
}

}  // namespace
}  // namespace emts
