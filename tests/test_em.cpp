#include "em/biot_savart.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "em/coil.hpp"
#include "em/mutual.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::em {
namespace {

using layout::DieSpec;

// Square loop of side `a` centered at origin in the z=0 plane, CCW from +z.
std::vector<Segment> square_loop(double a) {
  const double h = a / 2.0;
  return {
      Segment{Vec3{-h, -h, 0}, Vec3{h, -h, 0}},
      Segment{Vec3{h, -h, 0}, Vec3{h, h, 0}},
      Segment{Vec3{h, h, 0}, Vec3{-h, h, 0}},
      Segment{Vec3{-h, h, 0}, Vec3{-h, -h, 0}},
  };
}

std::vector<Segment> circle_loop(double radius, double z, std::size_t n = 256) {
  std::vector<Segment> path;
  for (std::size_t i = 0; i < n; ++i) {
    const double a0 = 2.0 * units::pi * static_cast<double>(i) / static_cast<double>(n);
    const double a1 = 2.0 * units::pi * static_cast<double>(i + 1) / static_cast<double>(n);
    path.push_back(Segment{Vec3{radius * std::cos(a0), radius * std::sin(a0), z},
                           Vec3{radius * std::cos(a1), radius * std::sin(a1), z}});
  }
  return path;
}

TEST(BiotSavart, LongWireMatchesInfiniteWireFormula) {
  // 2 m segment, field probed 1 mm away at its middle: B = mu0 I / (2 pi d).
  const Segment wire{Vec3{-1, 0, 0}, Vec3{1, 0, 0}};
  const double d = 1e-3;
  const double current = 2.0;
  const Vec3 b = segment_field(wire, current, Vec3{0, d, 0});
  const double expected = units::mu0 * current / (2.0 * units::pi * d);
  EXPECT_NEAR(std::abs(b.z), expected, 1e-6 * expected);
  EXPECT_NEAR(b.x, 0.0, 1e-20);
  EXPECT_NEAR(b.y, 0.0, 1e-20);
}

TEST(BiotSavart, FieldDirectionFollowsRightHandRule) {
  // Current along +x, probe at +y: B must point along -z... check: u x d_hat
  // with u=+x, d=+y gives +z direction times (cos_a - cos_b) > 0 -> +z.
  const Segment wire{Vec3{-1, 0, 0}, Vec3{1, 0, 0}};
  const Vec3 b = segment_field(wire, 1.0, Vec3{0, 0.01, 0});
  EXPECT_GT(b.z, 0.0);
  // Flip the current: field flips.
  const Segment rev{Vec3{1, 0, 0}, Vec3{-1, 0, 0}};
  const Vec3 b2 = segment_field(rev, 1.0, Vec3{0, 0.01, 0});
  EXPECT_LT(b2.z, 0.0);
  EXPECT_NEAR(b.z, -b2.z, 1e-18);
}

TEST(BiotSavart, SquareLoopCenterMatchesAnalytic) {
  // B at the center of a square loop of side a: 2*sqrt(2)*mu0*I/(pi*a).
  const double a = 0.01;
  const double current = 1.5;
  const Vec3 b = path_field(square_loop(a), current, Vec3{0, 0, 0});
  const double expected = 2.0 * std::sqrt(2.0) * units::mu0 * current / (units::pi * a);
  EXPECT_NEAR(b.z, expected, 1e-9 * expected);
}

TEST(BiotSavart, CircularLoopAxisMatchesAnalytic) {
  // On-axis field of a circular loop: mu0 I r^2 / (2 (r^2+z^2)^{3/2}).
  const double r = 5e-3;
  const double z = 2e-3;
  const double current = 0.7;
  const Vec3 b = path_field(circle_loop(r, 0.0), current, Vec3{0, 0, z});
  const double expected =
      units::mu0 * current * r * r / (2.0 * std::pow(r * r + z * z, 1.5));
  EXPECT_NEAR(b.z, expected, 1e-3 * expected);
}

TEST(BiotSavart, FieldScalesLinearlyWithCurrent) {
  const auto loop = square_loop(0.01);
  const Vec3 b1 = path_field(loop, 1.0, Vec3{0.001, 0.002, 0.003});
  const Vec3 b3 = path_field(loop, 3.0, Vec3{0.001, 0.002, 0.003});
  EXPECT_NEAR(b3.z, 3.0 * b1.z, 1e-18);
  EXPECT_NEAR(b3.x, 3.0 * b1.x, 1e-18);
}

TEST(BiotSavart, OnAxisPointIsRegularized) {
  const Segment wire{Vec3{0, 0, 0}, Vec3{1, 0, 0}};
  const Vec3 on_axis = segment_field(wire, 1.0, Vec3{0.5, 0, 0});
  EXPECT_DOUBLE_EQ(on_axis.norm(), 0.0);
  const Vec3 at_end = segment_field(wire, 1.0, Vec3{1, 0, 0});
  EXPECT_DOUBLE_EQ(at_end.norm(), 0.0);
}

TEST(BiotSavart, SubdivisionPreservesField) {
  const Segment wire{Vec3{-0.5, 0, 0}, Vec3{0.5, 0, 0}};
  const Vec3 probe{0.1, 0.02, 0.01};
  const Vec3 whole = segment_field(wire, 1.0, probe);
  Vec3 split{};
  for (const Segment& s : subdivide(wire, 0.07)) {
    split = split + segment_field(s, 1.0, probe);
  }
  EXPECT_NEAR(split.x, whole.x, 1e-12);
  EXPECT_NEAR(split.y, whole.y, 1e-12);
  EXPECT_NEAR(split.z, whole.z, 1e-12);
}

TEST(BiotSavart, SubdivideCountsAndEndpoints) {
  const Segment s{Vec3{0, 0, 0}, Vec3{1, 0, 0}};
  const auto pieces = subdivide(s, 0.3);
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_DOUBLE_EQ(pieces.front().a.x, 0.0);
  EXPECT_DOUBLE_EQ(pieces.back().b.x, 1.0);
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    EXPECT_DOUBLE_EQ(pieces[i].a.x, pieces[i - 1].b.x);
  }
}

TEST(VectorPotential, CurlRecoversField) {
  // Numerically differentiate A and compare with the analytic B.
  const Segment wire{Vec3{-0.3, 0.01, 0}, Vec3{0.4, -0.02, 0.05}};
  const Vec3 p{0.05, 0.06, 0.04};
  const double eps = 1e-6;
  auto a_at = [&](const Vec3& q) { return segment_vector_potential(wire, 1.3, q); };
  const Vec3 dadx = (a_at(Vec3{p.x + eps, p.y, p.z}) - a_at(Vec3{p.x - eps, p.y, p.z})) *
                    (1.0 / (2.0 * eps));
  const Vec3 dady = (a_at(Vec3{p.x, p.y + eps, p.z}) - a_at(Vec3{p.x, p.y - eps, p.z})) *
                    (1.0 / (2.0 * eps));
  const Vec3 dadz = (a_at(Vec3{p.x, p.y, p.z + eps}) - a_at(Vec3{p.x, p.y, p.z - eps})) *
                    (1.0 / (2.0 * eps));
  const Vec3 curl{dady.z - dadz.y, dadz.x - dadx.z, dadx.y - dady.x};
  const Vec3 b = segment_field(wire, 1.3, p);
  EXPECT_NEAR(curl.x, b.x, 1e-6 * b.norm() + 1e-18);
  EXPECT_NEAR(curl.y, b.y, 1e-6 * b.norm() + 1e-18);
  EXPECT_NEAR(curl.z, b.z, 1e-6 * b.norm() + 1e-18);
}

TEST(Flux, UniformFarLoopMatchesBzTimesArea) {
  // Small surface far under a big loop: flux ~ Bz(center) * area.
  const auto loop = circle_loop(0.1, 0.0);
  const TurnSurface surface{TurnSurface::Shape::kRect, 0.001, -0.001, -0.001, 0.001, 0.001};
  const double flux = flux_through_surface(loop, 2.0, surface);
  const double bz = path_field(loop, 2.0, Vec3{0, 0, 0.001}).z;
  EXPECT_NEAR(flux, bz * surface.area(), 0.01 * std::abs(bz * surface.area()));
}

TEST(Flux, ConcentricLoopsMatchAnalyticMutual) {
  // Coplanar concentric circular loops, r_small << r_big:
  // M = mu0 * pi * r_small^2 / (2 * r_big).
  const double r_big = 0.2;
  const double r_small = 0.01;
  const auto big = circle_loop(r_big, 0.0);
  const TurnSurface small_surface{TurnSurface::Shape::kDisk, 0.0, 0.0, 0.0, r_small, 0.0};
  const double m = flux_through_surface(big, 1.0, small_surface, FluxOptions{1e-3});
  const double expected = units::mu0 * units::pi * r_small * r_small / (2.0 * r_big);
  EXPECT_NEAR(m, expected, 0.01 * expected);
}

TEST(Flux, NeumannAgreesWithFluxForSeparatedLoops) {
  // Two coaxial circular loops separated enough for the Neumann sum.
  const double r = 0.05;
  const auto a = circle_loop(r, 0.0, 128);
  const auto b_path = circle_loop(r, 0.02, 128);
  MutualOptions neumann;
  neumann.max_element = 2e-3;
  neumann.regularization = 0.0;
  const double m_neumann = mutual_inductance(a, b_path, neumann);

  const TurnSurface disk{TurnSurface::Shape::kDisk, 0.02, 0.0, 0.0, r, 0.0};
  const double m_flux = flux_through_surface(a, 1.0, disk, FluxOptions{1e-3});
  EXPECT_NEAR(m_neumann, m_flux, 0.03 * std::abs(m_flux));
}

TEST(Flux, ReversingSourceCurrentFlipsSign) {
  const auto loop = square_loop(0.02);
  const TurnSurface surf{TurnSurface::Shape::kRect, 0.002, -0.005, -0.005, 0.005, 0.005};
  const double f1 = flux_through_surface(loop, 1.0, surf);
  const double f2 = flux_through_surface(loop, -1.0, surf);
  EXPECT_NEAR(f1, -f2, 1e-18 + 1e-9 * std::abs(f1));
}

TEST(Coil, OnChipSpiralCoversDieAndMeetsDrc) {
  const DieSpec die{};
  const OnChipSpiralSpec spec{};
  const Coil coil = make_onchip_spiral(die, spec);
  EXPECT_EQ(coil.turns.size(), spec.turns);
  EXPECT_GT(coil.segment_count(), 4 * spec.turns - 1);
  // Every point on the sensor layer.
  for (const Segment& s : coil.path) {
    EXPECT_DOUBLE_EQ(s.a.z, die.sensor_z);
    EXPECT_GE(s.a.x, 0.0);
    EXPECT_LE(s.a.x, die.core_width);
  }
  // Outermost turn reaches near the core edge.
  const auto& outer = coil.turns.back();
  EXPECT_NEAR(outer.p0, spec.margin, 2e-4);
  // Turn areas strictly increase ("gradually increasing diameters").
  for (std::size_t k = 1; k < coil.turns.size(); ++k) {
    EXPECT_GT(coil.turns[k].area(), coil.turns[k - 1].area());
  }
}

TEST(Coil, SpiralRejectsDrcViolations) {
  const DieSpec die{};
  OnChipSpiralSpec narrow{};
  narrow.wire_width = die.min_wire_width / 2.0;
  EXPECT_THROW(make_onchip_spiral(die, narrow), emts::precondition_error);

  OnChipSpiralSpec too_many{};
  too_many.turns = 5000;  // pitch collapses below spacing rule
  EXPECT_THROW(make_onchip_spiral(die, too_many), emts::precondition_error);
}

TEST(Coil, ExternalProbeSitsAbovePackage) {
  const DieSpec die{};
  const ExternalProbeSpec spec{};
  const Coil probe = make_external_probe(die, spec);
  EXPECT_EQ(probe.turns.size(), spec.turns);
  const double min_z = die.sensor_z + die.package_top;
  for (const Segment& s : probe.path) {
    EXPECT_GE(s.a.z, min_z - 1e-12);
  }
}

TEST(Coil, ProbeTurnsShareOneDiameter) {
  const DieSpec die{};
  const Coil probe = make_external_probe(die, ExternalProbeSpec{});
  for (const auto& turn : probe.turns) {
    EXPECT_DOUBLE_EQ(turn.p2, ExternalProbeSpec{}.radius);
  }
}

TEST(Coil, TotalTurnAreaGrowsWithTurnCount) {
  const DieSpec die{};
  OnChipSpiralSpec few{};
  few.turns = 4;
  OnChipSpiralSpec many{};
  many.turns = 16;
  EXPECT_GT(make_onchip_spiral(die, many).total_turn_area(),
            make_onchip_spiral(die, few).total_turn_area());
}

}  // namespace
}  // namespace emts::em
