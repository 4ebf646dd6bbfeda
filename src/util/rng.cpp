#include "util/rng.hpp"

#include <array>
#include <cmath>

#include "util/assert.hpp"

namespace emts {

namespace {

// Ziggurat for the standard normal (Marsaglia & Tsang, J. Stat. Softw. 5(8),
// 2000): 128 layers of equal area v under f(x) = exp(-x^2 / 2). Layer i is
// the rectangle [0, x[i]) x [f[i], f[i + 1]); the base layer's part beyond r
// stands for the tail, whose area is v - r f(r).
constexpr std::size_t kZigguratLayers = 128;
constexpr double kZigguratR = 3.442619855899;
constexpr double kZigguratV = 9.91256303526217e-3;

struct ZigguratTables {
  std::array<double, kZigguratLayers + 1> x{};  // x[0] = v / f(r), x[1] = r, x[128] = 0
  std::array<double, kZigguratLayers + 1> f{};  // f(x[i]); f[0] = 0, the axis
};

const ZigguratTables& ziggurat_tables() {
  // Built once, on first use: a function-local static is thread-safe and
  // has no static-initialisation-order hazard.
  static const ZigguratTables tables = [] {
    ZigguratTables t;
    t.x[0] = kZigguratV / std::exp(-0.5 * kZigguratR * kZigguratR);
    t.x[1] = kZigguratR;
    for (std::size_t i = 1; i + 1 < kZigguratLayers; ++i) {
      // x[i + 1] = f^-1(f(x[i]) + v / x[i]): layer i has area v.
      t.x[i + 1] =
          std::sqrt(-2.0 * std::log(kZigguratV / t.x[i] + std::exp(-0.5 * t.x[i] * t.x[i])));
    }
    t.x[kZigguratLayers] = 0.0;
    for (std::size_t i = 1; i <= kZigguratLayers; ++i) t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
    return t;
  }();
  return tables;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_{0}, inc_{(stream << 1u) | 1u} {
  next_u32();
  state_ += mix64(seed);
  next_u32();
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() {
  // 53 random bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  EMTS_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint32_t Rng::uniform_below(std::uint32_t n) {
  EMTS_REQUIRE(n > 0, "uniform_below requires n > 0");
  const std::uint32_t threshold = (0u - n) % n;  // 2^32 mod n
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % n;
  }
}

double Rng::gaussian() {
  const ZigguratTables& z = ziggurat_tables();
  for (;;) {
    // One draw picks the layer (bits 0-6), the sign (bit 7) and a 53-bit
    // uniform position across the layer (bits 11-63).
    const std::uint64_t bits = next_u64();
    const auto layer = static_cast<std::size_t>(bits & 0x7fu);
    const bool negative = (bits & 0x80u) != 0;
    const double x = static_cast<double>(bits >> 11) * 0x1.0p-53 * z.x[layer];
    // Fast path: under the layer above, so under the curve at any height.
    if (x < z.x[layer + 1]) return negative ? -x : x;
    if (layer == 0) {
      // The base layer's overhang is the tail beyond r (Marsaglia 1964):
      // exponential proposals, accepted when 2y >= t^2.
      double t = 0.0;
      double y = 0.0;
      do {
        t = -std::log(1.0 - uniform()) / kZigguratR;
        y = -std::log(1.0 - uniform());
      } while (y + y < t * t);
      return negative ? -(kZigguratR + t) : kZigguratR + t;
    }
    // Wedge between the layer's rectangle and the curve: accept if a uniform
    // height in the layer lies under f(x); otherwise draw again.
    const double height = z.f[layer] + uniform() * (z.f[layer + 1] - z.f[layer]);
    if (height < std::exp(-0.5 * x * x)) return negative ? -x : x;
  }
}

double Rng::gaussian(double mean, double stddev) {
  EMTS_REQUIRE(stddev >= 0.0, "gaussian stddev must be non-negative");
  return mean + stddev * gaussian();
}

bool Rng::coin(double p_true) { return uniform() < p_true; }

std::vector<double> Rng::gaussian_vector(std::size_t n, double stddev) {
  std::vector<double> out(n);
  for (double& v : out) v = gaussian(0.0, stddev);
  return out;
}

Rng Rng::fork(std::uint64_t label) const {
  return Rng{mix64(state_ ^ mix64(label)), mix64(inc_ ^ label) | 1u};
}

}  // namespace emts
