// CaptureEngine contract tests: the determinism guarantees that make the
// parallel acquisition layer safe to substitute for the historical serial
// loops everywhere (benches, examples, tools).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/chip.hpp"
#include "sim/engine.hpp"
#include "stats/snr.hpp"

using namespace emts;

namespace {

core::TraceSet serial_batch(const sim::Chip& chip, sim::Pickup pickup, std::size_t count,
                            std::uint64_t first, bool encrypting = true) {
  core::TraceSet set;
  set.sample_rate = chip.sample_rate();
  for (std::uint64_t t = 0; t < count; ++t) {
    set.add(chip.capture(encrypting, first + t).of(pickup));
  }
  return set;
}

void expect_identical(const core::TraceSet& a, const core::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.trace_length(), b.trace_length());
  EXPECT_DOUBLE_EQ(a.sample_rate, b.sample_rate);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Byte-identical, not approximately equal: same index -> same RNG stream
    // -> the same doubles, whatever thread produced them.
    EXPECT_EQ(a.traces[i], b.traces[i]) << "trace " << i << " differs";
  }
}

}  // namespace

// The capture core is a pure function of (seed, trace_index, encrypting,
// armed Trojan): two independently constructed Chips replay the exact same
// realizations for the same index.
TEST(CaptureEngine, CaptureIsPureAcrossChipInstances) {
  const sim::ChipConfig config = sim::make_default_config();
  const sim::Chip a{config};
  const sim::Chip b{config};
  for (std::uint64_t index : {0ull, 1ull, 937ull, 1048576ull}) {
    const auto ca = a.capture(true, index);
    const auto cb = b.capture(true, index);
    EXPECT_EQ(ca.onchip_v, cb.onchip_v) << "index " << index;
    EXPECT_EQ(ca.external_v, cb.external_v) << "index " << index;
  }
  // Idle windows draw from a distinct stream but are equally reproducible.
  EXPECT_EQ(a.capture(false, 7).onchip_v, b.capture(false, 7).onchip_v);
  EXPECT_NE(a.capture(false, 7).onchip_v, a.capture(true, 7).onchip_v);
}

// Arming a Trojan moves captures onto a different (still deterministic)
// noise stream; disarming restores the golden realizations exactly.
TEST(CaptureEngine, ArmedStreamIsDistinctAndReversible) {
  sim::Chip chip{sim::make_default_config()};
  const auto golden = chip.capture(true, 11).onchip_v;
  chip.arm(trojan::TrojanKind::kT2Leakage);
  const auto armed_once = chip.capture(true, 11).onchip_v;
  const auto armed_twice = chip.capture(true, 11).onchip_v;
  chip.disarm_all();
  EXPECT_NE(golden, armed_once);
  EXPECT_EQ(armed_once, armed_twice);
  EXPECT_EQ(chip.capture(true, 11).onchip_v, golden);
}

// The headline guarantee: engine output is byte-identical to the serial
// loop for every thread count, including counts far above the trace count.
TEST(CaptureEngine, BatchMatchesSerialForEveryThreadCount) {
  const sim::Chip chip{sim::make_default_config()};
  constexpr std::size_t kCount = 24;
  constexpr std::uint64_t kFirst = 4242;
  const auto serial = serial_batch(chip, sim::Pickup::kOnChipSensor, kCount, kFirst);

  for (std::size_t threads : {1u, 2u, 8u}) {
    sim::EngineOptions options;
    options.threads = threads;
    options.chunk = 3;  // deliberately not a divisor of kCount
    const sim::CaptureEngine engine{options};
    ASSERT_EQ(engine.thread_count(), threads);
    const auto batch =
        engine.capture_batch(chip, sim::Pickup::kOnChipSensor, kCount, kFirst);
    expect_identical(serial, batch);
  }
}

TEST(CaptureEngine, IdleAndExternalBatchesMatchSerial) {
  const sim::Chip chip{sim::make_default_config()};
  sim::EngineOptions options;
  options.threads = 4;
  const sim::CaptureEngine engine{options};
  expect_identical(serial_batch(chip, sim::Pickup::kExternalProbe, 10, 5, false),
                   engine.capture_batch(chip, sim::Pickup::kExternalProbe, 10, 5, false));
}

// capture_pair_batch records both pickups from the same physical windows, so
// each side must equal the corresponding single-pickup batch.
TEST(CaptureEngine, PairBatchMatchesSinglePickupBatches) {
  const sim::Chip chip{sim::make_default_config()};
  sim::EngineOptions options;
  options.threads = 2;
  const sim::CaptureEngine engine{options};
  const auto pair = engine.capture_pair_batch(chip, 12, 77);
  expect_identical(pair.onchip,
                   engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 12, 77));
  expect_identical(pair.external,
                   engine.capture_batch(chip, sim::Pickup::kExternalProbe, 12, 77));
}

// The single-pickup capture measures only the pickup it is asked for, from
// the same physics and the same per-pickup noise stream as capture(): bit for
// bit the pair's trace, for both pickups, encrypting and idle, golden and
// with each Trojan armed.
TEST(CaptureEngine, SinglePickupCaptureEqualsPairCapture) {
  sim::Chip chip{sim::make_default_config()};
  std::vector<std::optional<trojan::TrojanKind>> conditions{std::nullopt};
  for (const auto kind : trojan::kAllTrojanKinds) conditions.emplace_back(kind);
  for (const auto& armed : conditions) {
    if (armed) {
      chip.arm(*armed);
    } else {
      chip.disarm_all();
    }
    for (const bool encrypting : {true, false}) {
      for (const std::uint64_t index : {3ull, 4099ull}) {
        const sim::Acquisition pair = chip.capture(encrypting, index);
        for (const auto pickup : {sim::Pickup::kOnChipSensor, sim::Pickup::kExternalProbe}) {
          EXPECT_EQ(chip.capture(pickup, encrypting, index), pair.of(pickup))
              << "armed " << (armed ? static_cast<int>(*armed) : -1) << " encrypting "
              << encrypting << " index " << index << " pickup " << static_cast<int>(pickup);
        }
      }
    }
  }
}

// snr_batch is the paper's recipe (signal windows then idle windows) run
// through the pool; it must agree exactly with the hand-rolled computation.
TEST(CaptureEngine, SnrBatchMatchesSerialRecipe) {
  const sim::Chip chip{sim::make_default_config()};
  constexpr std::size_t kWindows = 6;
  constexpr std::uint64_t kBase = 100;
  std::vector<double> signal;
  std::vector<double> idle;
  for (std::uint64_t t = 0; t < kWindows; ++t) {
    const auto s = chip.capture(true, kBase + t).onchip_v;
    signal.insert(signal.end(), s.begin(), s.end());
    const auto n = chip.capture(false, kBase + kWindows + t).onchip_v;
    idle.insert(idle.end(), n.begin(), n.end());
  }
  const double expected = stats::snr_db(signal, idle);

  sim::EngineOptions options;
  options.threads = 4;
  const sim::CaptureEngine engine{options};
  EXPECT_DOUBLE_EQ(
      engine.snr_batch(chip, sim::Pickup::kOnChipSensor, kWindows, kBase), expected);
}

TEST(CaptureEngine, EmptyBatchIsWellFormed) {
  const sim::Chip chip{sim::make_default_config()};
  const sim::CaptureEngine engine{sim::EngineOptions{2, 4}};
  const auto set = engine.capture_batch(chip, sim::Pickup::kOnChipSensor, 0, 0);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_DOUBLE_EQ(set.sample_rate, chip.sample_rate());
}

// Regression: EMTS_THREADS comes from deployment scripts, so garbage ("4x",
// "", "-2", "0", absurd counts) must fall back to the hardware default
// instead of strtoul's silent misparse (e.g. "-2" wrapping to huge, "4x"
// truncating to 4).
TEST(CaptureEngine, EnvThreadOverrideParsedDefensively) {
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  sim::EngineOptions options;
  options.threads = 0;  // defer to the environment

  for (const char* bad : {"4x", "x4", "", "-2", "0", "9999999", "1e3", "3.5"}) {
    ASSERT_EQ(setenv("EMTS_THREADS", bad, 1), 0);
    const sim::CaptureEngine engine{options};
    EXPECT_EQ(engine.thread_count(), hw) << "EMTS_THREADS=\"" << bad << '"';
  }

  ASSERT_EQ(setenv("EMTS_THREADS", "3", 1), 0);
  {
    const sim::CaptureEngine engine{options};
    EXPECT_EQ(engine.thread_count(), 3u);
  }

  // An explicit option always beats the environment.
  ASSERT_EQ(setenv("EMTS_THREADS", "7", 1), 0);
  {
    sim::EngineOptions explicit_options;
    explicit_options.threads = 2;
    const sim::CaptureEngine engine{explicit_options};
    EXPECT_EQ(engine.thread_count(), 2u);
  }
  ASSERT_EQ(unsetenv("EMTS_THREADS"), 0);
}

// A worker exception must surface on the calling thread, and the engine must
// stay usable afterwards.
TEST(CaptureEngine, ParallelForPropagatesExceptions) {
  const sim::CaptureEngine engine{sim::EngineOptions{4, 2}};
  EXPECT_THROW(engine.parallel_for(
                   32,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
               std::runtime_error);

  std::vector<int> hits(64, 0);
  engine.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}
