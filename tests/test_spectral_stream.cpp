// The incremental spectral pipeline, layer by layer: the analyzer's
// streaming mean-spectrum mode (one real-split FFT per push plus a running
// per-bin sum) against an O(n^2) DFT oracle, the ring's per-slot spectrum
// cache, the detector's stream_observe/stream_finish pair, and the monitor's
// windowed reports against SpectralDetector::analyze over the same window,
// bit for bit, over long randomized streams — including ring wraparound,
// alarm re-arm and snapshot/restore cut mid-window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/monitor.hpp"
#include "core/ring.hpp"
#include "core/spectral.hpp"
#include "dsp/spectrum.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "dft_oracle.hpp"

namespace emts::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n, double amplitude) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

std::vector<double> noisy_tone(emts::Rng& rng, double freq, double fs, std::size_t n) {
  auto sig = tone(freq, fs, n, 1.0);
  for (double& v : sig) v += rng.gaussian(0.0, 0.5);
  return sig;
}

double peak_amplitude(const std::vector<double>& amplitude) {
  double peak = 0.0;
  for (double a : amplitude) peak = std::max(peak, a);
  return peak;
}

// The real-split transform against a direct DFT that shares no FFT code
// with it: equal to rounding (1e-12 × peak). amplitude_spectrum runs the
// same analyzer, so it equals the transform bit for bit.
TEST(SpectrumStream, TransformMatchesDftOracleToRounding) {
  emts::Rng rng{901};
  auto expect_matches_oracle = [](const std::vector<double>& sig, const SpectrumOptions& options) {
    const std::size_t n = sig.size();
    const std::vector<double> reference = oracle::dft_amplitude_spectrum(sig, options);

    SpectrumAnalyzer analyzer{options};
    analyzer.ensure_stream(n, 1000.0);
    std::vector<double> amp;
    analyzer.stream_transform(sig, amp);

    ASSERT_EQ(amp.size(), reference.size()) << "length " << n;
    const double peak = peak_amplitude(reference);
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_NEAR(amp[k], reference[k], 1e-12 * peak) << "n " << n << " bin " << k;
    }
    EXPECT_EQ(amplitude_spectrum(sig, 1000.0, options).amplitude, amp) << "length " << n;
  };

  for (std::size_t n : {64u, 512u, 1000u, 4096u}) {  // 1000: zero-padding; 4096: a capture
    std::vector<double> sig(n);
    for (double& v : sig) v = rng.gaussian();
    expect_matches_oracle(sig, SpectrumOptions{});
  }

  // Tiny lengths, rectangular and not detrended so the bins are non-zero:
  // n = 1 takes the closed form (a 1-point FFT is the sample itself), n = 2
  // and 3 the smallest half-size plans.
  for (std::size_t n : {1u, 2u, 3u}) {
    std::vector<double> sig(n);
    for (double& v : sig) v = rng.gaussian();
    expect_matches_oracle(sig, SpectrumOptions{WindowKind::kRectangular, false});
  }
}

// The running mean against the DFT oracle's mean, to rounding; mean_spectrum
// runs the same pushes, so it equals the running mean bit for bit.
TEST(SpectrumStream, PushedMeanMatchesDftOracleToRounding) {
  emts::Rng rng{902};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 7; ++t) signals.push_back(noisy_tone(rng, 125.0, 1000.0, 512));
  const std::vector<double> reference = oracle::dft_mean_spectrum(signals);

  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(512, 1000.0);
  std::vector<double> amp;
  for (const auto& sig : signals) analyzer.stream_push(sig, amp);
  EXPECT_EQ(analyzer.stream_count(), signals.size());
  EXPECT_EQ(analyzer.stream_updates_since_rebuild(), signals.size());
  const Spectrum& streamed = analyzer.stream_mean();

  ASSERT_EQ(streamed.size(), reference.size());
  const double peak = peak_amplitude(reference);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_NEAR(streamed.amplitude[k], reference[k], 1e-12 * peak) << "bin " << k;
  }
  EXPECT_EQ(mean_spectrum(signals, 1000.0).amplitude, streamed.amplitude);
}

// The drift-bounding rebuild — reset, then re-accumulate the cached per-push
// amplitudes in arrival order — reproduces the running sum bit-exactly:
// windows tumble, so it adds the very same values in the very same order.
TEST(SpectrumStream, RebuildFromCachedSpectraIsBitExact) {
  emts::Rng rng{903};
  constexpr std::size_t kWindow = 4;
  std::vector<std::vector<double>> amps(kWindow);  // cached per-trace amplitudes

  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(256, 1000.0);
  for (auto& amp : amps) analyzer.stream_push(noisy_tone(rng, 125.0, 1000.0, 256), amp);
  const std::vector<double> running = analyzer.stream_sum();
  EXPECT_EQ(analyzer.stream_updates_since_rebuild(), kWindow);

  analyzer.stream_reset();
  for (const auto& amp : amps) analyzer.stream_accumulate(amp);
  analyzer.stream_mark_rebuilt();
  EXPECT_EQ(analyzer.stream_count(), kWindow);
  EXPECT_EQ(analyzer.stream_updates_since_rebuild(), 0u);
  EXPECT_EQ(analyzer.stream_sum(), running);  // bitwise
}

// stream_reset() clears the accumulator but NOT the lifetime update counter —
// a tumbling window that resets every boundary must still hit the rebuild
// cadence eventually.
TEST(SpectrumStream, ResetKeepsTheLifetimeUpdateCounter) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(128, 1000.0);
  std::vector<double> amp;
  for (int round = 0; round < 3; ++round) {
    analyzer.stream_push(tone(125.0, 1000.0, 128, 1.0), amp);
    analyzer.stream_push(tone(250.0, 1000.0, 128, 1.0), amp);
    analyzer.stream_reset();
    EXPECT_EQ(analyzer.stream_count(), 0u);
  }
  EXPECT_EQ(analyzer.stream_updates_since_rebuild(), 6u);
  analyzer.stream_mark_rebuilt();
  EXPECT_EQ(analyzer.stream_updates_since_rebuild(), 0u);
}

TEST(SpectrumStream, RestoreContinuesBitIdentically) {
  emts::Rng rng{904};
  std::vector<std::vector<double>> signals;
  for (int t = 0; t < 6; ++t) signals.push_back(noisy_tone(rng, 125.0, 1000.0, 256));

  SpectrumAnalyzer uninterrupted;
  uninterrupted.ensure_stream(256, 1000.0);
  std::vector<double> amp;
  for (const auto& sig : signals) uninterrupted.stream_push(sig, amp);

  // Cut after 3 pushes, restore the accumulator verbatim, finish the stream.
  SpectrumAnalyzer first_half;
  first_half.ensure_stream(256, 1000.0);
  for (int t = 0; t < 3; ++t) first_half.stream_push(signals[static_cast<std::size_t>(t)], amp);

  SpectrumAnalyzer restored;
  restored.ensure_stream(256, 1000.0);
  restored.stream_restore(first_half.stream_sum(), first_half.stream_count(),
                          first_half.stream_updates_since_rebuild());
  for (std::size_t t = 3; t < signals.size(); ++t) restored.stream_push(signals[t], amp);

  EXPECT_EQ(restored.stream_count(), uninterrupted.stream_count());
  EXPECT_EQ(restored.stream_updates_since_rebuild(),
            uninterrupted.stream_updates_since_rebuild());
  EXPECT_EQ(restored.stream_sum(), uninterrupted.stream_sum());  // bitwise
}

TEST(SpectrumStream, RejectsMidStreamShapeChange) {
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(128, 1000.0);
  std::vector<double> amp;
  analyzer.stream_push(tone(125.0, 1000.0, 128, 1.0), amp);
  // Resizing a non-empty accumulator would silently corrupt the mean.
  EXPECT_THROW(analyzer.ensure_stream(256, 1000.0), emts::precondition_error);
  // Same shape is always fine mid-stream.
  analyzer.ensure_stream(128, 1000.0);
  EXPECT_EQ(analyzer.stream_count(), 1u);
}

}  // namespace
}  // namespace emts::dsp

namespace emts::core {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 2048;

Trace golden_trace(emts::Rng& rng) {
  Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] = std::sin(2.0 * units::pi * 48e6 * static_cast<double>(i) / kFs) +
           rng.gaussian(0.0, 0.08);
  }
  return t;
}

Trace infected_trace(emts::Rng& rng) {
  Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

RuntimeMonitor::Options small_options() {
  RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

void expect_reports_equivalent(const SpectralReport& incremental,
                               const SpectralReport& batch, const char* context) {
  ASSERT_EQ(incremental.anomalies.size(), batch.anomalies.size()) << context;
  for (std::size_t a = 0; a < batch.anomalies.size(); ++a) {
    const SpectralAnomaly& lhs = incremental.anomalies[a];
    const SpectralAnomaly& rhs = batch.anomalies[a];
    EXPECT_EQ(lhs.kind, rhs.kind) << context << " anomaly " << a;
    EXPECT_EQ(lhs.frequency_hz, rhs.frequency_hz) << context << " anomaly " << a;
    EXPECT_EQ(lhs.golden_amplitude, rhs.golden_amplitude) << context << " anomaly " << a;
    // Both paths run the same transform and sum in the same order: exact.
    EXPECT_EQ(lhs.suspect_amplitude, rhs.suspect_amplitude) << context << " anomaly " << a;
    EXPECT_EQ(lhs.ratio, rhs.ratio) << context << " anomaly " << a;
  }
}

// ---------- TraceRing spectrum cache ----------

TEST(TraceRingSpectrumCache, FollowsSlotsAcrossWraparoundAndClear) {
  TraceRing ring{3};
  EXPECT_FALSE(ring.spectrum_cache_enabled());
  ring.enable_spectrum_cache(4);
  ASSERT_TRUE(ring.spectrum_cache_enabled());
  ring.enable_spectrum_cache(4);  // idempotent for the same bin count

  const Trace trace(16, 0.5);
  for (int t = 0; t < 5; ++t) {  // 5 pushes into 3 slots: wraps around
    ring.push(trace);
    auto& spectrum = ring.newest_spectrum();
    ASSERT_EQ(spectrum.size(), 4u);
    std::fill(spectrum.begin(), spectrum.end(), static_cast<double>(t));
  }
  ASSERT_EQ(ring.size(), 3u);
  // Arrival order survives the wrap: oldest_spectrum(i) tracks oldest(i).
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.oldest_spectrum(i)[0], static_cast<double>(2 + i)) << "entry " << i;
  }

  // clear() keeps the cache storage, exactly like the slot storage: the next
  // push rewinds to slot 0, whose cache still holds push 3's fill value.
  ring.clear();
  EXPECT_TRUE(ring.spectrum_cache_enabled());
  ring.push(trace);
  EXPECT_EQ(ring.newest_spectrum().size(), 4u);
  EXPECT_EQ(ring.newest_spectrum()[0], 3.0);
}

TEST(TraceRingSpectrumCache, GuardsMisuse) {
  TraceRing ring{2};
  EXPECT_THROW(ring.enable_spectrum_cache(0), emts::precondition_error);
  ring.push(Trace(8, 0.0));
  EXPECT_THROW(ring.newest_spectrum(), emts::precondition_error);  // cache off
  ring.enable_spectrum_cache(4);
  EXPECT_THROW(ring.oldest_spectrum(1), emts::precondition_error);  // out of range
}

// ---------- SpectralDetector stream path ----------

TEST(SpectralDetectorStream, StreamFinishMatchesAnalyze) {
  const auto detector = SpectralDetector::calibrate(make_set(16, false, 910));
  const TraceSet suspect = make_set(8, true, 911);
  const SpectralReport batch = detector.analyze(suspect);

  auto stream_scratch = detector.make_scratch();
  TraceRing stream_ring{8};
  for (const auto& trace : suspect.traces) {
    stream_ring.push(trace);
    detector.stream_observe(stream_ring, kFs, stream_scratch);
  }
  bool rebuilt = false;
  const SpectralReport& streamed =
      detector.stream_finish(stream_ring, kFs, stream_scratch, 4096, rebuilt);
  EXPECT_FALSE(rebuilt);  // 8 updates, cadence 4096
  EXPECT_TRUE(streamed.anomalous());
  expect_reports_equivalent(streamed, batch, "infected window");

  // Cadence 1 forces the drift rebuild; the report must not move a bit
  // relative to the non-rebuilt finish on the same accumulator state.
  auto rebuild_scratch = detector.make_scratch();
  TraceRing rebuild_ring{8};
  for (const auto& trace : suspect.traces) {
    rebuild_ring.push(trace);
    detector.stream_observe(rebuild_ring, kFs, rebuild_scratch);
  }
  const SpectralReport& rebuilt_report =
      detector.stream_finish(rebuild_ring, kFs, rebuild_scratch, 1, rebuilt);
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(rebuild_scratch.analyzer.stream_updates_since_rebuild(), 0u);
  ASSERT_EQ(rebuilt_report.anomalies.size(), streamed.anomalies.size());
  for (std::size_t a = 0; a < streamed.anomalies.size(); ++a) {
    EXPECT_EQ(rebuilt_report.anomalies[a].ratio, streamed.anomalies[a].ratio)
        << "anomaly " << a;  // bitwise: rebuild re-sums the same cached values
  }
}

// ---------- RuntimeMonitor: windowed reports vs analyze() ----------

// One long randomized stream through a monitor: at every window boundary the
// monitor's report (running accumulator) must equal SpectralDetector::analyze
// over the same window bit for bit, every anomaly field included. Covers
// dozens of window boundaries, ring reuse, alarm re-arm and both anomaly
// kinds.
TEST(RuntimeMonitorIncremental, LongRandomizedStreamMatchesBatchPath) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 920));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  TraceSet window;  // the traces the monitor's next windowed pass will see
  window.sample_rate = kFs;

  emts::Rng stream_rng{921};
  emts::Rng trace_rng{922};
  std::uint64_t compared = 0;
  std::uint64_t anomalous = 0;
  for (int i = 0; i < 240; ++i) {
    // Randomized regime switches: mostly golden with infected bursts.
    const bool infected = stream_rng.uniform() < 0.18;
    const Trace t = infected ? infected_trace(trace_rng) : golden_trace(trace_rng);
    const std::uint64_t passes = monitor.stats().spectral_passes;
    const MonitorState state = monitor.push(t);
    window.add(t);

    if (monitor.stats().spectral_passes != passes) {
      ASSERT_EQ(window.size(), small_options().spectral_window) << "push " << i;
      ASSERT_TRUE(monitor.last_spectral().has_value()) << "push " << i;
      const SpectralReport batch = evaluator.spectral().analyze(window);
      expect_reports_equivalent(*monitor.last_spectral(), batch, "windowed report");
      ++compared;
      if (batch.anomalous()) ++anomalous;
      window.traces.clear();
    }
    if (state == MonitorState::kAlarm) {
      monitor.acknowledge_alarm();  // re-arming drops the partial window
      window.traces.clear();
    }
  }

  const MonitorStats& stats = monitor.stats();
  EXPECT_EQ(compared, stats.spectral_passes);
  EXPECT_GE(compared, 25u);  // dozens of window boundaries ran
  EXPECT_GT(anomalous, 0u);
  EXPECT_LT(anomalous, compared);  // clean windows were compared too
  EXPECT_EQ(anomalous, stats.windowed_anomalies);
  EXPECT_GT(stats.alarms_latched, 0u);  // the bursts actually latched
  // Path accounting: every scored push fed the accumulator, and 240 updates
  // never reach the default 4096-update rebuild cadence.
  EXPECT_EQ(stats.spectral_incremental_updates, stats.scored_captures);
  EXPECT_EQ(stats.spectral_recomputes, 0u);
}

// A tight rebuild cadence must not move any score: in tumbling-window mode
// the rebuild re-sums exactly the values the incremental path just added, so
// the stream is bit-identical at every cadence.
TEST(RuntimeMonitorIncremental, RebuildCadenceIsScoreNeutral) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 930));
  RuntimeMonitor::Options eager = small_options();
  eager.spectral_rebuild_every = 1;  // rebuild at every window boundary
  RuntimeMonitor relaxed{kFs, evaluator, small_options()};
  RuntimeMonitor rebuilding{kFs, evaluator, eager};

  const TraceSet stream = make_set(40, false, 931);
  for (const auto& trace : stream.traces) {
    relaxed.push(trace);
    rebuilding.push(trace);
    ASSERT_EQ(rebuilding.state(), relaxed.state());
    ASSERT_EQ(rebuilding.last_score(), relaxed.last_score());
  }
  EXPECT_EQ(rebuilding.stats().spectral_passes, relaxed.stats().spectral_passes);
  // Cadence 1: every boundary rebuilt. Default cadence: none reached 4096.
  EXPECT_EQ(rebuilding.stats().spectral_recomputes, rebuilding.stats().spectral_passes);
  EXPECT_EQ(relaxed.stats().spectral_recomputes, 0u);
}

// Export mid-window (a partially accumulated spectral sum in flight), restore
// into a fresh monitor, and finish the stream in both worlds: the restored
// accumulator continues bit-identically to the uninterrupted one.
TEST(RuntimeMonitorIncremental, SnapshotRestoreMidWindowContinuesBitIdentically) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 940));
  RuntimeMonitor reference{kFs, evaluator, small_options()};
  RuntimeMonitor exporter{kFs, evaluator, small_options()};

  TraceSet stream = make_set(10, false, 941);
  for (auto& t : make_set(9, true, 942).traces) stream.add(std::move(t));
  for (auto& t : make_set(10, false, 943).traces) stream.add(std::move(t));

  for (const auto& trace : stream.traces) {
    reference.push(trace);
    if (reference.state() == MonitorState::kAlarm) reference.acknowledge_alarm();
  }

  // Cut at trace 15: the alarm latched (and was acknowledged, clearing the
  // window) at trace 12, so the cut lands two traces into a fresh window —
  // a partially accumulated spectral sum is in flight.
  const std::size_t cut = 15;
  for (std::size_t i = 0; i < cut; ++i) {
    exporter.push(stream.traces[i]);
    if (exporter.state() == MonitorState::kAlarm) exporter.acknowledge_alarm();
  }
  const MonitorStateImage image = exporter.export_state();
  ASSERT_GT(image.window.size(), 0u);
  ASSERT_LT(image.window.size(), 8u);  // genuinely mid-window
  EXPECT_EQ(image.spectral_count, image.window.size());
  ASSERT_FALSE(image.spectral_sum.empty());

  RuntimeMonitor restored{kFs, evaluator, small_options()};
  restored.restore_state(image);
  for (std::size_t i = cut; i < stream.size(); ++i) {
    restored.push(stream.traces[i]);
    if (restored.state() == MonitorState::kAlarm) restored.acknowledge_alarm();
  }

  EXPECT_EQ(restored.state(), reference.state());
  EXPECT_EQ(restored.last_score(), reference.last_score());  // bitwise
  EXPECT_EQ(restored.stats().spectral_passes, reference.stats().spectral_passes);
  EXPECT_EQ(restored.stats().windowed_anomalies, reference.stats().windowed_anomalies);
  EXPECT_EQ(restored.stats().alarms_latched, reference.stats().alarms_latched);
  EXPECT_EQ(restored.stats().spectral_incremental_updates,
            reference.stats().spectral_incremental_updates);
  ASSERT_EQ(restored.last_spectral().has_value(), reference.last_spectral().has_value());
  if (restored.last_spectral().has_value()) {
    const auto& lhs = restored.last_spectral()->anomalies;
    const auto& rhs = reference.last_spectral()->anomalies;
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t a = 0; a < rhs.size(); ++a) {
      EXPECT_EQ(lhs[a].ratio, rhs[a].ratio) << "anomaly " << a;  // bitwise
    }
  }
}

// Restore must also refuse an image whose rebuild cadence disagrees with the
// target's — it would silently desynchronize the recompute counter from the
// exporter's stream.
TEST(RuntimeMonitorIncremental, RestoreRefusesMismatchedIncrementalOptions) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 950));
  RuntimeMonitor exporter{kFs, evaluator, small_options()};
  emts::Rng rng{951};
  exporter.push(golden_trace(rng));
  const MonitorStateImage image = exporter.export_state();

  RuntimeMonitor::Options cadence_options = small_options();
  cadence_options.spectral_rebuild_every = 7;
  RuntimeMonitor cadence_target{kFs, evaluator, cadence_options};
  EXPECT_THROW(cadence_target.restore_state(image), emts::precondition_error);
}

// Regression: an accumulator that does not describe its window used to
// restore cleanly and then throw on the next window boundary (a diverged
// count) or on every push (a foreign bin count) — in a fleet, each throw a
// worker fault. Restore must refuse both up front, refuse an accumulator on
// a stack without a spectral stage, and accept the untouched images.
TEST(RuntimeMonitorIncremental, RestoreRefusesAccumulatorThatDisagreesWithWindow) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 970));
  RuntimeMonitor exporter{kFs, evaluator, small_options()};
  const TraceSet stream = make_set(15, false, 971);
  for (std::size_t i = 0; i < 3; ++i) exporter.push(stream.traces[i]);
  const MonitorStateImage image = exporter.export_state();
  ASSERT_EQ(image.window.size(), 3u);
  ASSERT_EQ(image.spectral_sum.size(), kLen / 2 + 1);

  auto refused = [&](const MonitorStateImage& crafted) {
    RuntimeMonitor target{kFs, evaluator, small_options()};
    EXPECT_THROW(target.restore_state(crafted), emts::precondition_error);
  };
  MonitorStateImage zero_count = image;
  zero_count.spectral_count = 0;
  refused(zero_count);
  MonitorStateImage three_bins = image;
  three_bins.spectral_sum.resize(3);
  refused(three_bins);
  MonitorStateImage no_bins = image;
  no_bins.spectral_sum.clear();
  refused(no_bins);
  MonitorStateImage huge_length = image;  // no power-of-two ceiling: refused, not hung
  huge_length.window.clear();
  huge_length.spectral_count = 0;
  huge_length.expected_length = ~std::uint64_t{0};
  refused(huge_length);

  RuntimeMonitor restored{kFs, evaluator, small_options()};
  restored.restore_state(image);
  for (std::size_t i = 3; i < stream.size(); ++i) restored.push(stream.traces[i]);
  EXPECT_EQ(restored.stats().spectral_passes, 1u);  // 3 restored + 5 pushed

  TrustEvaluator::Options euclidean_only;
  euclidean_only.detectors = {"euclidean"};
  const auto plain = TrustEvaluator::calibrate(make_set(30, false, 972), euclidean_only);
  RuntimeMonitor plain_exporter{kFs, plain, small_options()};
  plain_exporter.push(stream.traces[0]);
  const MonitorStateImage plain_image = plain_exporter.export_state();
  EXPECT_TRUE(plain_image.spectral_sum.empty());
  MonitorStateImage stray = plain_image;
  stray.spectral_sum = image.spectral_sum;
  stray.spectral_count = 1;
  RuntimeMonitor plain_target{kFs, plain, small_options()};
  EXPECT_THROW(plain_target.restore_state(stray), emts::precondition_error);
  plain_target.restore_state(plain_image);
  EXPECT_EQ(plain_target.traces_seen(), 1u);
}

// The incremental path inherits the zero-allocation contract: after warm-up,
// a push (FFT + accumulate + cached-spectrum write) allocates nothing, across
// window boundaries and drift rebuilds alike.
TEST(RuntimeMonitorIncremental, SteadyStatePushStaysAllocationFree) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 960));
  RuntimeMonitor::Options opt = small_options();
  opt.spectral_rebuild_every = 8;  // a rebuild lands inside the measured span
  RuntimeMonitor monitor{kFs, evaluator, opt};
  const TraceSet stream = make_set(16, false, 961);

  for (int round = 0; round < 2; ++round) {
    for (const auto& trace : stream.traces) monitor.push(trace);
  }

  const auto before = util::alloc::thread_counts();
  for (const auto& trace : stream.traces) monitor.push(trace);
  const auto after = util::alloc::thread_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "incremental push allocated " << (after.bytes - before.bytes) << " bytes";
  EXPECT_GT(monitor.stats().spectral_recomputes, 0u);  // the rebuild did run
}

TEST(RuntimeMonitorIncremental, RejectsZeroRebuildCadence) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 990));
  RuntimeMonitor::Options bad = small_options();
  bad.spectral_rebuild_every = 0;
  EXPECT_THROW((RuntimeMonitor{kFs, evaluator, bad}), emts::precondition_error);
}

}  // namespace
}  // namespace emts::core
