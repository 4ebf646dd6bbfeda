// Detector tests on synthetic traces with known structure — the detectors
// never see the chip simulator here, proving the core library stands alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/euclidean.hpp"
#include "core/evaluator.hpp"
#include "core/ring.hpp"
#include "core/ron.hpp"
#include "core/spectral.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::core {
namespace {

constexpr double kFs = 384e6;
constexpr std::size_t kLen = 4096;

// Golden trace: clock-like tone + harmonic + noise.
Trace golden_trace(emts::Rng& rng) {
  Trace t(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    const double x = static_cast<double>(i);
    t[i] = 1.0 * std::sin(2.0 * units::pi * 48e6 * x / kFs) +
           0.4 * std::sin(2.0 * units::pi * 96e6 * x / kFs) + rng.gaussian(0.0, 0.1);
  }
  return t;
}

TraceSet golden_set(std::size_t n, std::uint64_t seed = 1) {
  emts::Rng rng{seed};
  TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) set.add(golden_trace(rng));
  return set;
}

// Anomalous trace: golden plus an extra tone of given amplitude/frequency.
Trace infected_trace(emts::Rng& rng, double amp, double freq) {
  Trace t = golden_trace(rng);
  for (std::size_t i = 0; i < kLen; ++i) {
    t[i] += amp * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / kFs);
  }
  return t;
}

// ---------- EuclideanDetector ----------

TEST(EuclideanDetector, GoldenTracesScoreBelowThreshold) {
  const auto det = EuclideanDetector::calibrate(golden_set(40));
  emts::Rng rng{99};
  std::size_t beyond = 0;
  for (int i = 0; i < 50; ++i) {
    beyond += det.is_anomalous(golden_trace(rng));
  }
  // Eq. 1 (max pairwise) is conservative; fresh golden traces should very
  // rarely exceed it.
  EXPECT_LE(beyond, 3u);
}

TEST(EuclideanDetector, StrongAnomalyScoresAboveThreshold) {
  const auto det = EuclideanDetector::calibrate(golden_set(40));
  emts::Rng rng{100};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(det.is_anomalous(infected_trace(rng, 0.5, 31e6))) << i;
  }
}

TEST(EuclideanDetector, ScoreGrowsWithAnomalyAmplitude) {
  const auto det = EuclideanDetector::calibrate(golden_set(40));
  emts::Rng rng{101};
  double prev = 0.0;
  for (double amp : {0.05, 0.2, 0.8}) {
    const double s = det.score(infected_trace(rng, amp, 31e6));
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(EuclideanDetector, ThresholdIsMaxPairwiseGoldenDistance) {
  // With 3 known feature vectors the Eq. 1 threshold is hand-checkable.
  TraceSet tiny;
  tiny.sample_rate = 1e6;
  tiny.add(Trace{1, 0, 0, 0});
  tiny.add(Trace{0, 1, 0, 0});
  tiny.add(Trace{0, 0, 2, 0});
  EuclideanDetector::Options opt;
  opt.preprocess.decimation = 1;
  opt.preprocess.remove_mean = false;
  opt.preprocess.normalize_rms = false;
  opt.pca_components = 3;
  opt.include_residual = false;
  const auto det = EuclideanDetector::calibrate(tiny, opt);
  // Full-rank PCA preserves distances; max pairwise: between traces 2 and 3:
  // sqrt(1 + 4) = sqrt(5).
  EXPECT_NEAR(det.threshold(), std::sqrt(5.0), 1e-9);
}

TEST(EuclideanDetector, ResidualCatchesOutOfSubspaceAnomaly) {
  // Golden variation confined to feature 0; anomaly lives on feature 3.
  emts::Rng rng{7};
  TraceSet golden;
  golden.sample_rate = 1e6;
  for (int i = 0; i < 30; ++i) {
    Trace t(8, 0.0);
    t[0] = rng.gaussian();
    golden.add(t);
  }
  EuclideanDetector::Options opt;
  opt.preprocess.decimation = 1;
  opt.preprocess.remove_mean = false;
  opt.preprocess.normalize_rms = false;
  opt.pca_components = 1;

  opt.include_residual = true;
  const auto with_residual = EuclideanDetector::calibrate(golden, opt);
  opt.include_residual = false;
  const auto without = EuclideanDetector::calibrate(golden, opt);

  Trace anomaly(8, 0.0);
  anomaly[3] = 10.0;  // orthogonal to golden variation
  EXPECT_TRUE(with_residual.is_anomalous(anomaly));
  EXPECT_FALSE(without.is_anomalous(anomaly))
      << "pure projection is blind to orthogonal shifts — the residual term exists for this";
}

TEST(EuclideanDetector, PopulationDistanceSeparatesShiftedSets) {
  const auto det = EuclideanDetector::calibrate(golden_set(30));
  emts::Rng rng{11};
  TraceSet clean;
  clean.sample_rate = kFs;
  TraceSet shifted;
  shifted.sample_rate = kFs;
  for (int i = 0; i < 20; ++i) {
    clean.add(golden_trace(rng));
    shifted.add(infected_trace(rng, 0.3, 31e6));
  }
  EXPECT_GT(det.population_distance(shifted), 4.0 * det.population_distance(clean));
}

TEST(EuclideanDetector, CalibrationRequiresThreeTraces) {
  TraceSet two;
  two.sample_rate = 1e6;
  two.add(Trace{1, 2});
  two.add(Trace{2, 1});
  EXPECT_THROW(EuclideanDetector::calibrate(two), emts::precondition_error);
}

TEST(EuclideanDetector, ScoreAllMatchesScore) {
  const auto det = EuclideanDetector::calibrate(golden_set(20));
  const auto set = golden_set(5, 77);
  const auto scores = det.score_all(set);
  ASSERT_EQ(scores.size(), 5u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_DOUBLE_EQ(scores[i], det.score(set.traces[i]));
  }
}

// ---------- SpectralDetector ----------

TEST(SpectralDetector, GoldenSpotsFoundAtClockAndHarmonic) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  ASSERT_GE(det.golden_spots().size(), 2u);
  // Strongest two spots: 48 MHz and 96 MHz.
  EXPECT_NEAR(det.golden_spots()[0].frequency, 48e6, 1e6);
  EXPECT_NEAR(det.golden_spots()[1].frequency, 96e6, 1e6);
}

TEST(SpectralDetector, CleanSuspectRaisesNoAnomaly) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  const auto report = det.analyze(golden_set(8, 55));
  EXPECT_FALSE(report.anomalous());
}

TEST(SpectralDetector, NewToneReportedAsNewSpot) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  emts::Rng rng{5};
  TraceSet suspect;
  suspect.sample_rate = kFs;
  for (int i = 0; i < 8; ++i) suspect.add(infected_trace(rng, 0.3, 72e6));
  const auto report = det.analyze(suspect);
  ASSERT_TRUE(report.anomalous());
  bool found = false;
  for (const auto& a : report.anomalies) {
    if (a.kind == SpectralAnomalyKind::kNewSpot && std::abs(a.frequency_hz - 72e6) < 1e6) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpectralDetector, AmplifiedCarrierReportedAsAmplifiedSpot) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  emts::Rng rng{6};
  TraceSet suspect;
  suspect.sample_rate = kFs;
  for (int i = 0; i < 8; ++i) {
    suspect.add(infected_trace(rng, 1.2, 48e6));  // doubles the clock tone
  }
  const auto report = det.analyze(suspect);
  ASSERT_TRUE(report.anomalous());
  bool found = false;
  for (const auto& a : report.anomalies) {
    if (a.kind == SpectralAnomalyKind::kAmplifiedSpot && std::abs(a.frequency_hz - 48e6) < 1e6) {
      found = true;
      EXPECT_GT(a.ratio, 1.6);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpectralDetector, WeakToneBelowFloorIgnored) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  emts::Rng rng{8};
  TraceSet suspect;
  suspect.sample_rate = kFs;
  for (int i = 0; i < 8; ++i) suspect.add(infected_trace(rng, 0.002, 72e6));
  EXPECT_FALSE(det.analyze(suspect).anomalous());
}

TEST(SpectralDetector, AnomaliesSortedByRatio) {
  const auto det = SpectralDetector::calibrate(golden_set(16));
  emts::Rng rng{9};
  TraceSet suspect;
  suspect.sample_rate = kFs;
  for (int i = 0; i < 8; ++i) {
    Trace t = infected_trace(rng, 0.5, 72e6);
    for (std::size_t k = 0; k < kLen; ++k) {
      t[k] += 0.15 * std::sin(2.0 * units::pi * 31e6 * static_cast<double>(k) / kFs);
    }
    suspect.add(t);
  }
  const auto report = det.analyze(suspect);
  ASSERT_GE(report.anomalies.size(), 2u);
  for (std::size_t i = 1; i < report.anomalies.size(); ++i) {
    EXPECT_GE(report.anomalies[i - 1].ratio, report.anomalies[i].ratio);
  }
}

TEST(SpectralDetector, RejectsMismatchedSampleRate) {
  const auto det = SpectralDetector::calibrate(golden_set(4));
  TraceSet wrong;
  wrong.sample_rate = kFs / 2.0;
  wrong.add(Trace(kLen, 0.0));
  EXPECT_THROW(det.analyze(wrong), emts::precondition_error);
}

TEST(SpectralDetector, SingleTraceAnalyzeOverloadWorks) {
  const auto det = SpectralDetector::calibrate(golden_set(8));
  emts::Rng rng{10};
  const auto report = det.analyze(infected_trace(rng, 0.5, 72e6));
  EXPECT_TRUE(report.anomalous());
}

// The incremental window pass refuses what analyze() refuses — an empty
// window, a foreign sample rate — and a ring whose traces the accumulator
// did not observe.
TEST(SpectralDetector, StreamPathRejectsBadWindow) {
  const auto det = SpectralDetector::calibrate(golden_set(4));
  auto scratch = det.make_scratch();
  bool rebuilt = false;
  TraceRing empty{4};
  EXPECT_THROW(det.stream_observe(empty, kFs, scratch), emts::precondition_error);
  EXPECT_THROW(det.stream_finish(empty, kFs, scratch, 4096, rebuilt), emts::precondition_error);

  TraceRing ring{4};
  ring.push(Trace(kLen, 0.0));
  EXPECT_THROW(det.stream_observe(ring, kFs / 2.0, scratch), emts::precondition_error);
  det.stream_observe(ring, kFs, scratch);
  EXPECT_THROW(det.stream_finish(ring, kFs / 2.0, scratch, 4096, rebuilt),
               emts::precondition_error);
  EXPECT_THROW(det.stream_finish(ring, kFs, scratch, 0, rebuilt), emts::precondition_error);
  ring.push(Trace(kLen, 0.0));  // never observed: the accumulator lags the ring
  EXPECT_THROW(det.stream_finish(ring, kFs, scratch, 4096, rebuilt), emts::precondition_error);
}

// Regression: a calibration campaign with a corrupt sample rate must be
// rejected up front — a 0/inf/NaN rate silently poisons every frequency the
// detector reports.
TEST(SpectralDetector, CalibrationRejectsBadSampleRate) {
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    TraceSet golden = golden_set(4);
    golden.sample_rate = bad;
    EXPECT_THROW(SpectralDetector::calibrate(golden), emts::precondition_error)
        << "sample_rate = " << bad;
  }
}

// Regression: load() must validate the sample rate too — a corrupted
// calibration artifact is the deployment-time twin of the test above. The
// serialized f64 sits at byte offset 37 (u32 window + u8 remove_mean +
// 3 x f64 factors + u64 match_bins).
TEST(SpectralDetector, LoadRejectsCorruptSampleRate) {
  const auto det = SpectralDetector::calibrate(golden_set(4));
  std::string saved;
  util::ByteWriter out{saved};
  det.save(out);
  std::string payload = saved;

  std::string inf_bytes;
  util::ByteWriter inf{inf_bytes};
  inf.f64(std::numeric_limits<double>::infinity());
  payload.replace(37, 8, inf_bytes);

  util::ByteReader in{payload};
  EXPECT_THROW(SpectralDetector::load(in), emts::precondition_error);

  // Unpatched payload still round-trips.
  util::ByteReader clean{saved};
  const auto restored = SpectralDetector::load(clean);
  EXPECT_EQ(restored.sample_rate(), det.sample_rate());
}

// ---------- Payload decoders refuse counts their bytes cannot back ----------

/// Loads `payload` with a count field overwritten by `count`; expects a
/// precondition_error, and (where the allocation hooks are live) that the
/// load requested no more heap than a few times the payload's own size.
template <class Load>
void expect_refused_without_allocating(std::string payload, std::size_t count_at,
                                       std::uint64_t count, Load load) {
  std::memcpy(payload.data() + count_at, &count, sizeof count);
  util::ByteReader in{payload};
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  EXPECT_THROW(load(in), emts::precondition_error) << "count " << count;
  if (util::alloc::counting_active()) {
    EXPECT_LT(util::alloc::thread_counts().bytes - before, 4 * payload.size())
        << "count " << count;
  }
}

// The projection count is checked against the bytes left before anything is
// reserved for it; reserving first, a count of 2^24 requests 402 MB from a
// few-KB payload and 2^31 throws std::bad_alloc, not precondition_error.
TEST(EuclideanDetector, LoadRefusesAProjectionCountTheBytesCannotBack) {
  const auto det = EuclideanDetector::calibrate(golden_set(20));
  std::string saved;
  util::ByteWriter out{saved};
  det.save(out);
  const std::size_t d = det.pca().input_dim();
  const std::size_t k = det.pca().components();
  // Preprocessor options (18) + residual flag (1) + PCA d, k and total
  // variance (24) + mean and eigenvalue vectors + the d x k basis.
  const std::size_t count_at = 19 + 24 + (8 + 8 * d) + (8 + 8 * k) + 8 * d * k;
  std::uint64_t own = 0;
  std::memcpy(&own, saved.data() + count_at, sizeof own);
  ASSERT_EQ(own, 20u);
  for (const std::uint64_t count : {1ull << 24, 1ull << 31, 0xFFFFFFFFull}) {
    expect_refused_without_allocating(saved, count_at, count,
                                      [](util::ByteReader& in) { EuclideanDetector::load(in); });
  }
}

TEST(SpectralDetector, LoadRefusesASpotCountTheBytesCannotBack) {
  const auto det = SpectralDetector::calibrate(golden_set(4));
  std::string saved;
  util::ByteWriter out{saved};
  det.save(out);
  // Options and sample rate (45) + the two spectrum vectors + noise floor.
  const std::size_t bins = det.golden_spectrum().size();
  const std::size_t spots_at = 45 + 2 * (8 + 8 * bins) + 8;
  std::uint64_t own = 0;
  std::memcpy(&own, saved.data() + spots_at, sizeof own);
  ASSERT_EQ(own, det.golden_spots().size());
  expect_refused_without_allocating(saved, spots_at, (1u << 20) - 1,
                                    [](util::ByteReader& in) { SpectralDetector::load(in); });
}

// ---------- Detector interface & the closed name set ----------

TEST(DetectorInterface, NameSwitchCoversTheClosedSet) {
  EXPECT_EQ(detector_kind("euclidean"), DetectorKind::kEuclidean);
  EXPECT_EQ(detector_kind("spectral"), DetectorKind::kSpectral);
  EXPECT_EQ(detector_kind("ron"), DetectorKind::kRon);
  for (const char* name : kDetectorNames) {
    EXPECT_STREQ(kDetectorNames[static_cast<std::size_t>(detector_kind(name))], name);
  }
}

// Each name, through TrustEvaluator::calibrate and through load_detector,
// scores exactly like the detector's own calibrate.
TEST(DetectorInterface, NameSwitchMatchesEachDetectorsOwnCalibrate) {
  const auto golden = golden_set(20);
  const std::shared_ptr<const Detector> own[] = {
      std::make_shared<const EuclideanDetector>(EuclideanDetector::calibrate(golden)),
      std::make_shared<const SpectralDetector>(SpectralDetector::calibrate(golden)),
      std::make_shared<const RonTraceDetector>(RonTraceDetector::calibrate(golden))};
  emts::Rng rng{42};
  const Trace clean = golden_trace(rng);
  const Trace bad = infected_trace(rng, 0.8, 72e6);
  for (const auto& direct : own) {
    TrustEvaluator::Options options;
    options.detectors = {direct->name()};
    const auto evaluator = TrustEvaluator::calibrate(golden, options);
    ASSERT_EQ(evaluator.detectors().size(), 1u);
    std::string bytes;
    util::ByteWriter payload{bytes};
    direct->save(payload);
    util::ByteReader in{bytes};
    const auto loaded = load_detector(direct->name(), in);
    for (const Detector* via : {evaluator.detectors().front().get(), loaded.get()}) {
      EXPECT_EQ(via->name(), direct->name());
      EXPECT_EQ(via->threshold(), direct->threshold()) << direct->name();
      EXPECT_EQ(via->score(clean), direct->score(clean)) << direct->name();
      EXPECT_EQ(via->score(bad), direct->score(bad)) << direct->name();
    }
  }
}

TEST(DetectorInterface, UnknownNameThrows) {
  TrustEvaluator::Options options;
  options.detectors = {"euclidean", "no-such-detector"};
  EXPECT_THROW(TrustEvaluator::calibrate(golden_set(4), options), emts::precondition_error);
  util::ByteReader payload{std::string_view{}};
  EXPECT_THROW(load_detector("no-such-detector", payload), emts::precondition_error);
  try {
    detector_kind("bogus");
    ADD_FAILURE() << "detector_kind accepted an unknown name";
  } catch (const emts::precondition_error& error) {
    EXPECT_NE(std::string{error.what()}.find("unknown detector 'bogus'"), std::string::npos);
  }
}

// The name list is checked whole before any stage is fitted: two golden
// traces are too few for the euclidean stage, so a stage fitted first would
// throw its own error instead of naming the bad entry.
TEST(DetectorInterface, BadNameListIsRefusedBeforeAnyStageIsFitted) {
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"euclidean", "euclidean"}, "duplicate detector 'euclidean'"},
      {{"euclidean", "spectral", "bogus"}, "unknown detector 'bogus'"}};
  for (const auto& [names, message] : cases) {
    TrustEvaluator::Options options;
    options.detectors = names;
    try {
      TrustEvaluator::calibrate(golden_set(2), options);
      ADD_FAILURE() << "accepted " << message;
    } catch (const emts::precondition_error& error) {
      EXPECT_NE(std::string{error.what()}.find(message), std::string::npos) << error.what();
    }
  }
}

TEST(DetectorInterface, PolymorphicScoringThroughBasePointer) {
  const auto golden = golden_set(20);
  std::vector<std::shared_ptr<const Detector>> stack;
  stack.push_back(std::make_shared<const EuclideanDetector>(EuclideanDetector::calibrate(golden)));
  stack.push_back(std::make_shared<const SpectralDetector>(SpectralDetector::calibrate(golden)));

  emts::Rng rng{43};
  // Composite anomaly: a slow tone that survives the Euclidean stage's 16x
  // decimation plus a fast tone for the spectral stage.
  Trace bad = infected_trace(rng, 0.8, 72e6);
  for (std::size_t i = 0; i < kLen; ++i) {
    bad[i] += 0.5 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  for (const auto& detector : stack) {
    EXPECT_FALSE(detector->name().empty());
    EXPECT_FALSE(detector->describe().empty());
    EXPECT_TRUE(detector->is_anomalous(bad)) << detector->name();
  }
}

TEST(DetectorInterface, SpectralIsWindowedWithZeroThreshold) {
  const auto det = SpectralDetector::calibrate(golden_set(8));
  EXPECT_TRUE(det.windowed());
  EXPECT_FALSE(EuclideanDetector::calibrate(golden_set(8)).windowed());
  // score() is the strongest anomaly ratio, so any positive score beats the
  // 0.0 threshold: is_anomalous(trace) == "analyze found something".
  EXPECT_DOUBLE_EQ(det.threshold(), 0.0);
  emts::Rng rng{44};
  EXPECT_GT(det.score(infected_trace(rng, 0.5, 72e6)), 0.0);
}

TEST(DetectorInterface, EvaluateSetReportsFractionAndAlarm) {
  const auto golden = golden_set(20);
  const auto det = EuclideanDetector::calibrate(golden);
  emts::Rng rng{45};
  TraceSet suspect;
  suspect.sample_rate = kFs;
  for (int i = 0; i < 10; ++i) suspect.add(infected_trace(rng, 0.8, 31e6));
  const DetectorReport report = det.evaluate_set(suspect, 0.5);
  EXPECT_EQ(report.name, "euclidean");
  EXPECT_TRUE(report.alarm);
  EXPECT_GT(report.anomalous_fraction, 0.9);
  EXPECT_GE(report.max_score, report.mean_score);
  EXPECT_NE(report.detail.find("threshold"), std::string::npos);
}

// ---------- Non-finite samples ----------

// One NaN or ±inf sample would poison a fit or a verdict (a NaN EDth, a NaN
// noise floor, a NaN mean distance), so every stage refuses the set and the
// message names the trace and the sample.
template <typename Call>
void expect_non_finite_refusal(Call call, const std::string& where) {
  try {
    call();
    ADD_FAILURE() << "no refusal for a non-finite " << where;
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find(where + " is not finite"), std::string::npos)
        << e.what();
  }
}

std::vector<TrustEvaluator::Options> every_stack() {
  std::vector<TrustEvaluator::Options> stacks(3);
  stacks[1].detectors = {"spectral"};
  stacks[2].detectors = {"ron"};
  return stacks;
}

TEST(TrustEvaluator, CalibrateRefusesAGoldenSetWithOneNan) {
  TraceSet golden = golden_set(8);
  golden.traces[3][17] = std::numeric_limits<double>::quiet_NaN();
  for (const TrustEvaluator::Options& options : every_stack()) {
    SCOPED_TRACE(options.detectors.front());
    expect_non_finite_refusal([&] { (void)TrustEvaluator::calibrate(golden, options); },
                              "trace 3 sample 17");
  }
}

TEST(TrustEvaluator, EvaluateRefusesASuspectSetWithOneInf) {
  TraceSet suspect = golden_set(4, 2);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    suspect.traces[2][0] = bad;
    for (const TrustEvaluator::Options& options : every_stack()) {
      SCOPED_TRACE(options.detectors.front());
      const TrustEvaluator evaluator = TrustEvaluator::calibrate(golden_set(8), options);
      expect_non_finite_refusal([&] { (void)evaluator.evaluate(suspect); }, "trace 2 sample 0");
    }
  }
}

}  // namespace
}  // namespace emts::core
