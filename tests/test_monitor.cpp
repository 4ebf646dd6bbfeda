#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

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
    // A fast tone (spectral signature) plus a slow component that survives
    // the preprocessor's 16x decimation (distance signature).
    t[i] += 0.6 * std::sin(2.0 * units::pi * 72e6 * static_cast<double>(i) / kFs) +
            0.3 * std::sin(2.0 * units::pi * 3e6 * static_cast<double>(i) / kFs);
  }
  return t;
}

RuntimeMonitor::Options small_options() {
  RuntimeMonitor::Options opt;
  opt.alarm_debounce = 3;
  opt.spectral_window = 8;
  return opt;
}

// Fig. 1's order: the first kBringUp golden captures of `rng`'s stream fit
// the detector stack, and the monitor built around it scores what follows.
constexpr std::size_t kBringUp = 16;

RuntimeMonitor fitted_on_bring_up(emts::Rng& rng,
                                  const RuntimeMonitor::Options& opt = small_options()) {
  TraceSet golden;
  golden.sample_rate = kFs;
  for (std::size_t i = 0; i < kBringUp; ++i) golden.add(golden_trace(rng));
  return RuntimeMonitor{kFs, TrustEvaluator::calibrate(golden), opt};
}

// ---------- TrustEvaluator ----------

TraceSet make_set(std::size_t n, bool infected, std::uint64_t seed) {
  emts::Rng rng{seed};
  TraceSet set;
  set.sample_rate = kFs;
  for (std::size_t i = 0; i < n; ++i) {
    set.add(infected ? infected_trace(rng) : golden_trace(rng));
  }
  return set;
}

TEST(TrustEvaluator, GoldenBatchIsTrusted) {
  const auto eval = TrustEvaluator::calibrate(make_set(30, false, 1));
  const auto report = eval.evaluate(make_set(20, false, 2));
  EXPECT_EQ(report.verdict, Verdict::kTrusted);
  EXPECT_LT(report.anomalous_fraction, 0.2);
  EXPECT_FALSE(report.spectral.anomalous());
}

TEST(TrustEvaluator, InfectedBatchIsCompromised) {
  const auto eval = TrustEvaluator::calibrate(make_set(30, false, 3));
  const auto report = eval.evaluate(make_set(20, true, 4));
  // Both stages fire: distance and new spectral spot.
  EXPECT_EQ(report.verdict, Verdict::kCompromised);
  EXPECT_GT(report.anomalous_fraction, 0.9);
  EXPECT_TRUE(report.spectral.anomalous());
  EXPECT_GT(report.mean_distance, report.threshold);
}

TEST(TrustEvaluator, SummaryMentionsVerdict) {
  const auto eval = TrustEvaluator::calibrate(make_set(30, false, 5));
  const auto report = eval.evaluate(make_set(10, true, 6));
  EXPECT_NE(report.summary().find(verdict_label(report.verdict)), std::string::npos);
}

TEST(TrustEvaluator, RejectsBadAlarmFraction) {
  TrustEvaluator::Options opt;
  opt.anomalous_fraction_alarm = 0.0;
  EXPECT_THROW(TrustEvaluator::calibrate(make_set(10, false, 7), opt),
               emts::precondition_error);
}

TEST(VerdictLabels, AreDistinct) {
  EXPECT_STRNE(verdict_label(Verdict::kTrusted), verdict_label(Verdict::kSuspicious));
  EXPECT_STRNE(verdict_label(Verdict::kSuspicious), verdict_label(Verdict::kCompromised));
}

// ---------- RuntimeMonitor ----------

TEST(RuntimeMonitor, StaysCalmOnGoldenStream) {
  emts::Rng rng{11};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 60; ++i) monitor.push(golden_trace(rng));
  EXPECT_NE(monitor.state(), MonitorState::kAlarm);
  EXPECT_EQ(monitor.traces_seen(), 60u);
}

TEST(RuntimeMonitor, AlarmsAfterDebouncedAnomalies) {
  emts::Rng rng{12};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 4; ++i) monitor.push(golden_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  // The Trojan activates: alarm after exactly `debounce` anomalous captures.
  monitor.push(infected_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  monitor.push(infected_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  monitor.push(infected_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kAlarm);
}

TEST(RuntimeMonitor, SingleGlitchDoesNotAlarm) {
  emts::Rng rng{13};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 4; ++i) monitor.push(golden_trace(rng));
  monitor.push(infected_trace(rng));  // one-off glitch
  for (int i = 0; i < 10; ++i) monitor.push(golden_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
}

TEST(RuntimeMonitor, AcknowledgeResumesMonitoring) {
  emts::Rng rng{15};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 4; ++i) monitor.push(golden_trace(rng));
  for (int i = 0; i < 5; ++i) monitor.push(infected_trace(rng));
  ASSERT_EQ(monitor.state(), MonitorState::kAlarm);
  monitor.acknowledge_alarm();
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  // Re-alarms if the Trojan persists.
  for (int i = 0; i < 5; ++i) monitor.push(infected_trace(rng));
  EXPECT_EQ(monitor.state(), MonitorState::kAlarm);
}

TEST(RuntimeMonitor, AcknowledgeWithoutAlarmRejected) {
  emts::Rng rng{14};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  EXPECT_THROW(monitor.acknowledge_alarm(), emts::precondition_error);
}

TEST(RuntimeMonitor, LastScoreTracksMostRecentCapture) {
  emts::Rng rng{16};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  EXPECT_FALSE(monitor.last_score().has_value());  // nothing scored yet
  monitor.push(golden_trace(rng));
  ASSERT_TRUE(monitor.last_score().has_value());
  const double golden_score = *monitor.last_score();
  monitor.push(infected_trace(rng));
  EXPECT_GT(*monitor.last_score(), golden_score);
}

TEST(RuntimeMonitor, RejectsBadOptions) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 9));
  RuntimeMonitor::Options bad = small_options();
  bad.alarm_debounce = 0;
  EXPECT_THROW((RuntimeMonitor{kFs, evaluator, bad}), emts::precondition_error);
  EXPECT_THROW((RuntimeMonitor{0.0, evaluator, small_options()}), emts::precondition_error);
}

TEST(RuntimeMonitor, PreFittedStartsMonitoringImmediately) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 17));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  EXPECT_EQ(monitor.traces_seen(), 0u);  // cold start: zero calibration captures
  EXPECT_EQ(monitor.evaluator().sample_rate(), kFs);

  // First push is already scored, not swallowed by calibration.
  emts::Rng rng{18};
  monitor.push(golden_trace(rng));
  EXPECT_TRUE(monitor.last_score().has_value());
}

TEST(RuntimeMonitor, PreFittedAlarmsOnInfectedStream) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 19));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  emts::Rng rng{20};
  for (int i = 0; i < 8 && monitor.state() != MonitorState::kAlarm; ++i) {
    monitor.push(infected_trace(rng));
  }
  EXPECT_EQ(monitor.state(), MonitorState::kAlarm);
}

TEST(RuntimeMonitor, PreFittedRejectsSampleRateMismatch) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 21));
  EXPECT_THROW((RuntimeMonitor{2.0 * kFs, evaluator}), emts::precondition_error);
}

// Regression: a latched alarm leaves stale state behind — a partially
// filled spectral window of infected captures, the last score and the last
// spectral report. acknowledge_alarm() must reset all of it; with
// alarm_debounce = 1 a single leaked anomaly would instantly re-latch on a
// perfectly clean stream.
TEST(RuntimeMonitor, AcknowledgeFullyRearmsTheLoop) {
  RuntimeMonitor::Options opt = small_options();
  opt.alarm_debounce = 1;  // the least forgiving re-arm scenario
  emts::Rng rng{30};
  RuntimeMonitor monitor = fitted_on_bring_up(rng, opt);
  ASSERT_EQ(monitor.state(), MonitorState::kMonitoring);

  for (int i = 0; i < 8 && monitor.state() != MonitorState::kAlarm; ++i) {
    monitor.push(infected_trace(rng));
  }
  ASSERT_EQ(monitor.state(), MonitorState::kAlarm);
  // The Trojan keeps toggling while the operator investigates: infected
  // captures pile into the partial spectral window.
  for (int i = 0; i < 5; ++i) monitor.push(infected_trace(rng));
  ASSERT_EQ(monitor.state(), MonitorState::kAlarm);

  monitor.acknowledge_alarm();
  EXPECT_EQ(monitor.state(), MonitorState::kMonitoring);
  EXPECT_FALSE(monitor.last_score().has_value());
  EXPECT_FALSE(monitor.last_spectral().has_value());
  EXPECT_EQ(monitor.stats().alarms_latched, 1u);
  EXPECT_EQ(monitor.stats().alarms_acknowledged, 1u);

  // A clean stream spanning several spectral windows must never re-latch.
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(monitor.push(golden_trace(rng)), MonitorState::kMonitoring) << "push " << i;
  }
  EXPECT_EQ(monitor.stats().alarms_latched, 1u);
}

TEST(RuntimeMonitor, StatsAndEventsTrackTheStream) {
  emts::Rng rng{31};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 16; ++i) monitor.push(golden_trace(rng));

  const MonitorStats& stats = monitor.stats();
  EXPECT_EQ(stats.traces_ingested, 16u);
  EXPECT_EQ(stats.scored_captures, 16u);
  EXPECT_EQ(stats.spectral_passes, 2u);  // 16 monitored pushes / window of 8
  EXPECT_EQ(stats.alarms_latched, 0u);
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_EQ(stats.push_latency.count(), 16u);
  EXPECT_EQ(stats.spectral_latency.count(), 2u);
  EXPECT_GE(stats.push_latency.max_ns(), stats.push_latency.min_ns());

  const auto events = monitor.drain_events();
  ASSERT_FALSE(events.empty());
  std::size_t spectral_events = 0;
  for (const auto& e : events) {
    if (e.kind == MonitorEventKind::kSpectralPass) {
      ++spectral_events;
      EXPECT_DOUBLE_EQ(e.value, 8.0);  // full window analyzed
    }
  }
  EXPECT_EQ(spectral_events, 2u);
  // Draining empties the log.
  EXPECT_TRUE(monitor.drain_events().empty());
}

TEST(RuntimeMonitor, EventLogOverflowDropsTheOldest) {
  RuntimeMonitor::Options opt = small_options();
  opt.event_log_capacity = 1;
  emts::Rng rng{32};
  RuntimeMonitor monitor = fitted_on_bring_up(rng, opt);
  for (int i = 0; i < 16; ++i) monitor.push(golden_trace(rng));
  // Two spectral passes competed for one slot.
  EXPECT_EQ(monitor.stats().events_dropped, 1u);
  const auto events = monitor.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().kind, MonitorEventKind::kSpectralPass);
}

// A stack without a spectral stage has nothing to run at a window boundary:
// it keeps no window, counts no spectral pass and logs no SPECTRAL_PASS.
TEST(RuntimeMonitor, StackWithoutSpectralStageKeepsNoWindow) {
  TrustEvaluator::Options euclidean_only;
  euclidean_only.detectors = {"euclidean"};
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 34), euclidean_only);
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  emts::Rng rng{35};
  for (int i = 0; i < 20; ++i) monitor.push(golden_trace(rng));

  EXPECT_EQ(monitor.stats().scored_captures, 20u);
  EXPECT_EQ(monitor.stats().spectral_passes, 0u);
  EXPECT_EQ(monitor.stats().spectral_latency.count(), 0u);
  EXPECT_FALSE(monitor.last_spectral().has_value());
  for (const auto& e : monitor.drain_events()) {
    EXPECT_NE(e.kind, MonitorEventKind::kSpectralPass);
  }
  MonitorStateImage image = monitor.export_state();
  EXPECT_TRUE(image.window.empty());

  // An older writer stored this stack's window anyway: the image restores,
  // and its traces are dropped.
  for (int i = 0; i < 4; ++i) image.window.push_back(golden_trace(rng));
  image.window_total_pushed = 20;
  RuntimeMonitor restored{kFs, evaluator, small_options()};
  restored.restore_state(image);
  EXPECT_TRUE(restored.export_state().window.empty());
  for (int i = 0; i < 8; ++i) restored.push(golden_trace(rng));
  EXPECT_EQ(restored.stats().spectral_passes, 0u);
  EXPECT_EQ(restored.stats().scored_captures, 28u);
}

TEST(RuntimeMonitor, PushBatchMatchesPerTracePushExactly) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 33));
  RuntimeMonitor one_by_one{kFs, evaluator, small_options()};
  RuntimeMonitor batched{kFs, evaluator, small_options()};

  TraceSet stream = make_set(10, false, 34);
  for (auto& t : make_set(6, true, 35).traces) stream.add(std::move(t));
  for (auto& t : make_set(8, false, 36).traces) stream.add(std::move(t));

  for (const auto& trace : stream.traces) one_by_one.push(trace);
  batched.push_batch(stream);

  EXPECT_EQ(batched.state(), one_by_one.state());
  EXPECT_EQ(batched.traces_seen(), one_by_one.traces_seen());
  ASSERT_EQ(batched.last_score().has_value(), one_by_one.last_score().has_value());
  if (batched.last_score().has_value()) {
    EXPECT_EQ(*batched.last_score(), *one_by_one.last_score());  // bit-identical
  }
  EXPECT_EQ(batched.last_spectral().has_value(), one_by_one.last_spectral().has_value());
  EXPECT_EQ(batched.stats().scored_captures, one_by_one.stats().scored_captures);
  EXPECT_EQ(batched.stats().per_trace_anomalies, one_by_one.stats().per_trace_anomalies);
  EXPECT_EQ(batched.stats().spectral_passes, one_by_one.stats().spectral_passes);
  EXPECT_EQ(batched.stats().windowed_anomalies, one_by_one.stats().windowed_anomalies);
  EXPECT_EQ(batched.stats().alarms_latched, one_by_one.stats().alarms_latched);
}

TEST(RuntimeMonitor, PushBatchRejectsSampleRateMismatch) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 37));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  TraceSet batch = make_set(4, false, 38);
  batch.sample_rate = 2.0 * kFs;
  EXPECT_THROW(monitor.push_batch(batch), emts::precondition_error);
  EXPECT_THROW(monitor.push_batch(TraceSet{}), emts::precondition_error);
}

TEST(TrustEvaluator, ScoreBufferedMatchesPlainScoresBitwise) {
  TrustEvaluator::Options options;
  options.detectors = {"euclidean", "spectral", "ron"};
  const auto eval = TrustEvaluator::calibrate(make_set(30, false, 40), options);
  TraceSet batch = make_set(6, false, 41);
  for (auto& t : make_set(6, true, 42).traces) batch.add(std::move(t));

  // One scratch serves every per-trace stage and every trace, as in the
  // monitor; the second pass reuses the warm buffers.
  ScoreScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    std::size_t per_trace_stages = 0;
    for (const auto& detector : eval.detectors()) {
      if (detector->windowed()) continue;
      ++per_trace_stages;
      for (std::size_t t = 0; t < batch.size(); ++t) {
        EXPECT_EQ(detector->score_buffered(batch.traces[t], scratch),
                  detector->score(batch.traces[t]))
            << detector->name() << " trace " << t << " pass " << pass;
      }
    }
    EXPECT_EQ(per_trace_stages, 2u);  // euclidean and ron
  }
}

TEST(RuntimeMonitor, SteadyStatePushIsAllocationFree) {
  if (!util::alloc::counting_active()) {
    GTEST_SKIP() << "allocation hooks disabled in this build (sanitizer)";
  }
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 43));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  const TraceSet stream = make_set(16, false, 44);

  // Warm-up: size every scratch buffer, ring slot and analyzer plan across
  // multiple full spectral windows.
  for (int round = 0; round < 2; ++round) {
    for (const auto& trace : stream.traces) monitor.push(trace);
  }

  const auto before = util::alloc::thread_counts();
  for (const auto& trace : stream.traces) monitor.push(trace);
  const auto after = util::alloc::thread_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u)
      << "steady-state push allocated " << (after.bytes - before.bytes) << " bytes";
}

// ---------- movability (fleet sessions relocate monitors) ----------

static_assert(std::is_nothrow_move_constructible_v<RuntimeMonitor>,
              "fleet sessions relocate monitors; moves must not throw");
static_assert(std::is_nothrow_move_assignable_v<RuntimeMonitor>);
static_assert(!std::is_copy_constructible_v<RuntimeMonitor>,
              "a monitor is one stream's identity; copying must not compile");
static_assert(std::is_move_constructible_v<TrustEvaluator>);
static_assert(std::is_move_assignable_v<TrustEvaluator>);

// Regression for shard-local session storage: every internal buffer (ring
// slots, score scratch, cached FFT plan, event ring) must survive relocation
// with no dangling self-references — a moved monitor continues the stream
// with bit-identical scores, stats and events.
TEST(RuntimeMonitor, MoveMidStreamScoresBitIdentically) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 50));
  RuntimeMonitor control{kFs, evaluator, small_options()};
  RuntimeMonitor original{kFs, evaluator, small_options()};

  TraceSet stream = make_set(12, false, 51);
  for (auto& t : make_set(6, true, 52).traces) stream.add(std::move(t));
  for (auto& t : make_set(10, false, 53).traces) stream.add(std::move(t));

  for (const auto& trace : stream.traces) control.push(trace);

  // Push half the stream, relocate twice (construction + assignment), finish.
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) original.push(stream.traces[i]);
  RuntimeMonitor moved{std::move(original)};
  RuntimeMonitor target{kFs, TrustEvaluator::calibrate(make_set(30, false, 54)),
                        small_options()};
  target = std::move(moved);
  for (std::size_t i = half; i < stream.size(); ++i) target.push(stream.traces[i]);

  EXPECT_EQ(target.state(), control.state());
  EXPECT_EQ(target.traces_seen(), control.traces_seen());
  EXPECT_EQ(target.expected_trace_length(), control.expected_trace_length());
  ASSERT_EQ(target.last_score().has_value(), control.last_score().has_value());
  if (target.last_score().has_value()) {
    EXPECT_EQ(*target.last_score(), *control.last_score());  // bit-identical
  }
  EXPECT_EQ(target.stats().scored_captures, control.stats().scored_captures);
  EXPECT_EQ(target.stats().per_trace_anomalies, control.stats().per_trace_anomalies);
  EXPECT_EQ(target.stats().spectral_passes, control.stats().spectral_passes);
  EXPECT_EQ(target.stats().windowed_anomalies, control.stats().windowed_anomalies);
  EXPECT_EQ(target.stats().alarms_latched, control.stats().alarms_latched);

  auto target_events = target.drain_events();
  auto control_events = control.drain_events();
  ASSERT_EQ(target_events.size(), control_events.size());
  for (std::size_t i = 0; i < target_events.size(); ++i) {
    EXPECT_EQ(target_events[i].kind, control_events[i].kind) << i;
    EXPECT_EQ(target_events[i].trace_index, control_events[i].trace_index) << i;
    EXPECT_EQ(target_events[i].value, control_events[i].value) << i;
  }
}

// ---------- input gate (shape / finiteness rejection) ----------

TEST(RuntimeMonitor, RejectsShapeMismatchWithoutPoisoningTheStack) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 60));
  RuntimeMonitor control{kFs, evaluator, small_options()};
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  const TraceSet stream = make_set(10, false, 61);

  for (const auto& trace : stream.traces) control.push(trace);

  // Interleave wrong-length traces; every good trace must score exactly as
  // if the bad ones were never pushed.
  Trace truncated(kLen / 2, 0.01);
  Trace extended(kLen + 7, 0.01);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    monitor.push(stream.traces[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(monitor.push(truncated), monitor.state());
    }
    if (i % 4 == 0) monitor.push(extended);
  }

  EXPECT_EQ(monitor.expected_trace_length(), kLen);
  EXPECT_GT(monitor.stats().traces_rejected, 0u);
  EXPECT_EQ(monitor.state(), control.state());
  ASSERT_TRUE(monitor.last_score().has_value());
  EXPECT_EQ(*monitor.last_score(), *control.last_score());  // bit-identical
  EXPECT_EQ(monitor.stats().scored_captures, control.stats().scored_captures);
  EXPECT_EQ(monitor.stats().spectral_passes, control.stats().spectral_passes);
  EXPECT_EQ(monitor.stats().traces_ingested,
            control.stats().traces_ingested + monitor.stats().traces_rejected);

  std::size_t shape_events = 0;
  for (const auto& e : monitor.drain_events()) {
    if (e.kind == MonitorEventKind::kTraceRejectedShape) {
      ++shape_events;
      EXPECT_TRUE(e.value == static_cast<double>(truncated.size()) ||
                  e.value == static_cast<double>(extended.size()));
    }
  }
  EXPECT_EQ(shape_events, monitor.stats().traces_rejected);
}

TEST(RuntimeMonitor, PreFittedVetsTheFirstCaptureShape) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 63));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  // A first capture the fitted stack cannot host must not pin the stream
  // shape — the next, correctly-shaped capture starts the stream.
  Trace wrong(kLen / 4, 0.01);
  monitor.push(wrong);
  EXPECT_EQ(monitor.stats().traces_rejected, 1u);
  EXPECT_EQ(monitor.expected_trace_length(), 0u);
  EXPECT_FALSE(monitor.last_score().has_value());

  emts::Rng rng{64};
  monitor.push(golden_trace(rng));
  EXPECT_EQ(monitor.expected_trace_length(), kLen);
  EXPECT_TRUE(monitor.last_score().has_value());
}

TEST(RuntimeMonitor, RejectsNonFiniteSamples) {
  const auto evaluator = TrustEvaluator::calibrate(make_set(30, false, 65));
  RuntimeMonitor monitor{kFs, evaluator, small_options()};
  emts::Rng rng{66};
  monitor.push(golden_trace(rng));
  const double before = *monitor.last_score();

  const double inf = std::numeric_limits<double>::infinity();
  Trace nan_trace = golden_trace(rng);
  nan_trace[37] = std::nan("");
  Trace inf_trace = golden_trace(rng);
  inf_trace[kLen - 1] = inf;
  Trace nan_first = golden_trace(rng);
  nan_first[0] = std::nan("");
  // The gate sums the capture in the same loop; it must still name the
  // first bad sample, not a later one.
  Trace inf_mid = golden_trace(rng);
  inf_mid[kLen / 2] = -inf;
  inf_mid[kLen / 2 + 3] = std::nan("");
  monitor.push(nan_trace);
  monitor.push(inf_trace);
  monitor.push(nan_first);
  monitor.push(inf_mid);

  EXPECT_EQ(monitor.stats().traces_rejected, 4u);
  EXPECT_EQ(*monitor.last_score(), before);  // nothing downstream moved
  EXPECT_EQ(monitor.stats().scored_captures, 1u);

  const auto events = monitor.drain_events();
  std::vector<double> rejected_at;
  for (const auto& e : events) {
    if (e.kind == MonitorEventKind::kTraceRejectedNonFinite) rejected_at.push_back(e.value);
  }
  ASSERT_EQ(rejected_at.size(), 4u);
  EXPECT_DOUBLE_EQ(rejected_at[0], 37.0);
  EXPECT_DOUBLE_EQ(rejected_at[1], static_cast<double>(kLen - 1));
  EXPECT_DOUBLE_EQ(rejected_at[2], 0.0);
  EXPECT_DOUBLE_EQ(rejected_at[3], static_cast<double>(kLen / 2));
}

TEST(TrustEvaluator, AcceptsTraceLengthMatchesFittedShape) {
  const auto eval = TrustEvaluator::calibrate(make_set(30, false, 67));
  EXPECT_TRUE(eval.accepts_trace_length(kLen));
  EXPECT_FALSE(eval.accepts_trace_length(0));
  EXPECT_FALSE(eval.accepts_trace_length(kLen / 2));
  EXPECT_FALSE(eval.accepts_trace_length(4 * kLen));
}

// ---------- event ring accounting ----------

// events_dropped must stay exact across interleaved push/drain cycles and
// across both drain overloads: every recorded event is either drained
// exactly once or counted dropped exactly once.
TEST(RuntimeMonitor, EventOverflowAccountingStaysExactAcrossInterleavedDrains) {
  RuntimeMonitor::Options opt = small_options();
  opt.event_log_capacity = 3;
  emts::Rng rng{71};
  RuntimeMonitor monitor = fitted_on_bring_up(rng, opt);
  // Pins the stream shape and records no event: rejections are the only
  // events, because no rejected trace reaches the spectral window.
  monitor.push(golden_trace(rng));

  std::uint64_t recorded = 0;
  std::uint64_t drained_total = 0;
  std::vector<MonitorEvent> sink;
  const Trace bad(kLen + 3, 0.0);
  for (int round = 0; round < 6; ++round) {
    const int burst = 1 + round;  // 1..6 events against a 3-slot ring
    for (int i = 0; i < burst; ++i) monitor.push(bad);
    recorded += static_cast<std::uint64_t>(burst);
    if (round % 2 == 0) {
      const std::size_t before = sink.size();
      const std::size_t n = monitor.drain_events(sink);  // appending overload
      EXPECT_EQ(sink.size() - before, n);  // appends, never clears the sink
      drained_total += n;
    } else {
      drained_total += monitor.drain_events().size();  // value overload
    }
    // The invariant under test: every recorded event is either drained
    // exactly once or counted dropped exactly once, at every interleaving.
    EXPECT_EQ(recorded, drained_total + monitor.stats().events_dropped)
        << "round " << round;
    EXPECT_TRUE(monitor.drain_events().empty());  // drain is complete
  }

  // Bursts of 1..6 against capacity 3 drop max(0, burst - 3) each.
  EXPECT_EQ(recorded, 21u);
  EXPECT_EQ(monitor.stats().events_dropped, 6u);
  EXPECT_EQ(drained_total, 15u);
  EXPECT_EQ(monitor.stats().traces_rejected, recorded);
  for (const auto& e : sink) {
    EXPECT_EQ(e.kind, MonitorEventKind::kTraceRejectedShape);
    EXPECT_DOUBLE_EQ(e.value, static_cast<double>(kLen + 3));
  }
}

TEST(RuntimeMonitor, StateLabelsAreDistinct) {
  EXPECT_STRNE(monitor_state_label(MonitorState::kMonitoring),
               monitor_state_label(MonitorState::kAlarm));
}

// ---------- export/restore at the core level ----------

TEST(RuntimeMonitor, ExportStateMirrorsOptionsAndStream) {
  emts::Rng rng{60};
  RuntimeMonitor monitor = fitted_on_bring_up(rng);
  for (int i = 0; i < 5; ++i) monitor.push(golden_trace(rng));

  const MonitorStateImage image = monitor.export_state();
  EXPECT_EQ(image.sample_rate, kFs);
  EXPECT_EQ(image.alarm_debounce, 3u);
  EXPECT_EQ(image.spectral_window, 8u);
  EXPECT_EQ(image.state, MonitorState::kMonitoring);
  EXPECT_EQ(image.traces_seen, 5u);
  EXPECT_EQ(image.stats.traces_ingested, 5u);
}

}  // namespace
}  // namespace emts::core
