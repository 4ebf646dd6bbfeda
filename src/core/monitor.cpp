#include "core/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "stats/descriptive.hpp"
#include "util/assert.hpp"

namespace emts::core {

const char* monitor_state_label(MonitorState state) {
  switch (state) {
    case MonitorState::kMonitoring:
      return "MONITORING";
    case MonitorState::kAlarm:
      return "ALARM";
  }
  return "?";
}

const char* monitor_event_label(MonitorEventKind kind) {
  switch (kind) {
    case MonitorEventKind::kPerTraceAnomaly:
      return "PER_TRACE_ANOMALY";
    case MonitorEventKind::kSpectralPass:
      return "SPECTRAL_PASS";
    case MonitorEventKind::kWindowedAnomaly:
      return "WINDOWED_ANOMALY";
    case MonitorEventKind::kAlarmLatched:
      return "ALARM_LATCHED";
    case MonitorEventKind::kAlarmAcknowledged:
      return "ALARM_ACKNOWLEDGED";
    case MonitorEventKind::kTraceRejectedShape:
      return "TRACE_REJECTED_SHAPE";
    case MonitorEventKind::kTraceRejectedNonFinite:
      return "TRACE_REJECTED_NON_FINITE";
  }
  return "?";
}

RuntimeMonitor::RuntimeMonitor(double sample_rate, TrustEvaluator evaluator)
    : RuntimeMonitor(sample_rate, std::move(evaluator), Options{}) {}

RuntimeMonitor::RuntimeMonitor(double sample_rate, TrustEvaluator evaluator,
                               const Options& options)
    : options_{options},
      sample_rate_{sample_rate},
      window_{std::max<std::size_t>(options.spectral_window, 1)},
      evaluator_{std::move(evaluator)},
      spectral_{evaluator_.try_spectral()} {
  validate_options();
  EMTS_REQUIRE(std::abs(evaluator_.sample_rate() - sample_rate) < 1e-6 * sample_rate,
               "pre-fitted evaluator was calibrated at a different sample rate");
  if (spectral_ != nullptr) spectral_scratch_.emplace(spectral_->options().spectrum);
  events_.resize(options_.event_log_capacity);
}

void RuntimeMonitor::validate_options() const {
  EMTS_REQUIRE(sample_rate_ > 0.0 && std::isfinite(sample_rate_),
               "monitor needs a positive, finite sample rate");
  EMTS_REQUIRE(options_.alarm_debounce >= 1, "alarm debounce must be >= 1");
  EMTS_REQUIRE(options_.spectral_window >= 1, "spectral window must be >= 1");
  EMTS_REQUIRE(options_.spectral_rebuild_every >= 1, "spectral rebuild cadence must be >= 1");
}

void RuntimeMonitor::record_event(MonitorEventKind kind, double value) {
  if (events_.empty()) return;  // event capture disabled
  events_[event_head_] = MonitorEvent{kind, traces_seen_, value};
  event_head_ = (event_head_ + 1) % events_.size();
  if (event_count_ < events_.size()) {
    ++event_count_;
  } else {
    ++stats_.events_dropped;  // the oldest entry was overwritten
  }
}

std::size_t RuntimeMonitor::drain_events(std::vector<MonitorEvent>& out) {
  const std::size_t drained = event_count_;
  if (!events_.empty()) {
    const std::size_t cap = events_.size();
    for (std::size_t i = 0; i < event_count_; ++i) {
      out.push_back(events_[(event_head_ + cap - event_count_ + i) % cap]);
    }
  }
  event_head_ = 0;
  event_count_ = 0;
  return drained;
}

std::vector<MonitorEvent> RuntimeMonitor::drain_events() {
  std::vector<MonitorEvent> out;
  drain_events(out);
  return out;
}

MonitorState RuntimeMonitor::push(const Trace& trace) { return ingest(trace); }

MonitorState RuntimeMonitor::push_batch(const TraceSet& batch) {
  EMTS_REQUIRE(!batch.empty(), "push_batch needs traces");
  EMTS_REQUIRE(std::abs(batch.sample_rate - sample_rate_) < 1e-6 * sample_rate_,
               "batch sample rate differs from the monitor");
  for (const Trace& trace : batch.traces) ingest(trace);
  return state_;
}

std::optional<double> RuntimeMonitor::admit_trace(const Trace& trace) {
  // Shape gate. The first capture pins the stream length once the fitted
  // stack has vetted it against its feature shape, so a wrong-length first
  // capture cannot pin a shape the detectors would choke on (or silently
  // mis-score through block decimation).
  if (expected_length_ != 0) {
    if (trace.size() != expected_length_) {
      ++stats_.traces_rejected;
      record_event(MonitorEventKind::kTraceRejectedShape,
                   static_cast<double>(trace.size()));
      return std::nullopt;
    }
  } else if (!evaluator_.accepts_trace_length(trace.size())) {
    ++stats_.traces_rejected;
    record_event(MonitorEventKind::kTraceRejectedShape,
                 static_cast<double>(trace.size()));
    return std::nullopt;
  }

  // Finiteness gate: one NaN poisons every running statistic downstream
  // (PCA projection, spectral mean, latched scores), so it must never reach
  // the preprocessor. The same loop sums the capture front to back, as
  // stats::mean does.
  double sum = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!std::isfinite(trace[i])) {
      ++stats_.traces_rejected;
      record_event(MonitorEventKind::kTraceRejectedNonFinite, static_cast<double>(i));
      return std::nullopt;
    }
    sum += trace[i];
  }

  if (expected_length_ == 0) expected_length_ = trace.size();
  return sum / static_cast<double>(trace.size());
}

MonitorState RuntimeMonitor::ingest(const Trace& trace) {
  EMTS_REQUIRE(!trace.empty(), "cannot push an empty trace");
  const std::uint64_t t0 = util::monotonic_ns();
  ++traces_seen_;
  ++stats_.traces_ingested;

  const std::optional<double> mean = admit_trace(trace);
  if (!mean.has_value()) {
    stats_.push_latency.record(util::monotonic_ns() - t0);
    return state_;
  }

  // Per-trace stages score every capture through the buffered (reused
  // scratch) path; the first one (the Euclidean stage in the default stack)
  // feeds last_score().
  bool per_trace_anomaly = false;
  bool first_score = true;
  double anomaly_score = 0.0;
  for (const auto& detector : evaluator_.detectors()) {
    if (detector->windowed()) continue;
    const double s = detector->score_buffered(trace, *mean, scratch_);
    if (first_score) {
      last_score_ = s;
      first_score = false;
    }
    if (s > detector->threshold() && !per_trace_anomaly) {
      per_trace_anomaly = true;
      anomaly_score = s;
    }
  }
  ++stats_.scored_captures;
  if (per_trace_anomaly) {
    ++stats_.per_trace_anomalies;
    record_event(MonitorEventKind::kPerTraceAnomaly, anomaly_score);
  }

  // The spectral stage re-runs over a tumbling window of recent captures; a
  // stack without one keeps no window.
  bool windowed_anomaly = false;
  if (spectral_ != nullptr) {
    // Pay this trace's FFT now (flat per-push cost) and fold its amplitudes
    // into the running window sum; the boundary pass below is then O(bins).
    window_.push(trace);
    spectral_->stream_observe(window_, *mean, sample_rate_, *spectral_scratch_);
    ++stats_.spectral_incremental_updates;
    windowed_anomaly = window_.size() >= options_.spectral_window && run_windowed_pass();
  }

  if (per_trace_anomaly || windowed_anomaly) {
    ++consecutive_anomalies_;
  } else {
    consecutive_anomalies_ = 0;
  }

  if (state_ == MonitorState::kMonitoring &&
      consecutive_anomalies_ >= options_.alarm_debounce) {
    state_ = MonitorState::kAlarm;
    ++stats_.alarms_latched;
    alarm_latched_at_ = traces_seen_;
    record_event(MonitorEventKind::kAlarmLatched,
                 static_cast<double>(consecutive_anomalies_));
  }
  stats_.push_latency.record(util::monotonic_ns() - t0);
  return state_;
}

bool RuntimeMonitor::run_windowed_pass() {
  const std::uint64_t t0 = util::monotonic_ns();
  bool rebuilt = false;
  last_spectral_ = spectral_->stream_finish(window_, sample_rate_, *spectral_scratch_,
                                            options_.spectral_rebuild_every, rebuilt);
  if (rebuilt) ++stats_.spectral_recomputes;
  spectral_scratch_->analyzer.stream_reset();
  const bool anomaly = last_spectral_->anomalous();
  const std::size_t analyzed = window_.size();
  window_.clear();
  ++stats_.spectral_passes;
  record_event(MonitorEventKind::kSpectralPass, static_cast<double>(analyzed));
  if (anomaly) {
    ++stats_.windowed_anomalies;
    record_event(MonitorEventKind::kWindowedAnomaly, last_spectral_->anomalies.front().ratio);
  }
  stats_.spectral_latency.record(util::monotonic_ns() - t0);
  return anomaly;
}

MonitorStateImage RuntimeMonitor::export_state() const {
  MonitorStateImage image;
  image.sample_rate = sample_rate_;
  image.alarm_debounce = options_.alarm_debounce;
  image.spectral_window = options_.spectral_window;
  image.event_log_capacity = options_.event_log_capacity;
  image.spectral_rebuild_every = options_.spectral_rebuild_every;

  image.state = state_;
  image.traces_seen = traces_seen_;
  image.expected_length = expected_length_;
  image.consecutive_anomalies = consecutive_anomalies_;
  image.alarm_latched_at = alarm_latched_at_;
  image.last_score = last_score_;
  image.last_spectral = last_spectral_;
  image.window.reserve(window_.size());
  for (std::size_t i = 0; i < window_.size(); ++i) image.window.push_back(window_.oldest(i));
  image.window_total_pushed = window_.total_pushed();
  if (spectral_scratch_.has_value()) {
    image.spectral_sum = spectral_scratch_->analyzer.stream_sum();
    image.spectral_count = spectral_scratch_->analyzer.stream_count();
    image.spectral_updates_since_rebuild =
        spectral_scratch_->analyzer.stream_updates_since_rebuild();
  }
  image.stats = stats_;
  // Buffered events, oldest first — the order drain_events() would emit.
  if (!events_.empty()) {
    const std::size_t cap = events_.size();
    image.events.reserve(event_count_);
    for (std::size_t i = 0; i < event_count_; ++i) {
      image.events.push_back(events_[(event_head_ + cap - event_count_ + i) % cap]);
    }
  }
  return image;
}

void RuntimeMonitor::restore_state(const MonitorStateImage& image) {
  EMTS_REQUIRE(traces_seen_ == 0 && stats_.traces_ingested == 0,
               "restore_state needs an untouched monitor");
  EMTS_REQUIRE(std::abs(image.sample_rate - sample_rate_) < 1e-6 * sample_rate_,
               "restore_state: image sample rate differs from the monitor");
  EMTS_REQUIRE(image.alarm_debounce == options_.alarm_debounce &&
                   image.spectral_window == options_.spectral_window &&
                   image.event_log_capacity == options_.event_log_capacity &&
                   image.spectral_rebuild_every == options_.spectral_rebuild_every,
               "restore_state: image was captured under different monitor options");
  EMTS_REQUIRE(image.window.size() <= window_.capacity(),
               "restore_state: image window exceeds the spectral window");
  EMTS_REQUIRE(image.events.size() <= events_.size() ||
                   (events_.empty() && image.events.empty()),
               "restore_state: image events exceed the event log capacity");
  EMTS_REQUIRE(image.window_total_pushed >= image.window.size(),
               "restore_state: inconsistent window push counter");
  for (const Trace& trace : image.window) {
    EMTS_REQUIRE(image.expected_length != 0 && trace.size() == image.expected_length,
                 "restore_state: window trace shape disagrees with the pinned length");
  }
  if (spectral_ != nullptr) {
    // The accumulator must describe the window exactly: a diverged count or
    // bin shape would restore cleanly and then throw on every later push.
    EMTS_REQUIRE(image.spectral_count == image.window.size(),
                 "restore_state: spectral accumulator count disagrees with the window");
    if (image.spectral_sum.empty()) {
      EMTS_REQUIRE(image.window.empty(),
                   "restore_state: non-empty window with no spectral accumulator");
    } else {
      EMTS_REQUIRE(image.expected_length != 0 &&
                       image.spectral_sum.size() ==
                           dsp::next_power_of_two(image.expected_length) / 2 + 1,
                   "restore_state: spectral accumulator bins disagree with the trace length");
    }
  } else {
    EMTS_REQUIRE(image.spectral_count == 0 && image.spectral_sum.empty() &&
                     image.spectral_updates_since_rebuild == 0,
                 "restore_state: spectral accumulator without a spectral stage");
  }

  state_ = image.state;
  traces_seen_ = static_cast<std::size_t>(image.traces_seen);
  expected_length_ = static_cast<std::size_t>(image.expected_length);
  consecutive_anomalies_ = static_cast<std::size_t>(image.consecutive_anomalies);
  alarm_latched_at_ = image.alarm_latched_at;
  last_score_ = image.last_score;
  last_spectral_ = image.last_spectral;
  window_.clear();
  // A stack without a spectral stage keeps no window; older writers stored
  // one anyway, and those traces are dropped here.
  if (spectral_ != nullptr) {
    for (const Trace& trace : image.window) {
      window_.push(trace);
      // Replay the per-slot spectrum caches deterministically, with the
      // mean the input gate computed for the live push; the accumulator
      // itself is then overwritten verbatim from the image below, so a
      // continued stream is bit-identical even mid-drift.
      spectral_->stream_observe(window_, stats::mean(trace), sample_rate_, *spectral_scratch_);
    }
    spectral_scratch_->analyzer.stream_restore(image.spectral_sum,
                                               image.spectral_count,
                                               image.spectral_updates_since_rebuild);
  }
  window_.restore_total_pushed(image.window_total_pushed);
  stats_ = image.stats;
  event_head_ = events_.empty() ? 0 : image.events.size() % events_.size();
  event_count_ = image.events.size();
  for (std::size_t i = 0; i < image.events.size(); ++i) events_[i] = image.events[i];
}

void RuntimeMonitor::acknowledge_alarm() {
  EMTS_REQUIRE(state_ == MonitorState::kAlarm, "no alarm to acknowledge");
  state_ = MonitorState::kMonitoring;
  // Fully re-arm: without these resets, infected traces retained in the
  // partial window (and the stale last score / spectral report) from before
  // the alarm would leak into the next windowed pass and could re-latch the
  // alarm on a perfectly clean stream.
  consecutive_anomalies_ = 0;
  window_.clear();
  if (spectral_ != nullptr) spectral_scratch_->analyzer.stream_reset();
  last_score_.reset();
  last_spectral_.reset();
  ++stats_.alarms_acknowledged;
  record_event(MonitorEventKind::kAlarmAcknowledged,
               static_cast<double>(traces_seen_ - alarm_latched_at_));
}

}  // namespace emts::core
