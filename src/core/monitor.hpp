// Runtime trust monitor — the deployment loop of Fig. 1. The detector stack
// is fitted once on trusted golden captures (TrustEvaluator::calibrate; the
// user "knows how the circuit will operate", Sec. III-B) and handed to the
// monitor, fresh or through an EMCA artifact (io::load_calibration). The
// on-chip sensor then streams captures; the monitor scores every one from
// the first and raises an alarm after a debounced run of anomalies.
// "Runtime" in the paper's sense: evaluation happens while the system
// operates, not instantaneously per trace.
//
// The hot path is streaming-grade: captures land in a fixed-capacity
// TraceRing, per-trace detectors score through reusable ScoreScratch
// buffers, and the spectral pass runs through a cached SpectrumAnalyzer —
// after one warm-up window, a push performs zero heap allocations. The input
// gate's finiteness loop also sums the capture, and that one mean feeds the
// preprocessor and the analyzer, so each stage makes one pass over the
// samples. Per-trace scores stay bit-identical to the copying
// Detector::score() path.
//
// The spectral pass is incremental: each push computes the incoming trace's
// amplitude spectrum once (one half-size real-split FFT), caches it in the
// ring, and updates a running per-bin sum, so the window-boundary pass is an
// O(bins) mean + classify instead of W FFTs — flattening the push-latency
// tail from ~450x p50 to within ~10x. Windowed reports equal
// SpectralDetector::analyze() over the same window bit for bit: analyze()
// runs the same SpectrumAnalyzer transform, sums in the same order and
// classifies with the same step. At a drift-bounding rebuild (every
// spectral_rebuild_every incremental updates) the accumulator is re-summed
// bit-exactly from the cached spectra. MonitorStats and the drainable event
// log expose what the loop did without perturbing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/evaluator.hpp"
#include "core/ring.hpp"
#include "core/trace.hpp"
#include "util/latency.hpp"

namespace emts::core {

enum class MonitorState { kMonitoring, kAlarm };

/// Structured happenings on the monitoring loop, drainable via
/// RuntimeMonitor::drain_events(). `value` is kind-specific (see each kind).
enum class MonitorEventKind : std::uint8_t {
  kPerTraceAnomaly,        // value = offending per-trace score
  kSpectralPass,           // value = window size analyzed
  kWindowedAnomaly,        // value = strongest spectral ratio
  kAlarmLatched,           // value = consecutive anomalies at latch time
  kAlarmAcknowledged,      // value = traces seen while latched
  kTraceRejectedShape,     // value = offending sample count
  kTraceRejectedNonFinite  // value = index of the first non-finite sample
};

struct MonitorEvent {
  MonitorEventKind kind{};
  std::uint64_t trace_index = 0;  // traces_seen() when the event fired
  double value = 0.0;
};

const char* monitor_event_label(MonitorEventKind kind);

/// Counters and latency histograms of one monitor's lifetime. Updated on
/// every push with O(1) allocation-free work.
struct MonitorStats {
  std::uint64_t traces_ingested = 0;      // every push, any state
  std::uint64_t traces_rejected = 0;      // pushes refused by the input gate
  std::uint64_t scored_captures = 0;      // pushes scored by the detectors
  std::uint64_t per_trace_anomalies = 0;  // pushes with a per-trace exceedance
  std::uint64_t spectral_passes = 0;      // completed windowed analyses
  std::uint64_t windowed_anomalies = 0;   // passes that flagged the window
  std::uint64_t spectral_recomputes = 0;  // exact accumulator rebuilds
  std::uint64_t spectral_incremental_updates = 0;  // per-push accumulator adds
  std::uint64_t alarms_latched = 0;
  std::uint64_t alarms_acknowledged = 0;
  std::uint64_t events_dropped = 0;       // event-log overwrites (ring full)
  util::LatencyHistogram push_latency;     // wall time of each push
  util::LatencyHistogram spectral_latency; // wall time of each windowed pass
};

/// Complete image of one monitor's mutable state — everything push() can
/// change, and nothing it cannot (the fitted evaluator travels separately as
/// an EMCA artifact; scratch buffers and cached FFT plans are value-neutral
/// and rebuilt on construction). A monitor restored from an image continues
/// its stream with bit-identical scores, states, stats and events to one
/// that was never interrupted (io::write_monitor_state serializes it).
struct MonitorStateImage {
  // Option/stream mirrors: restore_state() refuses an image captured under
  // different options — a different spectral window or debounce would make
  // the restored stream diverge silently.
  double sample_rate = 0.0;
  std::uint64_t alarm_debounce = 0;
  std::uint64_t spectral_window = 0;
  std::uint64_t event_log_capacity = 0;
  std::uint64_t spectral_rebuild_every = 4096;

  MonitorState state = MonitorState::kMonitoring;
  std::uint64_t traces_seen = 0;
  std::uint64_t expected_length = 0;    // 0 until the first accepted capture
  std::uint64_t consecutive_anomalies = 0;
  std::uint64_t alarm_latched_at = 0;
  std::optional<double> last_score;
  std::optional<SpectralReport> last_spectral;
  std::vector<Trace> window;            // spectral-window ring, oldest first;
                                        // empty without a spectral stage
  std::uint64_t window_total_pushed = 0;
  // Incremental spectral accumulator: the running per-bin sum over `window`
  // plus its live count and drift counter. Restoring it verbatim (instead of
  // re-deriving it from the window) keeps the continued stream bit-identical
  // to the uninterrupted one even mid-drift. Empty (zero count, no bins)
  // when the stack has no spectral stage.
  std::uint64_t spectral_count = 0;
  std::uint64_t spectral_updates_since_rebuild = 0;
  std::vector<double> spectral_sum;
  MonitorStats stats;                   // counters + latency histograms
  std::vector<MonitorEvent> events;     // buffered event log, oldest first
};

class RuntimeMonitor {
 public:
  struct Options {
    // Consecutive anomalous captures required to latch the alarm: debounces
    // the occasional golden capture beyond EDth.
    std::size_t alarm_debounce = 3;
    // Re-run the windowed (spectral) checks every this many monitored
    // captures, over the most recent window of traces.
    std::size_t spectral_window = 16;
    // Capacity of the structured event log (a preallocated ring; the oldest
    // entry is overwritten on overflow and counted in events_dropped).
    // 0 disables event capture entirely.
    std::size_t event_log_capacity = 256;
    // Exact-rebuild cadence of the incremental accumulator, measured in
    // incremental updates since the last rebuild — bounds floating-point
    // drift. Must be >= 1; 1 rebuilds at every window boundary.
    std::size_t spectral_rebuild_every = 4096;
  };

  /// Starts in kMonitoring around a fitted detector stack: the first push is
  /// scored. `sample_rate` of the incoming captures (Hz) must match the
  /// evaluator's calibration sample rate.
  RuntimeMonitor(double sample_rate, TrustEvaluator evaluator);
  RuntimeMonitor(double sample_rate, TrustEvaluator evaluator, const Options& options);

  /// A monitor is a relocatable value: every member owns its storage by value
  /// (rings, scratch buffers, cached FFT plans are all vector-backed with no
  /// self-references), so a moved-to monitor continues its stream with
  /// bit-identical scores. Copying is disabled — a monitor is the identity of
  /// one capture stream, and a fleet session must never fork it silently.
  RuntimeMonitor(RuntimeMonitor&&) noexcept = default;
  RuntimeMonitor& operator=(RuntimeMonitor&&) noexcept = default;
  RuntimeMonitor(const RuntimeMonitor&) = delete;
  RuntimeMonitor& operator=(const RuntimeMonitor&) = delete;

  /// Feeds one capture; returns the state after ingesting it.
  ///
  /// Input gate: the first accepted capture pins the stream's trace length
  /// (after the evaluator vets that length against its fitted feature
  /// shape). A later push whose sample count differs, or any push
  /// containing a non-finite sample, is *rejected* instead of flowing
  /// into the preprocessor: the push counts in traces_ingested and
  /// traces_rejected, records a kTraceRejected* event, perturbs no detector
  /// state, and returns the current state. Only an empty trace throws.
  MonitorState push(const Trace& trace);

  /// Feeds a whole capture batch through the same hot path. State
  /// transitions, scores, stats and events are identical to pushing each
  /// trace individually, in order. The batch's sample rate must match the
  /// monitor's. Returns the state after the last trace.
  MonitorState push_batch(const TraceSet& batch);

  MonitorState state() const { return state_; }
  std::size_t traces_seen() const { return traces_seen_; }

  /// Sample rate of this monitor's capture stream (Hz). Immutable after
  /// construction, so safe to read concurrently with pushes.
  double sample_rate() const { return sample_rate_; }

  /// Captures every piece of mutable loop state into a transportable image.
  /// The fitted evaluator is NOT part of the image — persist it separately
  /// (io::save_calibration round-trips it bit-identically) and hand it to
  /// the monitor the image is restored into.
  MonitorStateImage export_state() const;

  /// Reinstates an exported image onto a freshly constructed monitor. The
  /// target must be untouched (zero pushes) and built with the same options
  /// and sample rate the image mirrors. The image's spectral accumulator
  /// must describe its window: with a spectral stage, one summed spectrum
  /// per window trace and one bin per frequency of the pinned trace length;
  /// without one, no accumulator at all, and any window traces are dropped. After restore,
  /// the monitor's observable state is exactly the exporter's, and every
  /// subsequent push produces bit-identical scores, transitions, stats and
  /// events to the uninterrupted stream.
  /// Throws precondition_error on any mismatch.
  void restore_state(const MonitorStateImage& image);

  /// Sample count every capture on this stream must have; 0 until the first
  /// capture is accepted.
  std::size_t expected_trace_length() const { return expected_length_; }

  /// Score of the most recent monitored capture under the first per-trace
  /// detector (the Euclidean stage in the default stack).
  std::optional<double> last_score() const { return last_score_; }

  /// The fitted detector stack the monitor was built around.
  const TrustEvaluator& evaluator() const { return evaluator_; }

  /// Most recent spectral report (if a spectral window completed).
  const std::optional<SpectralReport>& last_spectral() const { return last_spectral_; }

  /// Lifetime counters and latency histograms.
  const MonitorStats& stats() const { return stats_; }

  /// Moves the buffered events into `out` (appended, oldest first) and
  /// clears the log. Returns the number of events drained.
  std::size_t drain_events(std::vector<MonitorEvent>& out);
  std::vector<MonitorEvent> drain_events();

  /// Clears a latched alarm and resumes monitoring (operator action after
  /// the "further investigations" the paper mentions). Fully re-arms the
  /// loop: the debounce run, the partially filled spectral window and the
  /// last score / spectral report are all reset, so stale pre-alarm state
  /// can never re-latch the alarm on a clean stream.
  void acknowledge_alarm();

 private:
  void validate_options() const;
  /// Non-throwing input gate. Returns the capture's mean, summed by the
  /// finiteness loop in stats::mean's order so every stage reuses it, or
  /// nullopt after recording the rejection event.
  std::optional<double> admit_trace(const Trace& trace);
  MonitorState ingest(const Trace& trace);
  /// Classifies the full window with the spectral stage and starts the
  /// next one; returns whether the window was anomalous. Requires a
  /// spectral stage.
  bool run_windowed_pass();
  void record_event(MonitorEventKind kind, double value);

  Options options_;
  double sample_rate_;
  MonitorState state_ = MonitorState::kMonitoring;
  TraceRing window_;
  TrustEvaluator evaluator_;
  // Cached spectral stage of the evaluator (nullptr when the stack has
  // none). Points at the evaluator's heap-owned detector, so it stays valid
  // across monitor moves.
  const SpectralDetector* spectral_ = nullptr;
  ScoreScratch scratch_;
  std::optional<SpectralDetector::SpectralScratch> spectral_scratch_;
  std::optional<double> last_score_;
  std::optional<SpectralReport> last_spectral_;
  std::size_t traces_seen_ = 0;
  std::size_t expected_length_ = 0;  // pinned by the first accepted capture
  std::size_t consecutive_anomalies_ = 0;
  std::uint64_t alarm_latched_at_ = 0;  // traces_seen_ when the alarm latched
  MonitorStats stats_;
  std::vector<MonitorEvent> events_;  // preallocated ring
  std::size_t event_head_ = 0;        // next write position
  std::size_t event_count_ = 0;
};

const char* monitor_state_label(MonitorState state);

}  // namespace emts::core
