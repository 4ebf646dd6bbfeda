// Frequency-domain Trojan detector (paper Sec. III-E and IV-D):
//
//   "the circuits ... will generate specific EM spectrum, which will
//    concentrate around the operating frequency ... accompanying certain
//    harmonic frequency. When the A2-style Trojans are being triggered, the
//    fast flipping signals will result in extra frequency spots or increased
//    amplitude in the spectrum."
//
// Calibration records the golden mean spectrum and its significant spots.
// Analysis of suspect traces reports two anomaly kinds, exactly the paper's
// T = g / T != g case split:
//   kNewSpot        — a peak at a frequency the golden spectrum is quiet at;
//   kAmplifiedSpot  — a known spot whose magnitude grew beyond tolerance.
//
// The "spectral" stage. As a Detector it is *windowed*: its natural grain is
// a whole capture window (mean spectrum), which analyze(TraceSet) and the
// monitor's stream_observe/stream_finish pair classify with one shared step;
// score(trace) is the strongest anomaly ratio of that single trace (0 when
// clean) against a threshold of 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/ring.hpp"
#include "core/trace.hpp"
#include "dsp/spectrum.hpp"

namespace emts::core {

enum class SpectralAnomalyKind { kNewSpot, kAmplifiedSpot };

struct SpectralAnomaly {
  SpectralAnomalyKind kind;
  double frequency_hz = 0.0;
  double golden_amplitude = 0.0;
  double suspect_amplitude = 0.0;

  /// Amplification factor (suspect / max(golden, floor)).
  double ratio = 0.0;
};

struct SpectralReport {
  std::vector<SpectralAnomaly> anomalies;  // strongest first
  bool anomalous() const { return !anomalies.empty(); }
};

class SpectralDetector : public Detector {
 public:
  struct Options {
    dsp::SpectrumOptions spectrum{};
    // A golden spot = local max above noise_floor_factor x median amplitude.
    double noise_floor_factor = 6.0;
    // New spots must also clear this factor over the golden noise floor.
    double new_spot_factor = 6.0;
    // Known spots flag as amplified beyond this ratio.
    double amplification_ratio = 1.6;
    // Frequency tolerance (in bins) when matching suspect peaks to golden
    // spots.
    std::size_t match_bins = 2;
  };

  /// Fits the golden reference spectrum. Requires >= 1 trace and refuses
  /// a set holding a NaN or ±inf sample (see finite_mean).
  static SpectralDetector calibrate(const TraceSet& golden, const Options& options);
  static SpectralDetector calibrate(const TraceSet& golden);  // default options

  std::string name() const override { return "spectral"; }
  std::string describe() const override;
  bool windowed() const override { return true; }

  /// Strongest anomaly ratio of one trace; 0 when the trace is clean, so any
  /// positive score against the 0 threshold means "anomalous".
  double score(const Trace& trace) const override;
  double threshold() const override { return 0.0; }

  /// Analyzes a set of suspect traces (averaged spectrum). Refuses a set
  /// holding a NaN or ±inf sample.
  SpectralReport analyze(const TraceSet& suspect) const;

  /// Analyzes one trace.
  SpectralReport analyze(const Trace& trace) const;

  /// Working state for spectral passes: the streaming spectrum analyzer
  /// plus every scratch buffer one pass needs. Create via make_scratch();
  /// one scratch serves one stream. The monitor owns one per stream, and
  /// analyze() builds one per call.
  struct SpectralScratch {
    explicit SpectralScratch(const dsp::SpectrumOptions& options) : analyzer{options} {}

    dsp::SpectrumAnalyzer analyzer;
    std::vector<dsp::SpectralPeak> peaks;
    std::vector<double> floor_scratch;  // amplitude copy for the median
    SpectralReport report;
  };

  /// Scratch wired to this detector's spectrum options.
  SpectralScratch make_scratch() const { return SpectralScratch{options_.spectrum}; }

  /// Incremental path, step 1 — call once right after window.push(trace):
  /// computes the newest trace's amplitude spectrum (one half-size real-split
  /// FFT), caches it in the ring's per-slot spectrum cache (enabled here on
  /// first use), and adds it into the scratch analyzer's running sum. Zero
  /// heap allocations once scratch and ring cache are warm. `newest_mean` is
  /// stats::mean(window.newest()), which the runtime monitor's input gate
  /// has already summed.
  void stream_observe(TraceRing& window, double newest_mean, double sample_rate,
                      SpectralScratch& scratch) const;
  /// stream_observe computing the newest trace's mean itself.
  void stream_observe(TraceRing& window, double sample_rate, SpectralScratch& scratch) const;

  /// Incremental path, step 2 — call at the window boundary: classifies the
  /// running mean spectrum against the golden spots. When the accumulator
  /// has absorbed >= rebuild_every incremental updates since the last exact
  /// rebuild, the sum is first rebuilt bit-exactly from the cached per-slot
  /// spectra (bounding floating-point drift) and `rebuilt` is set. analyze()
  /// pushes a TraceSet through the same analyzer transform in the same order
  /// and classifies with the same step, so the report equals analyze() over
  /// a TraceSet holding the window's traces bit for bit, rebuilt or not.
  const SpectralReport& stream_finish(const TraceRing& window, double sample_rate,
                                      SpectralScratch& scratch, std::uint64_t rebuild_every,
                                      bool& rebuilt) const;

  /// Folds a typed spectral report into the generic stage form.
  DetectorReport to_stage(const SpectralReport& report) const;

  /// Serializes the golden spectrum, spots, noise floor and options; load()
  /// restores a detector whose analyze() reports are bit-identical.
  void save(util::ByteWriter& out) const override;
  static SpectralDetector load(util::ByteReader& in);

  const dsp::Spectrum& golden_spectrum() const { return golden_; }
  const std::vector<dsp::SpectralPeak>& golden_spots() const { return golden_spots_; }
  double sample_rate() const { return sample_rate_; }
  const Options& options() const { return options_; }

 private:
  SpectralDetector(const Options& options, dsp::Spectrum golden, double sample_rate);

  /// Pushes equal-length traces through a fresh scratch analyzer and
  /// classifies their mean: analyze() for a set or for one trace.
  SpectralReport analyze_traces(std::span<const Trace> traces, double sample_rate) const;

  /// The one classify step, shared by analyze() and stream_finish():
  /// classifies the scratch analyzer's mean into scratch.report.
  void classify(SpectralScratch& scratch) const;

  /// Classifies suspect peaks against the golden spots into `report`
  /// (cleared first), sorted strongest-ratio first.
  void match_peaks(const std::vector<dsp::SpectralPeak>& peaks, SpectralReport& report) const;

  Options options_;
  dsp::Spectrum golden_;
  std::vector<dsp::SpectralPeak> golden_spots_;
  double noise_floor_ = 0.0;
  double sample_rate_ = 0.0;
};

}  // namespace emts::core
