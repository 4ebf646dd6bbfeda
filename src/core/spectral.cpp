#include "core/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::core {

SpectralDetector::SpectralDetector(const Options& options, dsp::Spectrum golden,
                                   double sample_rate)
    : options_{options}, golden_{std::move(golden)}, sample_rate_{sample_rate} {
  // Noise floor: median amplitude away from peaks is a robust estimate.
  noise_floor_ = stats::median(golden_.amplitude);
  if (noise_floor_ <= 0.0) {
    noise_floor_ = 1e-12;
  }
  golden_spots_ = dsp::find_peaks(golden_, options_.noise_floor_factor * noise_floor_);
}

SpectralDetector SpectralDetector::calibrate(const TraceSet& golden) {
  return calibrate(golden, Options{});
}

SpectralDetector SpectralDetector::calibrate(const TraceSet& golden, const Options& options) {
  EMTS_REQUIRE(!golden.empty(), "spectral calibration needs traces");
  EMTS_REQUIRE(std::isfinite(golden.sample_rate) && golden.sample_rate > 0.0,
               "spectral calibration: sample rate must be finite and positive");
  golden.validate();
  dsp::Spectrum spectrum =
      dsp::mean_spectrum(golden.traces, golden.sample_rate, options.spectrum);
  return SpectralDetector{options, std::move(spectrum), golden.sample_rate};
}

SpectralReport SpectralDetector::analyze(const TraceSet& suspect) const {
  EMTS_REQUIRE(!suspect.empty(), "spectral analysis needs traces");
  suspect.validate();
  return analyze_traces(suspect.traces, suspect.sample_rate);
}

SpectralReport SpectralDetector::analyze(const Trace& trace) const {
  return analyze_traces({&trace, 1}, sample_rate_);
}

SpectralReport SpectralDetector::analyze_traces(std::span<const Trace> traces,
                                                double sample_rate) const {
  EMTS_REQUIRE(std::abs(sample_rate - sample_rate_) < 1e-6 * sample_rate_,
               "suspect sample rate differs from calibration");
  SpectralScratch scratch = make_scratch();
  scratch.analyzer.ensure_stream(traces.front().size(), sample_rate);
  std::vector<double> amp;
  for (const Trace& trace : traces) scratch.analyzer.stream_push(trace, amp);
  classify(scratch);
  return std::move(scratch.report);
}

void SpectralDetector::classify(SpectralScratch& scratch) const {
  const dsp::Spectrum& spectrum = scratch.analyzer.stream_mean();
  EMTS_REQUIRE(spectrum.size() == golden_.size(),
               "suspect trace length differs from calibration");
  // Peaks must clear the *suspect's own* floor as well as the golden floor:
  // a Trojan that merely lifts the broadband floor (spread-spectrum leaks
  // like T3) raises the median with it and creates no spot — exactly the
  // paper's observation that T3 evades the spectral method.
  scratch.floor_scratch.assign(spectrum.amplitude.begin(), spectrum.amplitude.end());
  const double floor_level =
      std::max(noise_floor_, stats::median_in_place(scratch.floor_scratch));
  dsp::find_peaks_into(spectrum, options_.new_spot_factor * floor_level, scratch.peaks);
  match_peaks(scratch.peaks, scratch.report);
}

void SpectralDetector::stream_observe(TraceRing& window, double sample_rate,
                                      SpectralScratch& scratch) const {
  EMTS_REQUIRE(!window.empty(), "stream_observe on an empty window");
  stream_observe(window, stats::mean(window.newest()), sample_rate, scratch);
}

void SpectralDetector::stream_observe(TraceRing& window, double newest_mean, double sample_rate,
                                      SpectralScratch& scratch) const {
  EMTS_REQUIRE(!window.empty(), "stream_observe on an empty window");
  EMTS_REQUIRE(std::abs(sample_rate - sample_rate_) < 1e-6 * sample_rate_,
               "suspect sample rate differs from calibration");
  scratch.analyzer.ensure_stream(window.newest().size(), sample_rate);
  if (!window.spectrum_cache_enabled()) {
    window.enable_spectrum_cache(scratch.analyzer.stream_bins());
  }
  scratch.analyzer.stream_push(window.newest(), newest_mean, window.newest_spectrum());
}

const SpectralReport& SpectralDetector::stream_finish(const TraceRing& window,
                                                      double sample_rate,
                                                      SpectralScratch& scratch,
                                                      std::uint64_t rebuild_every,
                                                      bool& rebuilt) const {
  EMTS_REQUIRE(!window.empty(), "spectral analysis needs traces");
  EMTS_REQUIRE(std::abs(sample_rate - sample_rate_) < 1e-6 * sample_rate_,
               "suspect sample rate differs from calibration");
  EMTS_REQUIRE(rebuild_every >= 1, "rebuild cadence must be >= 1");
  EMTS_REQUIRE(scratch.analyzer.stream_count() == window.size(),
               "stream_finish: accumulator count diverged from the window");

  rebuilt = false;
  if (scratch.analyzer.stream_updates_since_rebuild() >= rebuild_every) {
    // Exact rebuild: re-sum the cached per-slot spectra in arrival order.
    // Incremental accumulation added the very same values in the very same
    // order (windows tumble, nothing is retired), so the rebuilt sum is
    // bit-identical to the running one and the accumulator is exact.
    scratch.analyzer.stream_reset();
    for (std::size_t i = 0; i < window.size(); ++i) {
      scratch.analyzer.stream_accumulate(window.oldest_spectrum(i));
    }
    scratch.analyzer.stream_mark_rebuilt();
    rebuilt = true;
  }
  classify(scratch);
  return scratch.report;
}

void SpectralDetector::match_peaks(const std::vector<dsp::SpectralPeak>& peaks,
                                   SpectralReport& report) const {
  report.anomalies.clear();
  for (const dsp::SpectralPeak& peak : peaks) {
    // Match against a golden spot within the bin tolerance.
    const dsp::SpectralPeak* match = nullptr;
    for (const dsp::SpectralPeak& g : golden_spots_) {
      const auto delta = peak.bin > g.bin ? peak.bin - g.bin : g.bin - peak.bin;
      if (delta <= options_.match_bins) {
        match = &g;
        break;
      }
    }

    if (match == nullptr) {
      SpectralAnomaly anomaly;
      anomaly.kind = SpectralAnomalyKind::kNewSpot;
      anomaly.frequency_hz = peak.frequency;
      anomaly.golden_amplitude = golden_.amplitude[peak.bin];
      anomaly.suspect_amplitude = peak.amplitude;
      anomaly.ratio = peak.amplitude / std::max(anomaly.golden_amplitude, noise_floor_);
      report.anomalies.push_back(anomaly);
    } else if (peak.amplitude > options_.amplification_ratio * match->amplitude) {
      SpectralAnomaly anomaly;
      anomaly.kind = SpectralAnomalyKind::kAmplifiedSpot;
      anomaly.frequency_hz = peak.frequency;
      anomaly.golden_amplitude = match->amplitude;
      anomaly.suspect_amplitude = peak.amplitude;
      anomaly.ratio = peak.amplitude / match->amplitude;
      report.anomalies.push_back(anomaly);
    }
  }

  std::sort(report.anomalies.begin(), report.anomalies.end(),
            [](const SpectralAnomaly& a, const SpectralAnomaly& b) { return a.ratio > b.ratio; });
}

double SpectralDetector::score(const Trace& trace) const {
  const SpectralReport report = analyze(trace);
  return report.anomalies.empty() ? 0.0 : report.anomalies.front().ratio;
}

DetectorReport SpectralDetector::to_stage(const SpectralReport& report) const {
  DetectorReport stage;
  stage.name = name();
  stage.threshold = threshold();
  stage.alarm = report.anomalous();
  double sum = 0.0;
  for (const SpectralAnomaly& a : report.anomalies) {
    sum += a.ratio;
    stage.max_score = std::max(stage.max_score, a.ratio);
  }
  if (!report.anomalies.empty()) {
    stage.mean_score = sum / static_cast<double>(report.anomalies.size());
    stage.anomalous_fraction = 1.0;
  }
  std::ostringstream detail;
  detail << report.anomalies.size() << " spectral anomalies";
  if (!report.anomalies.empty()) {
    detail << ", strongest x" << report.anomalies.front().ratio << " at "
           << report.anomalies.front().frequency_hz / 1e6 << " MHz";
  }
  stage.detail = detail.str();
  return stage;
}

std::string SpectralDetector::describe() const {
  std::ostringstream out;
  out << "spectral: " << golden_spots_.size() << " golden spots over "
      << golden_.size() << " bins, noise floor " << noise_floor_ << ", fs "
      << sample_rate_ / 1e6 << " MS/s";
  return out.str();
}

void SpectralDetector::save(util::ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(options_.spectrum.window));
  out.u8(options_.spectrum.remove_mean ? 1 : 0);
  out.f64(options_.noise_floor_factor);
  out.f64(options_.new_spot_factor);
  out.f64(options_.amplification_ratio);
  out.u64(options_.match_bins);
  out.f64(sample_rate_);
  dsp::save_spectrum(out, golden_);
  out.f64(noise_floor_);
  out.u64(golden_spots_.size());
  for (const dsp::SpectralPeak& spot : golden_spots_) {
    out.u64(spot.bin);
    out.f64(spot.frequency);
    out.f64(spot.amplitude);
  }
}

SpectralDetector SpectralDetector::load(util::ByteReader& in) {
  Options options;
  const std::uint32_t window = in.u32();
  EMTS_REQUIRE(window <= static_cast<std::uint32_t>(dsp::WindowKind::kBlackman),
               "spectral load: unknown window kind");
  options.spectrum.window = static_cast<dsp::WindowKind>(window);
  options.spectrum.remove_mean = in.u8() != 0;
  options.noise_floor_factor = in.f64();
  options.new_spot_factor = in.f64();
  options.amplification_ratio = in.f64();
  options.match_bins = in.u64();
  const double sample_rate = in.f64();
  EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
               "spectral load: sample rate must be finite and positive");

  dsp::Spectrum golden = dsp::load_spectrum(in);
  // The constructor re-derives noise floor and spots from the spectrum; the
  // serialized values are authoritative, so restore them exactly afterwards.
  SpectralDetector detector{options, std::move(golden), sample_rate};
  detector.noise_floor_ = in.f64();
  EMTS_REQUIRE(detector.noise_floor_ > 0.0, "spectral load: bad noise floor");
  // Each spot is a u64 bin and two f64s.
  const std::size_t spots = in.count_u64((1ull << 20) - 1, 24, "spectral load: spot count");
  detector.golden_spots_.clear();
  detector.golden_spots_.reserve(spots);
  for (std::size_t s = 0; s < spots; ++s) {
    dsp::SpectralPeak spot;
    spot.bin = in.u64();
    spot.frequency = in.f64();
    spot.amplitude = in.f64();
    EMTS_REQUIRE(spot.bin < detector.golden_.size(), "spectral load: spot bin out of range");
    detector.golden_spots_.push_back(spot);
  }
  return detector;
}

}  // namespace emts::core
