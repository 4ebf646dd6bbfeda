#include "dsp/spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n, double amplitude) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(2.0 * units::pi * freq * static_cast<double>(i) / fs);
  }
  return out;
}

TEST(Spectrum, ToneAmplitudeRecoveredAtItsBin) {
  const double fs = 1000.0;
  const std::size_t n = 1024;
  // Bin-exact tone: 125 Hz = bin 128 of 1024 at fs 1000.
  const auto sig = tone(125.0, fs, n, 3.0);
  const auto spec = amplitude_spectrum(sig, fs);
  const std::size_t k = spec.bin_of(125.0);
  EXPECT_NEAR(spec.frequency[k], 125.0, 1e-9);
  EXPECT_NEAR(spec.amplitude[k], 3.0, 0.01);
}

TEST(Spectrum, AmplitudeCorrectForAllWindows) {
  const double fs = 1024.0;
  const std::size_t n = 1024;
  const auto sig = tone(64.0, fs, n, 2.0);
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann, WindowKind::kHamming,
                    WindowKind::kBlackman}) {
    SpectrumOptions opt;
    opt.window = kind;
    const auto spec = amplitude_spectrum(sig, fs, opt);
    EXPECT_NEAR(spec.amplitude[spec.bin_of(64.0)], 2.0, 0.05)
        << "window kind " << static_cast<int>(kind);
  }
}

TEST(Spectrum, DcRemovedByDefault) {
  std::vector<double> sig(512, 5.0);
  const auto spec = amplitude_spectrum(sig, 100.0);
  EXPECT_NEAR(spec.amplitude[0], 0.0, 1e-9);
}

TEST(Spectrum, DcKeptWhenRequested) {
  std::vector<double> sig(512, 5.0);
  SpectrumOptions opt;
  opt.remove_mean = false;
  opt.window = WindowKind::kRectangular;
  const auto spec = amplitude_spectrum(sig, 100.0, opt);
  EXPECT_NEAR(spec.amplitude[0], 5.0, 1e-9);
}

TEST(Spectrum, FrequencyAxisSpansToNyquist) {
  const auto spec = amplitude_spectrum(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(spec.frequency.front(), 0.0);
  EXPECT_DOUBLE_EQ(spec.frequency.back(), 500.0);
  EXPECT_EQ(spec.size(), 129u);
}

TEST(Spectrum, BinOfClampsOutOfRange) {
  const auto spec = amplitude_spectrum(tone(10.0, 1000.0, 256, 1.0), 1000.0);
  EXPECT_EQ(spec.bin_of(-5.0), 0u);
  EXPECT_EQ(spec.bin_of(1e9), spec.size() - 1);
}

TEST(Spectrum, TwoTonesBothVisible) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  auto sig = tone(64.0, fs, n, 1.0);
  const auto t2 = tone(200.0, fs, n, 0.5);
  for (std::size_t i = 0; i < n; ++i) sig[i] += t2[i];
  const auto spec = amplitude_spectrum(sig, fs);
  EXPECT_NEAR(spec.amplitude[spec.bin_of(64.0)], 1.0, 0.05);
  EXPECT_NEAR(spec.amplitude[spec.bin_of(200.0)], 0.5, 0.05);
}

TEST(Spectrum, MeanSpectrumAveragesNoiseDown) {
  emts::Rng rng{55};
  const double fs = 1000.0;
  const std::size_t n = 512;
  std::vector<std::vector<double>> noisy;
  for (int t = 0; t < 32; ++t) {
    auto sig = tone(125.0, fs, n, 1.0);
    for (double& v : sig) v += rng.gaussian(0.0, 1.0);
    noisy.push_back(std::move(sig));
  }
  const auto avg = mean_spectrum(noisy, fs);
  const auto single = amplitude_spectrum(noisy.front(), fs);
  // Tone preserved.
  EXPECT_NEAR(avg.amplitude[avg.bin_of(125.0)], 1.0, 0.15);
  // Averaged noise floor well below a tone amplitude.
  double floor_sum = 0.0;
  std::size_t floor_count = 0;
  for (std::size_t k = 5; k < avg.size(); ++k) {
    if (std::abs(avg.frequency[k] - 125.0) < 20.0) continue;
    floor_sum += avg.amplitude[k];
    ++floor_count;
  }
  EXPECT_LT(floor_sum / static_cast<double>(floor_count), 0.25);
  (void)single;
}

TEST(Spectrum, MeanSpectrumRejectsRaggedInput) {
  EXPECT_THROW(mean_spectrum({std::vector<double>(64, 0.0), std::vector<double>(32, 0.0)}, 1.0),
               emts::precondition_error);
}

TEST(Spectrum, AmplitudeSpectrumRejectsEmptyInput) {
  EXPECT_THROW(amplitude_spectrum({}, 1000.0), emts::precondition_error);
}

// Every amplitude is scaled by 1/gain. The Hann and Blackman windows of
// length 1 sum to 0 and to -1.4e-17, which turned a 1-sample spectrum into
// NaN or a negative amplitude; the analyzer refuses them by name and length.
TEST(Spectrum, RefusesAWindowWithoutPositiveGain) {
  for (WindowKind kind : {WindowKind::kHann, WindowKind::kBlackman}) {
    try {
      amplitude_spectrum({0.7}, 1000.0, {kind, false});
      ADD_FAILURE() << window_label(kind) << " window of length 1 was accepted";
    } catch (const emts::precondition_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(window_label(kind)), std::string::npos) << message;
      EXPECT_NE(message.find("length 1 "), std::string::npos) << message;
    }
  }
  // Rectangular and Hamming windows of length 1 keep a positive gain.
  EXPECT_DOUBLE_EQ(
      amplitude_spectrum({0.7}, 1000.0, {WindowKind::kRectangular, false}).amplitude[0], 0.7);
  EXPECT_DOUBLE_EQ(amplitude_spectrum({0.7}, 1000.0, {WindowKind::kHamming, false}).amplitude[0],
                   0.7);

  // A refused preparation leaves a prepared analyzer as it was.
  SpectrumAnalyzer analyzer;
  analyzer.ensure_stream(8, 1000.0);
  EXPECT_THROW(analyzer.ensure_stream(1, 1000.0), emts::precondition_error);
  EXPECT_EQ(analyzer.warmups(), 1u);
  std::vector<double> amp;
  analyzer.stream_transform(std::vector<double>(8, 1.0), amp);
  EXPECT_EQ(amp.size(), 5u);
}

TEST(FindPeaks, DetectsInjectedTonesInBinOrder) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  auto sig = tone(64.0, fs, n, 1.0);
  const auto t2 = tone(200.0, fs, n, 2.0);
  for (std::size_t i = 0; i < n; ++i) sig[i] += t2[i];
  const auto spec = amplitude_spectrum(sig, fs);
  const auto peaks = find_peaks(spec, 0.2);
  ASSERT_GE(peaks.size(), 2u);
  // Bin-ordered: the 64 Hz tone comes first even though 200 Hz is stronger.
  EXPECT_NEAR(peaks[0].frequency, 64.0, 1.0);
  EXPECT_NEAR(peaks[1].frequency, 200.0, 1.0);
  EXPECT_GT(peaks[1].amplitude, peaks[0].amplitude);
}

TEST(FindPeaks, RespectsMaxPeaks) {
  emts::Rng rng{77};
  std::vector<double> sig(1024);
  for (double& v : sig) v = rng.gaussian();
  const auto spec = amplitude_spectrum(sig, 1000.0);
  const auto peaks = find_peaks(spec, 0.0, 5);
  EXPECT_LE(peaks.size(), 5u);
  for (std::size_t i = 1; i < peaks.size(); ++i) EXPECT_LT(peaks[i - 1].bin, peaks[i].bin);
}

// Regression: truncation must drop the weakest peaks, not the highest
// frequencies — a strong Trojan carrier high in the band has to survive a
// crowded low band.
TEST(FindPeaks, TruncationKeepsTheStrongestPeaks) {
  const double fs = 1024.0;
  const std::size_t n = 2048;
  // Six weak low-frequency tones, one strong tone near the top of the band.
  std::vector<double> sig(n, 0.0);
  for (double f : {24.0, 40.0, 56.0, 72.0, 88.0, 104.0}) {
    const auto t = tone(f, fs, n, 0.5);
    for (std::size_t i = 0; i < n; ++i) sig[i] += t[i];
  }
  const auto carrier = tone(480.0, fs, n, 3.0);
  for (std::size_t i = 0; i < n; ++i) sig[i] += carrier[i];

  const auto spec = amplitude_spectrum(sig, fs);
  const auto peaks = find_peaks(spec, 0.1, 4);
  ASSERT_EQ(peaks.size(), 4u);
  // The strong high-band carrier must be among the survivors...
  bool carrier_kept = false;
  for (const auto& p : peaks) carrier_kept |= std::abs(p.frequency - 480.0) < 1.0;
  EXPECT_TRUE(carrier_kept);
  // ...and the survivors come back bin-ordered.
  for (std::size_t i = 1; i < peaks.size(); ++i) EXPECT_LT(peaks[i - 1].bin, peaks[i].bin);
  // Every kept peak is at least as strong as every qualifying peak that was
  // dropped.
  const auto all = find_peaks(spec, 0.1, 1000);
  ASSERT_GT(all.size(), 4u);
  double weakest_kept = peaks[0].amplitude;
  for (const auto& p : peaks) weakest_kept = std::min(weakest_kept, p.amplitude);
  std::size_t stronger_than_weakest_kept = 0;
  for (const auto& p : all) {
    if (p.amplitude > weakest_kept) ++stronger_than_weakest_kept;
  }
  EXPECT_LE(stronger_than_weakest_kept, 3u);
}

TEST(FindPeaks, IntoVariantMatchesAndReusesItsBuffer) {
  const double fs = 1024.0;
  auto sig = tone(64.0, fs, 2048, 1.0);
  const auto t2 = tone(200.0, fs, 2048, 2.0);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] += t2[i];
  const auto spec = amplitude_spectrum(sig, fs);

  const auto copied = find_peaks(spec, 0.2);
  std::vector<SpectralPeak> reused;
  find_peaks_into(spec, 0.2, reused);
  ASSERT_EQ(reused.size(), copied.size());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(reused[i].bin, copied[i].bin);
    EXPECT_EQ(reused[i].frequency, copied[i].frequency);
    EXPECT_EQ(reused[i].amplitude, copied[i].amplitude);
  }
  // Second call clears before writing — no stale accumulation.
  find_peaks_into(spec, 0.2, reused);
  EXPECT_EQ(reused.size(), copied.size());
}

TEST(SpectrumAnalyzer, RewarmsOnShapeChangeOnly) {
  SpectrumAnalyzer analyzer;
  std::vector<double> amp;
  analyzer.ensure_stream(256, 1000.0);
  analyzer.stream_transform(tone(10.0, 1000.0, 256, 1.0), amp);
  analyzer.ensure_stream(256, 1000.0);
  analyzer.stream_transform(tone(20.0, 1000.0, 256, 1.0), amp);
  EXPECT_EQ(analyzer.warmups(), 1u);
  analyzer.ensure_stream(512, 1000.0);  // new length
  EXPECT_EQ(analyzer.warmups(), 2u);
  analyzer.ensure_stream(512, 2000.0);  // new rate
  EXPECT_EQ(analyzer.warmups(), 3u);
}

// An empty signal matched an unprepared analyzer's zero length and ran a
// 1-point transform over empty buffers.
TEST(SpectrumAnalyzer, RefusesTransformsBeforeEnsureStream) {
  SpectrumAnalyzer analyzer;
  std::vector<double> amp;
  EXPECT_THROW(analyzer.stream_transform(std::vector<double>{}, amp), emts::precondition_error);
  EXPECT_THROW(analyzer.stream_push(std::vector<double>{}, amp), emts::precondition_error);
  EXPECT_THROW(analyzer.stream_transform(std::vector<double>(8, 1.0), amp),
               emts::precondition_error);
  EXPECT_TRUE(amp.empty());
}

TEST(FindPeaks, EmptyWhenThresholdAboveEverything) {
  const auto spec = amplitude_spectrum(tone(64.0, 1024.0, 1024, 1.0), 1024.0);
  EXPECT_TRUE(find_peaks(spec, 100.0).empty());
}

}  // namespace
}  // namespace emts::dsp
