// Window functions for spectral estimation. The spectral detector windows
// traces before the FFT to keep Trojan tones from smearing into neighbours.
#pragma once

#include <cstddef>
#include <vector>

namespace emts::dsp {

enum class WindowKind { kRectangular, kHann, kHamming, kBlackman };

/// Window coefficients of length n (periodic form, suited to FFT analysis).
std::vector<double> make_window(WindowKind kind, std::size_t n);

/// Sum of window coefficients (amplitude-correction denominator).
double coherent_gain(const std::vector<double>& window);

/// Lower-case window name ("hann", ...) for messages.
const char* window_label(WindowKind kind);

}  // namespace emts::dsp
