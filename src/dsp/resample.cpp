#include "dsp/resample.hpp"

#include "util/assert.hpp"

namespace emts::dsp {

std::vector<double> decimate_mean(const std::vector<double>& signal, std::size_t factor) {
  std::vector<double> out;
  decimate_mean_into(signal, factor, out);
  return out;
}

void decimate_mean_into(const std::vector<double>& signal, std::size_t factor,
                        std::vector<double>& out) {
  EMTS_REQUIRE(factor > 0, "decimation factor must be positive");
  const std::size_t blocks = signal.size() / factor;
  out.assign(blocks, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < factor; ++i) acc += signal[b * factor + i];
    out[b] = acc / static_cast<double>(factor);
  }
}

}  // namespace emts::dsp
