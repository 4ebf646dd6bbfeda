// "Silicon mode" — the measurement conditions of the paper's Sec. V chip
// experiments, as opposed to the clean Sec. IV simulation conditions.
//
// The paper's measured numbers differ from its simulated ones in one
// systematic way: the on-chip sensor behaves as simulated (30.55 dB vs
// 29.98 dB) while the external probe degrades (13.87 dB vs 17.48 dB) because
// the lab adds "more unintended influences". Silicon mode models exactly
// those influences: narrowband interferers picked up by the probe loop,
// baseline drift from probe positioning, per-capture gain jitter, a higher
// broadband ambient level, and per-chip process variation applied to the
// die geometry.
#pragma once

#include <cstdint>

#include "sim/chip.hpp"

namespace emts::sim {

struct SiliconOptions {
  std::uint64_t chip_serial = 1;  // which die from the lot
};

/// Builds a chip configuration with silicon-mode non-idealities applied on
/// top of make_default_config(). Different chip serials produce different
/// (but reproducible) process corners.
ChipConfig make_silicon_config(const SiliconOptions& options = {});

}  // namespace emts::sim
