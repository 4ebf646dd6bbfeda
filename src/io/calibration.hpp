// Calibration artifact: persist a fitted detector stack so deployments can
// cold-start monitoring without re-capturing golden traces ("calibrate once,
// monitor many"). Format "EMCA" v1:
//
//   magic   'E' 'M' 'C' 'A'
//   u32     version (1)
//   f64     calibration sample rate, Hz
//   f64     anomalous-fraction alarm gate
//   u32     detector count
//   then per detector:
//     string  detector name: euclidean, spectral or ron (u32 byte count + bytes)
//     u64     payload size in bytes
//     bytes   detector payload (Detector::save output)
//
// Payloads are length-framed so the loader can reject an unknown detector
// name, a payload that is not fully consumed, and trailing bytes after the
// last detector — any of which marks a corrupt or incompatible artifact.
// All fitted doubles round-trip bit-identically: a loaded evaluator scores
// every trace exactly as the evaluator that was saved.
#pragma once

#include <iosfwd>
#include <string>

#include "core/evaluator.hpp"
#include "util/binio.hpp"

namespace emts::io {

/// Writes the evaluator's full fitted state. Throws precondition_error on
/// I/O failure. The stream form writes the identical bytes into an open
/// stream — the embedding the EMFS fleet snapshot uses to bundle one EMCA
/// artifact per device.
void save_calibration(const std::string& path, const core::TrustEvaluator& evaluator);
void save_calibration(std::ostream& out, const core::TrustEvaluator& evaluator);

/// Reads an artifact written by save_calibration and reassembles the
/// evaluator. Throws precondition_error on bad magic, version, sizes,
/// detector names outside core::kDetectorNames, corrupt or
/// under/over-consumed payloads, or trailing bytes. The reader form parses
/// one artifact from `in` and leaves it just past the last detector payload
/// (no trailing-byte check), so an artifact can be embedded in a larger
/// container; the path form parses the mapped file and requires it to end
/// there.
core::TrustEvaluator load_calibration(const std::string& path);
core::TrustEvaluator load_calibration(util::ByteReader& in);

}  // namespace emts::io
