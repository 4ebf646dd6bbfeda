// Array calibration artifact. Format "EMAA" v1 (docs/FORMATS.md):
//
//   magic   'E' 'M' 'A' 'A'
//   u32     version (1)
//   u32     grid nx
//   u32     grid ny
//   f64     grid coil radius as specified (0 = auto rule)
//   u32     grid turns per coil
//   f64     grid z clearance, m
//   f64     capture sample rate, Hz
//   u32     sensor count (= nx * ny)
//   then per sensor, grid row-major:
//     f64_vec  golden mean trace (volts per sample)
//     f64      baseline residual energy, V^2
//     bytes    embedded EMCA calibration artifact (io::save_calibration
//              stream form; self-delimiting — the EMCA reader form stops
//              exactly after its last detector payload)
//
// The grid spec travels with the calibrations so a monitor can rebuild the
// identical SensorGrid (grid geometry is pure + deterministic) and refuse an
// artifact fitted for a different array. All fitted doubles round-trip
// bit-identically.
#pragma once

#include <iosfwd>
#include <string>

#include "array/calibration.hpp"
#include "util/binio.hpp"

namespace emts::array {

/// Writes the array's full fitted state. Throws precondition_error on I/O
/// failure. The stream form writes the identical bytes into an open stream.
void save_array_calibration(const std::string& path, const ArrayCalibration& calibration);
void save_array_calibration(std::ostream& out, const ArrayCalibration& calibration);

/// Reads an artifact written by save_array_calibration. Throws
/// precondition_error on bad magic, version, shape, or payload. The reader
/// form stops exactly after the last sensor's EMCA; the path form parses the
/// mapped file and requires it to end there.
ArrayCalibration load_array_calibration(const std::string& path);
ArrayCalibration load_array_calibration(util::ByteReader& in);

}  // namespace emts::array
