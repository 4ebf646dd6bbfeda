// Binary trace archive: persist acquisition campaigns so the analysis module
// can run offline, detectors can be recalibrated later, and golden
// references can ship with a deployment. Format "EMTA" v1: a fixed header
// (magic, version, trace count, trace length, sample rate) followed by
// little-endian float64 samples, trace-major.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/trace.hpp"
#include "util/binio.hpp"

namespace emts::io {

/// Bytes of the fixed EMTA v1 header that precedes the float64 payload.
inline constexpr std::size_t kTraceArchiveHeaderBytes = 32;

/// An archive's shape as its (validated) header declares it.
struct TraceArchiveShape {
  std::size_t trace_count = 0;
  std::size_t trace_length = 0;
  double sample_rate = 0.0;
};

/// The one EMTA header check, applied by MappedTraceArchive (and so by
/// load_trace_archive). Reads the header from `in`, which must hold the
/// whole archive, and validates it against the bytes that follow: a whole
/// header present, magic, version, non-empty shape, finite positive sample
/// rate, both sizes below 2^32, and count x length x 8 == the bytes left
/// (multiplied without wrapping). Leaves `in` at the first sample. Throws
/// precondition_error naming `path`.
TraceArchiveShape decode_trace_archive_header(util::ByteReader& in, const std::string& path);

/// Writes a validated TraceSet; throws precondition_error on I/O failure or
/// an empty/ragged set.
void save_trace_archive(const std::string& path, const core::TraceSet& set);

/// Reads an archive written by save_trace_archive: maps it through
/// MappedTraceArchive (which validates the header) and copies every trace
/// out. Throws precondition_error on any mismatch (bad magic, truncated
/// payload, zero sizes).
core::TraceSet load_trace_archive(const std::string& path);

}  // namespace emts::io
