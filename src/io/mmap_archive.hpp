// The one EMTA read mechanism. MappedTraceArchive maps the archive
// (io::MappedFile), validates its header (decode_trace_archive_header), then
// hands out pointers straight into the mapping: the EMTA payload is
// little-endian float64 starting at a double-aligned offset, so a trace is
// readable in place with no copy and no per-trace heap traffic. The kernel
// pages samples in on demand, which is what lets a replay client stream
// archives much larger than RAM at line rate. load_trace_archive() is this
// mapping plus one trace_copy() per trace, for analysis code that wants an
// owned TraceSet.
#pragma once

#include <cstddef>
#include <string>

#include "core/trace.hpp"
#include "io/mapped_file.hpp"
#include "io/trace_archive.hpp"

namespace emts::io {

class MappedTraceArchive {
 public:
  /// Opens and maps the archive read-only, validating the EMTA header
  /// against the actual file size (declared shape must account for every
  /// byte). Throws precondition_error on open/map failure or any header
  /// mismatch (decode_trace_archive_header).
  explicit MappedTraceArchive(const std::string& path);

  std::size_t size() const { return shape_.trace_count; }
  std::size_t trace_length() const { return shape_.trace_length; }
  double sample_rate() const { return shape_.sample_rate; }

  /// Pointer to trace i's samples inside the mapping (trace_length doubles).
  /// Valid for the archive's lifetime. Requires i < size().
  const double* trace(std::size_t i) const;

  /// Materializes trace i as an owned Trace (copies out of the mapping).
  core::Trace trace_copy(std::size_t i) const;

 private:
  MappedFile file_;
  TraceArchiveShape shape_;
};

}  // namespace emts::io
