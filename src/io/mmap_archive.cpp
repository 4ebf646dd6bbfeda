#include "io/mmap_archive.hpp"

#include "util/assert.hpp"

namespace emts::io {

MappedTraceArchive::MappedTraceArchive(const std::string& path)
    : file_{path, "trace archive"} {
  util::ByteReader in{file_.bytes()};
  shape_ = decode_trace_archive_header(in, path);
}

const double* MappedTraceArchive::trace(std::size_t i) const {
  EMTS_REQUIRE(i < shape_.trace_count, "trace archive: trace index out of range");
  const auto* samples =
      reinterpret_cast<const double*>(file_.bytes().data() + kTraceArchiveHeaderBytes);
  return samples + i * shape_.trace_length;
}

core::Trace MappedTraceArchive::trace_copy(std::size_t i) const {
  const double* begin = trace(i);
  return core::Trace(begin, begin + shape_.trace_length);
}

}  // namespace emts::io
