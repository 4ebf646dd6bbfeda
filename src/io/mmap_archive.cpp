#include "io/mmap_archive.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/assert.hpp"

namespace emts::io {

MappedTraceArchive::MappedTraceArchive(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  EMTS_REQUIRE(fd >= 0, "trace archive: cannot open " + path);

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    EMTS_REQUIRE(false, "trace archive: cannot stat " + path);
  }
  const std::size_t file_bytes = static_cast<std::size_t>(st.st_size);

  // mmap refuses a zero-length mapping; the header check reports an empty
  // file as truncated without reading it.
  void* mapping = file_bytes == 0
                      ? nullptr
                      : ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  EMTS_REQUIRE(mapping != MAP_FAILED, "trace archive: mmap failed for " + path);
  mapping_ = mapping;
  mapping_bytes_ = file_bytes;

  const char* bytes = static_cast<const char*>(mapping);
  try {
    shape_ = decode_trace_archive_header(bytes, file_bytes, path);
  } catch (...) {
    unmap();
    throw;
  }
  samples_ = reinterpret_cast<const double*>(bytes + kTraceArchiveHeaderBytes);
}

MappedTraceArchive::~MappedTraceArchive() { unmap(); }

MappedTraceArchive::MappedTraceArchive(MappedTraceArchive&& other) noexcept
    : mapping_{other.mapping_},
      mapping_bytes_{other.mapping_bytes_},
      samples_{other.samples_},
      shape_{other.shape_} {
  other.mapping_ = nullptr;
  other.mapping_bytes_ = 0;
  other.samples_ = nullptr;
  other.shape_ = {};
}

MappedTraceArchive& MappedTraceArchive::operator=(MappedTraceArchive&& other) noexcept {
  if (this != &other) {
    unmap();
    mapping_ = other.mapping_;
    mapping_bytes_ = other.mapping_bytes_;
    samples_ = other.samples_;
    shape_ = other.shape_;
    other.mapping_ = nullptr;
    other.mapping_bytes_ = 0;
    other.samples_ = nullptr;
    other.shape_ = {};
  }
  return *this;
}

void MappedTraceArchive::unmap() noexcept {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    mapping_bytes_ = 0;
    samples_ = nullptr;
  }
}

const double* MappedTraceArchive::trace(std::size_t i) const {
  EMTS_REQUIRE(i < shape_.trace_count, "trace archive: trace index out of range");
  return samples_ + i * shape_.trace_length;
}

core::Trace MappedTraceArchive::trace_copy(std::size_t i) const {
  const double* begin = trace(i);
  return core::Trace(begin, begin + shape_.trace_length);
}

}  // namespace emts::io
