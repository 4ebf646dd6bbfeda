#include "io/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/assert.hpp"

namespace emts::io {

void MappedFile::Unmap::operator()(const std::byte* data) const noexcept {
  ::munmap(const_cast<std::byte*>(data), size);
}

MappedFile::MappedFile(const std::string& path, std::string_view what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  EMTS_REQUIRE(fd >= 0, std::string{what} + ": cannot open " + path);
  struct stat st {};
  const bool stated = ::fstat(fd, &st) == 0;
  if (!stated || st.st_size == 0) {
    // mmap refuses a zero-length mapping, so an empty file maps nothing.
    ::close(fd);
    EMTS_REQUIRE(stated, std::string{what} + ": cannot stat " + path);
    return;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  EMTS_REQUIRE(mapping != MAP_FAILED, std::string{what} + ": mmap failed for " + path);
  mapping_ = {static_cast<const std::byte*>(mapping), Unmap{size}};
}

}  // namespace emts::io
