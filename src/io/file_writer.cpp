#include "io/file_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/assert.hpp"

namespace emts::io {

FileWriter::FileWriter(const std::string& path, std::string_view what)
    : path_{path}, what_{what} {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) fail("cannot open ", errno);
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void FileWriter::write(std::span<const std::byte> bytes) {
  EMTS_ASSERT(fd_ >= 0);
  while (!bytes.empty()) {
    const ssize_t put = ::write(fd_, bytes.data(), bytes.size());
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) fail("write failed for ", put < 0 ? errno : EIO);
    bytes = bytes.subspan(static_cast<std::size_t>(put));
  }
}

void FileWriter::close() {
  EMTS_ASSERT(fd_ >= 0);
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) fail("write failed for ", errno);
}

void FileWriter::fail(std::string_view step, int error) const {
  throw precondition_error(what_ + ": " + std::string{step} + path_ + ": " +
                           std::strerror(error));
}

}  // namespace emts::io
