// A file opened for writing: the one write mechanism behind every path saver
// (EMTA, EMCA, EMAA, EMFS), the write-side twin of MappedFile. The savers
// encode through util::ByteWriter, or hand over bytes they already hold, and
// this moves them to the file, retrying short and interrupted writes.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace emts::io {

class FileWriter {
 public:
  /// Creates or truncates `path`. Throws precondition_error "<what>: cannot
  /// open <path>: <strerror>".
  FileWriter(const std::string& path, std::string_view what);
  /// Closes a file that close() did not (after an exception), unchecked.
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Appends `bytes`. Throws precondition_error "<what>: write failed for
  /// <path>: <strerror>".
  void write(std::span<const std::byte> bytes);
  void write(std::string_view bytes) { write(std::as_bytes(std::span{bytes})); }

  /// Closes the file; a failed close is a failed write.
  void close();

 private:
  [[noreturn]] void fail(std::string_view step, int error) const;

  std::string path_;
  std::string what_;
  int fd_ = -1;
};

}  // namespace emts::io
