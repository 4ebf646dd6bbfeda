// A whole file mapped read-only: the one read mechanism behind every path
// loader (EMTA, EMCA, EMAA, EMFS). The loaders parse the mapped bytes in
// place through util::ByteReader, so no loader copies a file into the heap,
// and the kernel pages the bytes in as the parser reaches them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace emts::io {

class MappedFile {
 public:
  /// Maps `path` read-only. Throws precondition_error "<what>: cannot open
  /// <path>" (or cannot stat, or mmap failed). An empty file maps nothing
  /// and reads as zero bytes.
  MappedFile(const std::string& path, std::string_view what);

  /// The file's bytes, valid for this object's lifetime.
  std::span<const std::byte> bytes() const {
    return mapping_ ? std::span<const std::byte>{mapping_.get(), mapping_.get_deleter().size}
                    : std::span<const std::byte>{};
  }

 private:
  struct Unmap {
    std::size_t size;  // an initializer here breaks unique_ptr's default ctor on GCC
    void operator()(const std::byte* data) const noexcept;
  };
  std::unique_ptr<const std::byte, Unmap> mapping_;
};

}  // namespace emts::io
