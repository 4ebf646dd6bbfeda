// Little-endian binary primitives shared by the persistence layers (EMTA,
// EMCA, EMWF, EMFS, EMAA). Writers append fixed-width scalars, vectors and
// length-prefixed strings to a std::ostream. Every decoder reads through one
// ByteReader over bytes already in memory (a mapped file, a frame buffer), so
// each declared size is checked against the exact bytes left before it can
// size an allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace emts::util {

void write_u8(std::ostream& out, std::uint8_t v);
void write_u32(std::ostream& out, std::uint32_t v);
void write_u64(std::ostream& out, std::uint64_t v);
void write_f64(std::ostream& out, double v);

/// u64 element count followed by raw float64 payload.
void write_f64_vec(std::ostream& out, const std::vector<double>& v);

/// u32 byte count followed by raw bytes.
void write_string(std::ostream& out, const std::string& s);

/// Bounds-checked little-endian reader over bytes it does not own; the
/// caller keeps them alive while the reader (and any sub-reader) is in use.
/// Every read throws precondition_error instead of running past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_{bytes} {}
  explicit ByteReader(std::string_view bytes)
      : bytes_{reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()} {}

  /// Bytes not yet read.
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }

  /// u64 element count (< 2^26) followed by raw float64s.
  std::vector<double> f64_vec();

  /// u32 byte count (< 1 MiB) followed by the bytes.
  std::string string();

  /// The next n bytes, which this reader then skips.
  std::span<const std::byte> bytes(std::size_t n) {
    if (n > remaining()) truncated(n);
    const std::span<const std::byte> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// A reader over the next n bytes, which this reader then skips: a nested
  /// frame read through it cannot run past its own end.
  ByteReader take(std::size_t n) { return ByteReader{bytes(n)}; }

  /// Reads a u32 (u64) count of elements that each occupy at least
  /// min_bytes_each (>= 1) bytes, and refuses it, naming `what`, when it
  /// exceeds `max` or the remaining bytes cannot hold that many elements.
  /// Every count that sizes an allocation is read through one of these.
  std::size_t count_u32(std::uint64_t max, std::size_t min_bytes_each, std::string_view what);
  std::size_t count_u64(std::uint64_t max, std::size_t min_bytes_each, std::string_view what);

  /// Reads four bytes and refuses them, with "<what>: bad magic", unless
  /// they equal `magic`.
  void expect_magic(const char (&magic)[4], std::string_view what);

  /// Refuses, with "<what>: trailing bytes", unless every byte was read.
  void expect_end(std::string_view what) const;

 private:
  template <typename T>
  T scalar() {
    T v{};
    std::memcpy(&v, bytes(sizeof v).data(), sizeof v);
    return v;
  }

  [[noreturn]] void truncated(std::size_t wanted) const;
  std::size_t checked_count(std::uint64_t count, std::uint64_t max, std::size_t min_bytes_each,
                            std::string_view what) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// a*b into *out without wrapping; returns false when the product overflows
/// u64. Shape checks that multiply attacker-controlled header fields must go
/// through this — a wrapped product can make a crafted header "agree" with a
/// tiny file and hand out out-of-bounds payload pointers.
inline bool checked_mul_u64(std::uint64_t a, std::uint64_t b, std::uint64_t* out) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *out = a * b;
  return true;
}

}  // namespace emts::util
