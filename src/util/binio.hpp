// Little-endian binary primitives shared by the persistence layers (EMTA,
// EMCA, EMWF, EMFS, EMAA). Every encoder appends through one ByteWriter over
// a caller-owned buffer: fixed-width scalars, float64 vectors, length-prefixed
// strings, raw bytes, and u64 length frames that are reserved and patched in
// place, so an artifact is built where it ends up instead of being staged and
// copied. Every decoder reads through one ByteReader over bytes already in
// memory (a mapped file, a frame buffer), so each declared size is checked
// against the exact bytes left before it can size an allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emts::util {

// Both sides copy scalars in host byte order; the formats are little-endian.
static_assert(std::endian::native == std::endian::little,
              "binio: the EM* formats are little-endian");

/// Append-only little-endian writer over a std::string the caller owns and
/// keeps alive while the writer is in use. A writer built without a buffer
/// appends nothing and only counts, so an encoder can be run once to size a
/// buffer exactly (encode_exact).
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_{&out} {}
  /// A counting writer: size() grows as if the bytes were appended.
  ByteWriter() = default;

  /// Bytes in the buffer, or counted so far.
  std::size_t size() const { return out_ != nullptr ? out_->size() : counted_; }

  void u8(std::uint8_t v) { scalar(v); }
  void u32(std::uint32_t v) { scalar(v); }
  void u64(std::uint64_t v) { scalar(v); }
  void f64(double v) { scalar(v); }

  /// u64 element count followed by the raw float64s.
  void f64_vec(std::span<const double> v) {
    u64(v.size());
    bytes(std::as_bytes(v));
  }

  /// u32 byte count followed by the bytes. Refuses, with "binio: string too
  /// long", a string ByteReader::string would refuse (1 MiB or more).
  void string(std::string_view s);

  /// Raw bytes, unframed.
  void bytes(std::span<const std::byte> raw) {
    if (!raw.empty()) append(raw.data(), raw.size());
  }

  /// A format's four magic bytes (ByteReader::expect_magic checks them).
  void magic(const char (&magic)[4]) { bytes(std::as_bytes(std::span{magic})); }

  /// A reserved u64 length; end_frame patches it.
  struct Frame {
    std::size_t at;
  };
  Frame begin_frame() {
    const Frame frame{size()};
    u64(0);
    return frame;
  }
  /// Patches `frame` with the number of bytes appended since begin_frame and
  /// returns those bytes, valid until the next append (empty when counting).
  std::span<const std::byte> end_frame(Frame frame);

 private:
  template <typename T>
  void scalar(T v) {
    append(&v, sizeof v);
  }
  void append(const void* data, std::size_t n) {
    if (out_ != nullptr) {
      out_->append(static_cast<const char*>(data), n);
    } else {
      counted_ += n;
    }
  }

  std::string* out_ = nullptr;
  std::size_t counted_ = 0;
};

/// Appends what `encode(ByteWriter&)` writes to `out`, after a counting pass
/// has reserved exactly that many bytes: the buffer is allocated once rather
/// than grown by doubling, so an artifact costs its own size in heap.
template <typename Encode>
void encode_exact(std::string& out, Encode&& encode) {
  ByteWriter counter;
  encode(counter);
  out.reserve(out.size() + counter.size());
  ByteWriter writer{out};
  std::forward<Encode>(encode)(writer);
}

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
