#include "util/binio.hpp"

#include "util/assert.hpp"

namespace emts::util {

namespace {

// Caps on deserialized container sizes: a flipped header bit must fail the
// precondition check, not attempt a 2^60-element allocation.
constexpr std::uint64_t kMaxVecElements = 1ull << 26;  // 512 MiB of doubles
constexpr std::uint32_t kMaxStringBytes = 1u << 20;

}  // namespace

void ByteWriter::string(std::string_view s) {
  EMTS_REQUIRE(s.size() < kMaxStringBytes, "binio: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(std::as_bytes(std::span{s}));
}

std::span<const std::byte> ByteWriter::end_frame(Frame frame) {
  EMTS_ASSERT(frame.at + sizeof(std::uint64_t) <= size());
  const std::size_t start = frame.at + sizeof(std::uint64_t);
  const std::uint64_t length = size() - start;
  if (out_ == nullptr) return {};
  std::memcpy(out_->data() + frame.at, &length, sizeof length);
  return std::as_bytes(std::span{*out_}).subspan(start);
}

void ByteReader::truncated(std::size_t wanted) const {
  precondition_failure("n <= remaining()", "binio: truncated input: " + std::to_string(wanted) +
                                               " bytes wanted, " +
                                               std::to_string(remaining()) + " left");
}

std::size_t ByteReader::checked_count(std::uint64_t count, std::uint64_t max,
                                      std::size_t min_bytes_each, std::string_view what) const {
  EMTS_ASSERT(min_bytes_each >= 1);
  EMTS_REQUIRE(count <= max, std::string{what} + ": implausible count " + std::to_string(count));
  // Divide rather than multiply: count * min_bytes_each can wrap u64.
  EMTS_REQUIRE(count <= remaining() / min_bytes_each,
               std::string{what} + ": count " + std::to_string(count) +
                   " exceeds remaining bytes");
  return static_cast<std::size_t>(count);
}

std::size_t ByteReader::count_u32(std::uint64_t max, std::size_t min_bytes_each,
                                  std::string_view what) {
  return checked_count(u32(), max, min_bytes_each, what);
}

std::size_t ByteReader::count_u64(std::uint64_t max, std::size_t min_bytes_each,
                                  std::string_view what) {
  return checked_count(u64(), max, min_bytes_each, what);
}

std::vector<double> ByteReader::f64_vec() {
  const std::size_t n = count_u64(kMaxVecElements - 1, sizeof(double), "binio: vector size");
  std::vector<double> v(n);
  const std::span<const std::byte> raw = bytes(n * sizeof(double));
  if (n > 0) std::memcpy(v.data(), raw.data(), raw.size());
  return v;
}

std::string ByteReader::string() {
  const std::size_t n = count_u32(kMaxStringBytes - 1, 1, "binio: string size");
  const std::span<const std::byte> raw = bytes(n);
  return std::string(reinterpret_cast<const char*>(raw.data()), n);
}

void ByteReader::expect_magic(const char (&magic)[4], std::string_view what) {
  EMTS_REQUIRE(std::memcmp(bytes(sizeof magic).data(), magic, sizeof magic) == 0,
               std::string{what} + ": bad magic");
}

void ByteReader::expect_end(std::string_view what) const {
  EMTS_REQUIRE(remaining() == 0, std::string{what} + ": trailing bytes");
}

}  // namespace emts::util
