#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "util/alloc_counter.hpp"
#include "util/assert.hpp"

namespace emts::util {
namespace {

std::string encode(const std::vector<double>& v) {
  std::ostringstream out;
  write_f64_vec(out, v);
  return out.str();
}

TEST(ByteReader, ReadsWhatTheWritersWrote) {
  std::ostringstream out;
  write_u8(out, 7);
  write_u32(out, 0xdeadbeef);
  write_u64(out, 1ull << 40);
  write_f64(out, -0.0);
  write_f64_vec(out, {1.5, -2.25});
  write_string(out, "chip-07");
  const std::string bytes = out.str();
  ByteReader in{bytes};
  EXPECT_EQ(in.u8(), 7u);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 1ull << 40);
  EXPECT_TRUE(std::signbit(in.f64()));
  EXPECT_EQ(in.f64_vec(), (std::vector<double>{1.5, -2.25}));
  EXPECT_EQ(in.string(), "chip-07");
  EXPECT_EQ(in.remaining(), 0u);
  in.expect_end("round trip");
}

TEST(ByteReader, TruncatedScalarThrowsAndReadsNothing) {
  const std::string bytes = "abc";
  ByteReader in{bytes};
  EXPECT_THROW(in.u32(), precondition_error);
  EXPECT_EQ(in.remaining(), 3u);
  EXPECT_EQ(in.u8(), static_cast<std::uint8_t>('a'));
  EXPECT_THROW(in.f64(), precondition_error);
}

// A count is checked against the bytes left before anything is sized from
// it: 2^20 doubles declared over 8 bytes request only the error message.
TEST(ByteReader, CountTheBytesCannotBackIsRefusedBeforeAllocating) {
  std::string bytes = encode({3.0});
  const std::uint64_t declared = 1u << 20;
  std::memcpy(bytes.data(), &declared, sizeof declared);
  const std::uint64_t before = alloc::thread_counts().bytes;
  ByteReader vec{bytes};
  EXPECT_THROW(vec.f64_vec(), precondition_error);
  ByteReader count{bytes};
  EXPECT_THROW(count.count_u64(1u << 24, 8, "test count"), precondition_error);
  if (alloc::counting_active()) {
    EXPECT_LT(alloc::thread_counts().bytes - before, 4096u);
  }
  // A count the bytes back is refused only above its cap.
  const std::string one = encode({3.0});
  ByteReader capped{one};
  EXPECT_THROW(capped.count_u64(0, 8, "test count"), precondition_error);
  ByteReader fits{one};
  EXPECT_EQ(fits.count_u64(1, 8, "test count"), 1u);
}

TEST(ByteReader, TakeReadsANestedFrameAndNoFurther) {
  std::ostringstream out;
  write_u32(out, 11);
  write_u32(out, 22);
  write_u64(out, 33);
  const std::string bytes = out.str();
  ByteReader in{bytes};
  ByteReader frame = in.take(4);
  EXPECT_EQ(in.remaining(), 12u);
  EXPECT_EQ(frame.remaining(), 4u);
  EXPECT_THROW(frame.u64(), precondition_error);  // would run into the next field
  EXPECT_EQ(frame.u32(), 11u);
  EXPECT_THROW(frame.u8(), precondition_error);
  frame.expect_end("frame");
  EXPECT_EQ(in.u32(), 22u);
  EXPECT_THROW(in.take(9), precondition_error);
  EXPECT_EQ(in.u64(), 33u);
}

TEST(ByteReader, ExpectEndRefusesUnreadBytes) {
  const std::string bytes = "EMxx!";
  ByteReader in{bytes};
  EXPECT_THROW(in.expect_magic({'E', 'M', 'C', 'A'}, "test"), precondition_error);
  ByteReader again{bytes};
  again.expect_magic({'E', 'M', 'x', 'x'}, "test");
  try {
    again.expect_end("test frame");
    ADD_FAILURE() << "one unread byte accepted";
  } catch (const precondition_error& error) {
    EXPECT_NE(std::string{error.what()}.find("test frame: trailing bytes"), std::string::npos);
  }
  again.u8();
  again.expect_end("test frame");
}

}  // namespace
}  // namespace emts::util
