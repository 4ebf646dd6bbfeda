#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/alloc_counter.hpp"
#include "util/assert.hpp"

namespace emts::util {
namespace {

std::string encode(const std::vector<double>& v) {
  std::string bytes;
  ByteWriter out{bytes};
  out.f64_vec(v);
  return bytes;
}

TEST(ByteReader, ReadsWhatTheWritersWrote) {
  std::string bytes;
  ByteWriter out{bytes};
  out.u8(7);
  out.u32(0xdeadbeef);
  out.u64(1ull << 40);
  out.f64(-0.0);
  out.f64_vec(std::vector<double>{1.5, -2.25});
  out.string("chip-07");
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
  std::string bytes;
  ByteWriter out{bytes};
  out.u32(11);
  out.u32(22);
  out.u64(33);
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

TEST(ByteWriter, RoundTripsEveryKindThroughTheReader) {
  std::string bytes;
  ByteWriter out{bytes};
  out.magic({'E', 'M', 'T', 'S'});
  out.u8(0xab);
  out.u32(0xdeadbeef);
  out.u64(0x0123456789abcdefull);
  out.f64(-0.0);
  out.f64_vec(std::vector<double>{1.5, -2.25, 1e-300});
  out.f64_vec(std::vector<double>{});
  out.string("chip-07");
  out.string("");
  const std::string raw = "raw!";
  out.bytes(std::as_bytes(std::span{raw}));
  EXPECT_EQ(out.size(), bytes.size());
  EXPECT_EQ(bytes.size(), 4 + 1 + 4 + 8 + 8 + (8 + 24) + 8 + (4 + 7) + 4 + 4u);

  ByteReader in{bytes};
  in.expect_magic({'E', 'M', 'T', 'S'}, "round trip");
  EXPECT_EQ(in.u8(), 0xabu);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(std::signbit(in.f64()));
  EXPECT_EQ(in.f64_vec(), (std::vector<double>{1.5, -2.25, 1e-300}));
  EXPECT_TRUE(in.f64_vec().empty());
  EXPECT_EQ(in.string(), "chip-07");
  EXPECT_EQ(in.string(), "");
  const std::span<const std::byte> tail = in.bytes(4);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(tail.data()), tail.size()), raw);
  in.expect_end("round trip");
}

// A frame's u64 is reserved, then patched with the bytes written after it,
// so nested frames need no staging buffer. The writer appends after what the
// buffer already holds.
TEST(ByteWriter, PatchesALengthFrameInPlace) {
  std::string bytes = "xy";
  ByteWriter out{bytes};
  const ByteWriter::Frame outer = out.begin_frame();
  out.u32(7);
  const ByteWriter::Frame inner = out.begin_frame();
  out.string("abc");
  EXPECT_EQ(out.end_frame(inner).size(), 4 + 3u);
  const std::span<const std::byte> framed = out.end_frame(outer);
  EXPECT_EQ(framed.size(), 4 + 8 + 7u);
  EXPECT_EQ(framed.data(), reinterpret_cast<const std::byte*>(bytes.data()) + 2 + 8);

  ByteReader in{std::string_view{bytes}.substr(2)};
  ByteReader frame = in.take(in.u64());
  in.expect_end("outer");
  EXPECT_EQ(frame.u32(), 7u);
  ByteReader nested = frame.take(frame.u64());
  frame.expect_end("inner");
  EXPECT_EQ(nested.string(), "abc");
  nested.expect_end("nested");
}

// encode_exact counts first, so the buffer is allocated once and holds the
// same bytes a plain writer appends.
TEST(ByteWriter, CountingPassSizesTheBufferExactly) {
  const std::vector<double> samples(1000, 0.5);
  const auto encode = [&](ByteWriter& out) {
    const ByteWriter::Frame frame = out.begin_frame();
    out.f64_vec(samples);
    out.string("sensor");
    out.end_frame(frame);
    out.u8(1);
  };
  ByteWriter counter;
  encode(counter);
  std::string plain;
  ByteWriter writer{plain};
  encode(writer);
  EXPECT_EQ(counter.size(), plain.size());

  const alloc::Counts before = alloc::thread_counts();
  std::string exact;
  encode_exact(exact, encode);
  const alloc::Counts after = alloc::thread_counts();
  EXPECT_EQ(exact, plain);
  if (alloc::counting_active()) {
    EXPECT_EQ(after.allocations - before.allocations, 1u);
    EXPECT_LT(after.bytes - before.bytes, plain.size() + 64);
  }
}

TEST(ByteWriter, RefusesAStringTheReaderWouldRefuse) {
  std::string bytes;
  ByteWriter out{bytes};
  try {
    out.string(std::string(1u << 20, 'x'));
    ADD_FAILURE() << "a 1 MiB string accepted";
  } catch (const precondition_error& error) {
    EXPECT_NE(std::string{error.what()}.find("binio: string too long"), std::string::npos);
  }
  EXPECT_TRUE(bytes.empty());
  // One byte shorter is the longest string the reader takes.
  out.string(std::string((1u << 20) - 1, 'x'));
  ByteReader in{bytes};
  EXPECT_EQ(in.string().size(), (1u << 20) - 1);
  in.expect_end("longest string");
}

}  // namespace
}  // namespace emts::util
