// Seeded structural mutation for the decoder tests: each decoder of
// untrusted bytes must return a valid object or throw precondition_error on
// any mutant of a valid input, without requesting more heap than a small
// multiple of the mutant's size. GCC ships no coverage-guided fuzzer, so the
// mutants come from PCG32 (emts::Rng) with a fixed seed, and half the edits
// aim at the format's length and count fields, where a decoder's bounds
// checks live; uniform offsets mostly land in raw samples. Out-of-bounds
// reads only show under the asan preset, which runs these tests.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "util/alloc_counter.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::mutation {

/// A little-endian u32 (width 4) or u64 (width 8) field of a seed input.
struct Field {
  std::size_t offset;
  std::size_t width;
};

inline std::uint64_t read_le(const std::string& bytes, std::size_t offset, std::size_t width) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, width);
  return value;
}

/// Overwrites a field with a boundary value or the field's own value +- 1.
/// A field past the end of a truncated input is left alone.
inline void splice(std::string& bytes, const Field& field, Rng& rng) {
  if (field.offset > bytes.size() || bytes.size() - field.offset < field.width) return;
  const std::uint64_t own = read_le(bytes, field.offset, field.width);
  const std::uint64_t values[] = {0, 1, 1ull << 24, 0xFFFFFFFFull, 1ull << 60, own + 1, own - 1};
  const std::uint64_t value = values[rng.uniform_below(7)];
  std::memcpy(bytes.data() + field.offset, &value, field.width);
}

/// Applies one to three edits: a splice into one of `fields` (half the
/// edits) or at a random offset, a bit flip, a random byte, or a truncation.
/// The caller re-seals checksums on most mutants, so that the structural
/// checks behind them run.
inline void mutate(std::string& bytes, const std::vector<Field>& fields, Rng& rng) {
  const std::uint32_t edits = 1 + rng.uniform_below(3);
  for (std::uint32_t e = 0; e < edits && !bytes.empty(); ++e) {
    const std::size_t at = rng.uniform_below(static_cast<std::uint32_t>(bytes.size()));
    switch (rng.uniform_below(8)) {
      case 0:
        splice(bytes, Field{at, rng.coin() ? 4u : 8u}, rng);
        break;
      case 1:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_below(8)));
        break;
      case 2:
        bytes[at] = static_cast<char>(rng.next_u32());
        break;
      case 3:
        bytes.resize(at);
        break;
      default:
        splice(bytes, fields[rng.uniform_below(static_cast<std::uint32_t>(fields.size()))], rng);
        break;
    }
  }
}

/// Runs `decode` on mutant `m`, `mutant_bytes` long. It must return or throw
/// precondition_error (anything else fails the test) and, where the
/// allocation counter is live, request less heap than the one bound every
/// decoder keeps: 8 x the mutant's size + 64 KiB. Returns the refusal's
/// message, or nullopt when the mutant decoded.
template <class Decode>
std::optional<std::string> decode_or_refuse(int m, std::size_t mutant_bytes, Decode decode) {
  const std::uint64_t before = util::alloc::thread_counts().bytes;
  std::optional<std::string> refusal;
  try {
    decode();
  } catch (const precondition_error& error) {
    refusal = error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "mutant " << m << " threw a non-precondition error: " << error.what();
    refusal = error.what();
  }
  if (util::alloc::counting_active()) {
    EXPECT_LT(util::alloc::thread_counts().bytes - before, 8 * mutant_bytes + 65536)
        << "mutant " << m;
  }
  return refusal;
}

}  // namespace emts::mutation
