#include "util/xxh64.hpp"

#include <bit>
#include <cstring>

namespace emts::util {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  acc ^= lane_round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h;

  if (size >= 32) {
    // Four lanes, one 32-byte stripe per iteration.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    do {
      v1 = lane_round(v1, load_u64(p));
      v2 = lane_round(v2, load_u64(p + 8));
      v3 = lane_round(v3, load_u64(p + 16));
      v4 = lane_round(v4, load_u64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<std::uint64_t>(size);

  // Tail: 8-byte words, then one 4-byte word, then single bytes.
  while (end - p >= 8) {
    h ^= lane_round(0, load_u64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(load_u32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p != end) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }

  // Avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace emts::util
