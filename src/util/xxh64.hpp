// XXH64 (Yann Collet's xxHash, 64-bit variant) with seed 0: the payload
// checksum of EMWF frames and EMFS device records. It reads the input as
// four independent lanes of little-endian 64-bit words, so it runs an order
// of magnitude faster than a byte-serial hash, and each lane round
// (multiply, rotate, multiply) folds high bits back down, so a flipped or
// swapped word cannot cancel out. The algorithm is published with test
// vectors; any stock XXH64 implementation produces the same checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace emts::util {

std::uint64_t xxh64(const void* data, std::size_t size);

}  // namespace emts::util
