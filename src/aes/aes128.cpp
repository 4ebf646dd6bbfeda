#include "aes/aes128.hpp"

#include <bit>

#include "util/assert.hpp"

namespace emts::aes {

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1u) p ^= a;
    const bool hi = (a & 0x80u) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1bu;  // reduce by x^8+x^4+x^3+x+1
    b >>= 1;
  }
  return p;
}

namespace {

std::uint8_t gf_inverse(std::uint8_t a) {
  if (a == 0) return 0;  // AES maps 0 -> 0 before the affine step
  // a^(2^8 - 2) = a^254 by square-and-multiply.
  std::uint8_t result = 1;
  std::uint8_t base = a;
  int exp = 254;
  while (exp > 0) {
    if (exp & 1) result = gf_mul(result, base);
    base = gf_mul(base, base);
    exp >>= 1;
  }
  return result;
}

struct SboxTables {
  std::array<std::uint8_t, 256> fwd{};
  std::array<std::uint8_t, 256> inv{};

  SboxTables() {
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t b = gf_inverse(static_cast<std::uint8_t>(x));
      // Affine transform: s = b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
      const auto rotl8 = [](std::uint8_t v, int r) {
        return static_cast<std::uint8_t>((v << r) | (v >> (8 - r)));
      };
      const std::uint8_t s = static_cast<std::uint8_t>(b ^ rotl8(b, 1) ^ rotl8(b, 2) ^
                                                       rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63u);
      fwd[static_cast<std::size_t>(x)] = s;
      inv[s] = static_cast<std::uint8_t>(x);
    }
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

void sub_bytes(Block& s) {
  for (auto& b : s) b = sbox(b);
}

// State layout: s[r + 4c] is row r, column c (FIPS column-major order).
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[static_cast<std::size_t>(r + 4 * c)] = t[static_cast<std::size_t>(r + 4 * ((c + r) % 4))];
    }
  }
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    const std::size_t o = static_cast<std::size_t>(4 * c);
    const std::uint8_t a0 = s[o], a1 = s[o + 1], a2 = s[o + 2], a3 = s[o + 3];
    s[o] = static_cast<std::uint8_t>(gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3);
    s[o + 1] = static_cast<std::uint8_t>(a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3);
    s[o + 2] = static_cast<std::uint8_t>(a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3));
    s[o + 3] = static_cast<std::uint8_t>(gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2));
  }
}

void add_round_key(Block& s, const Block& k) {
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= k[i];
}

}  // namespace

std::uint8_t sbox(std::uint8_t x) { return tables().fwd[x]; }

std::uint8_t inv_sbox(std::uint8_t x) { return tables().inv[x]; }

std::array<Block, kNumRounds + 1> expand_key(const Key& key) {
  // Work in 4-byte words; 44 words total.
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          key[static_cast<std::size_t>(4 * i + j)];
    }
  }
  std::uint8_t rcon = 0x01;
  for (int i = 4; i < 44; ++i) {
    auto temp = w[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(sbox(temp[1]) ^ rcon);
      temp[1] = sbox(temp[2]);
      temp[2] = sbox(temp[3]);
      temp[3] = sbox(t0);
      rcon = gf_mul(rcon, 2);
    }
    for (int j = 0; j < 4; ++j) {
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(w[static_cast<std::size_t>(i - 4)][static_cast<std::size_t>(j)] ^
                                    temp[static_cast<std::size_t>(j)]);
    }
  }

  std::array<Block, kNumRounds + 1> round_keys{};
  for (int r = 0; r <= kNumRounds; ++r) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        round_keys[static_cast<std::size_t>(r)][static_cast<std::size_t>(4 * i + j)] =
            w[static_cast<std::size_t>(4 * r + i)][static_cast<std::size_t>(j)];
      }
    }
  }
  return round_keys;
}

Key invert_key_schedule(const Block& round10_key) {
  // Reconstruct words w[40..43] from the round key, then walk backwards:
  // w[i-4] = w[i] ^ g(w[i-1]).
  std::array<std::array<std::uint8_t, 4>, 44> w{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      w[static_cast<std::size_t>(40 + i)][static_cast<std::size_t>(j)] =
          round10_key[static_cast<std::size_t>(4 * i + j)];
    }
  }

  // Rcon for round r is 2^(r-1) in GF(2^8); word i uses round i/4.
  const auto rcon_for = [](int word_index) {
    std::uint8_t rcon = 0x01;
    for (int r = 1; r < word_index / 4; ++r) rcon = gf_mul(rcon, 2);
    return rcon;
  };

  for (int i = 43; i >= 4; --i) {
    auto temp = w[static_cast<std::size_t>(i - 1)];
    if (i % 4 == 0) {
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(sbox(temp[1]) ^ rcon_for(i));
      temp[1] = sbox(temp[2]);
      temp[2] = sbox(temp[3]);
      temp[3] = sbox(t0);
    }
    for (int j = 0; j < 4; ++j) {
      w[static_cast<std::size_t>(i - 4)][static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
          w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] ^
          temp[static_cast<std::size_t>(j)]);
    }
  }

  Key key{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      key[static_cast<std::size_t>(4 * i + j)] =
          w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  return key;
}

Block encrypt(const Key& key, const Block& plaintext) {
  return encrypt_traced(key, plaintext).state[kNumRounds];
}

RoundTrace encrypt_traced(const Key& key, const Block& plaintext) {
  RoundTrace trace{};
  const auto keys = expand_key(key);
  trace.round_key = keys;

  Block s = plaintext;
  add_round_key(s, keys[0]);
  trace.state[0] = s;

  for (int r = 1; r <= kNumRounds; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    sub_bytes(s);
    trace.after_subbytes[ri] = s;
    shift_rows(s);
    trace.after_shiftrows[ri] = s;
    if (r < kNumRounds) {
      mix_columns(s);
    }
    trace.after_mixcolumns[ri] = s;
    add_round_key(s, keys[ri]);
    trace.state[ri] = s;
  }
  return trace;
}

int hamming_distance(const Block& a, const Block& b) {
  int total = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    total += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
  }
  return total;
}

int hamming_weight(const Block& a) {
  int total = 0;
  for (std::uint8_t b : a) total += std::popcount(static_cast<unsigned>(b));
  return total;
}

}  // namespace emts::aes
