#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/sha_ni.h"

#if PAST_HAS_SHA_NI
#include <immintrin.h>
#endif

namespace past {
namespace {

alignas(16) const uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

void BlocksPortable(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      uint32_t v;
      std::memcpy(&v, blocks + 4 * i, 4);
      w[i] = __builtin_bswap32(v);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ ((~e) & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PAST_HAS_SHA_NI
// Multi-block SHA-256 compression on the SHA-NI instructions. The state
// lives in two registers in the order the instructions want (ABEF, CDGH)
// for the whole run of blocks and is converted back once at the end. Per
// block, sixteen groups of four rounds: each group adds its round constants
// to one message vector and runs sha256rnds2 twice (two rounds each, the
// second on the vector's high half), while the four message vectors rotate
// through sha256msg1 / alignr+add / sha256msg2 to extend the W schedule
// four words at a time. The group loop is fully unrolled, so every vector
// index is compile-time.
__attribute__((target("sha,sse4.1,ssse3"))) void BlocksShaNi(
    uint32_t* state, const uint8_t* blocks, size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        msg[g] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g));
        msg[g] = _mm_shuffle_epi8(msg[g], kByteSwap);
      }
      __m128i wk = _mm_add_epi32(
          msg[g % 4], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {
        // Finish group g+1's words: add the W[t-7] terms, which straddle two
        // vectors, then sha256msg2 folds in the sigma1 terms.
        __m128i w7 = _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4);
        msg[(g + 1) % 4] = _mm_add_epi32(msg[(g + 1) % 4], w7);
        msg[(g + 1) % 4] = _mm_sha256msg2_epu32(msg[(g + 1) % 4], msg[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12) {
        msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif  // PAST_HAS_SHA_NI

// The block function Update and Finish use: SHA-NI when the CPU has it.
using BlockFn = void (*)(uint32_t* state, const uint8_t* blocks, size_t count);
BlockFn Kernel() {
#if PAST_HAS_SHA_NI
  if (detail::CpuHasShaNi()) {
    return BlocksShaNi;
  }
#endif
  return BlocksPortable;
}

}  // namespace

Sha256::Sha256() : total_bytes_(0), buffered_(0) {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void Sha256::Update(ByteSpan data) { Absorb(data, Kernel()); }

std::array<uint8_t, Sha256::kDigestBytes> Sha256::Finish() { return Pad(Kernel()); }

void Sha256::Absorb(ByteSpan data, BlockFn compress) {
  if (data.empty()) {
    return;
  }
  total_bytes_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < sizeof(buffer_)) {
      return;
    }
    compress(h_, buffer_, 1);
    buffered_ = 0;
  }
  if (n >= 64) {
    compress(h_, p, n / 64);
    p += n & ~size_t{63};
    n &= 63;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

std::array<uint8_t, Sha256::kDigestBytes> Sha256::Pad(BlockFn compress) {
  uint64_t bit_len = total_bytes_ * 8;
  // One padding buffer (0x80, zeros, big-endian bit length) instead of
  // byte-at-a-time Update calls.
  uint8_t pad[64 + 8] = {0x80};
  size_t pad_len = (buffered_ < 56 ? 56 : 120) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Absorb(ByteSpan(pad, pad_len + 8), compress);

  std::array<uint8_t, kDigestBytes> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

std::array<uint8_t, Sha256::kDigestBytes> Sha256::Hash(ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

namespace detail {

std::array<uint8_t, 32> Sha256Portable(ByteSpan data) {
  Sha256 h;
  h.Absorb(data, BlocksPortable);
  return h.Pad(BlocksPortable);
}

}  // namespace detail

std::array<uint8_t, Sha256::kDigestBytes> HmacSha256(ByteSpan key, ByteSpan message) {
  uint8_t block_key[64] = {0};
  if (key.size() > 64) {
    auto digest = Sha256::Hash(key);
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ByteSpan(ipad, 64));
  inner.Update(message);
  auto inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(ByteSpan(opad, 64));
  outer.Update(ByteSpan(inner_digest.data(), inner_digest.size()));
  return outer.Finish();
}

}  // namespace past
