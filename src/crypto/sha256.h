// SHA-256 (FIPS 180-4), implemented from scratch.
//
// PAST's per-byte integrity hash: a file certificate carries the SHA-256 of
// the content, so the client and every replica holder hash each stored file
// once more (k+1 hashes per insert, one per remote lookup). Also used for
// HMAC keying and wherever a 256-bit digest is preferable to SHA-1 (the
// paper only mandates SHA-1 for fileIds).
//
// Update() hands every whole 64-byte block in its span to one multi-block
// compression call. On x86-64 CPUs with SHA-NI that call is the hardware
// kernel (sha256rnds2/msg1/msg2, state kept in registers across blocks,
// about 7x the scalar rounds); elsewhere it is the portable scalar code. The
// choice is made at runtime (src/crypto/sha_ni.h) and both give identical
// digests.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace past {

namespace detail {
// One-shot SHA-256 on the portable scalar rounds, whatever the CPU: the
// reference the differential tests and bench_micro hold the dispatched path
// to.
std::array<uint8_t, 32> Sha256Portable(ByteSpan data);
}  // namespace detail

class Sha256 {
 public:
  static constexpr size_t kDigestBytes = 32;

  Sha256();

  void Update(ByteSpan data);
  std::array<uint8_t, kDigestBytes> Finish();

  static std::array<uint8_t, kDigestBytes> Hash(ByteSpan data);

 private:
  friend std::array<uint8_t, 32> detail::Sha256Portable(ByteSpan data);

  // Folds `count` consecutive 64-byte blocks into the eight state words.
  using BlockFn = void (*)(uint32_t* state, const uint8_t* blocks, size_t count);

  void Absorb(ByteSpan data, BlockFn compress);
  std::array<uint8_t, kDigestBytes> Pad(BlockFn compress);

  uint32_t h_[8];
  uint64_t total_bytes_;
  uint8_t buffer_[64];
  size_t buffered_;
};

// HMAC-SHA256 (RFC 2104).
std::array<uint8_t, Sha256::kDigestBytes> HmacSha256(ByteSpan key, ByteSpan message);

}  // namespace past
