// SHA-1 (FIPS 180-1), implemented from scratch.
//
// PAST derives 160-bit fileIds from SHA-1 of (file name, owner public key,
// salt) and 128-bit nodeIds from a hash of the node's public key. SHA-1's
// collision weaknesses do not matter here: the system needs uniform,
// hard-to-target ids, and the reproduction keeps the paper's exact choice.
//
// Like Sha256, Update() passes every whole block in its span to one
// multi-block compression call: the SHA-NI kernel when the CPU has it
// (src/crypto/sha_ni.h), the portable scalar rounds otherwise.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/u160.h"

namespace past {

namespace detail {
// One-shot SHA-1 on the portable scalar rounds, whatever the CPU: the
// reference the differential tests and bench_micro hold the dispatched path
// to.
std::array<uint8_t, 20> Sha1Portable(ByteSpan data);
}  // namespace detail

class Sha1 {
 public:
  static constexpr size_t kDigestBytes = 20;

  Sha1();

  void Update(ByteSpan data);
  std::array<uint8_t, kDigestBytes> Finish();

  // One-shot helpers.
  static std::array<uint8_t, kDigestBytes> Hash(ByteSpan data);
  static U160 HashToU160(ByteSpan data);

 private:
  friend std::array<uint8_t, 20> detail::Sha1Portable(ByteSpan data);

  // Folds `count` consecutive 64-byte blocks into the five state words.
  using BlockFn = void (*)(uint32_t* state, const uint8_t* blocks, size_t count);

  void Absorb(ByteSpan data, BlockFn compress);
  std::array<uint8_t, kDigestBytes> Pad(BlockFn compress);

  uint32_t h_[5];
  uint64_t total_bytes_;
  uint8_t buffer_[64];
  size_t buffered_;
};

}  // namespace past

