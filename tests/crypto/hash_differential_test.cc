// Differential suite holding the per-byte integrity kernels equal to their
// portable references:
//
//  * SHA-256 and SHA-1 as PAST calls them (the runtime-dispatched SHA-NI
//    kernels on CPUs that have them) against the portable scalar rounds
//    (detail::Sha256Portable / detail::Sha1Portable);
//  * Crc32cExtend (the SSE4.2 crc32 instruction where present) against the
//    portable slice-by-4 tables (detail::Crc32cExtendPortable);
//
// over every length 0..1100 at every start offset 0..15 (unaligned loads,
// every tail length, every block-boundary straddle), 64 KiB and 1 MiB
// inputs, random Update splits and Crc32cExtend chaining, and known answers
// run through both paths (the FIPS 180-4 and RFC 3720 vectors, plus one
// answer covering every message length), so a bug that breaks both the same
// way still fails. On a CPU without the instructions both sides are the
// portable code and the known answers still check it.
//
// Part of the `crypto_differential` ctest (LABELS crypto_diff), which
// tools/check.sh also runs under the asan preset.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha_ni.h"

namespace past {
namespace {

constexpr size_t kMaxLen = 1100;
constexpr size_t kMaxOffset = 15;

template <size_t N>
std::string Hex(const std::array<uint8_t, N>& digest) {
  return HexEncode(ByteSpan(digest.data(), digest.size()));
}

std::string Hex32(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

// One random buffer with room for every (offset, length) pair.
Bytes SweepBuffer(uint64_t seed) {
  Rng rng(seed);
  return rng.RandomBytes(kMaxLen + kMaxOffset);
}

// Feeds `data` to `h` in random-sized pieces, zero-length ones included.
template <typename Hasher>
void UpdateInRandomPieces(Hasher* h, ByteSpan data, Rng* rng) {
  size_t pos = 0;
  while (pos < data.size()) {
    size_t left = data.size() - pos;
    // Mostly short pieces (buffer straddles), sometimes multi-block runs.
    size_t n = rng->UniformU64(4) == 0 ? rng->UniformU64(left + 1)
                                       : rng->UniformU64(std::min<size_t>(left, 130) + 1);
    h->Update(data.subspan(pos, n));
    pos += n;
  }
}

void NoteWhichPaths() {
  std::printf("sha-ni: %s, crc32c sse4.2: %s\n",
              detail::CpuHasShaNi() ? "compared" : "absent (portable only)",
              detail::Crc32cHardware() ? "compared" : "absent (portable only)");
}

// Known answer over every length 0..kMaxLen: the hash of the concatenated
// digests of the patterned messages (i*31+7 mod 256) of each length. The two
// paths share the padding code, so only an independent answer catches a
// padding bug at one length (e.g. 55 or 119 bytes, where the length field
// just fits). Reference: Python's hashlib over the same bytes.
template <typename Digest, typename HashFn>
std::string EveryLengthDigest(HashFn hash) {
  Bytes msg(kMaxLen);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  Bytes digests;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    Digest d = hash(ByteSpan(msg.data(), len));
    digests.insert(digests.end(), d.begin(), d.end());
  }
  return Hex(hash(ByteSpan(digests.data(), digests.size())));
}

// --- SHA-256 ----------------------------------------------------------------

TEST(Sha256DifferentialTest, EveryLengthAndOffset) {
  NoteWhichPaths();
  Bytes buf = SweepBuffer(101);
  for (size_t off = 0; off <= kMaxOffset; ++off) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ByteSpan data(buf.data() + off, len);
      ASSERT_EQ(Sha256::Hash(data), detail::Sha256Portable(data))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Sha256DifferentialTest, LargeInputs) {
  Rng rng(102);
  for (size_t len : {size_t{64} << 10, size_t{1} << 20}) {
    Bytes data = rng.RandomBytes(len + 3);
    for (size_t off : {0, 3}) {
      ByteSpan span(data.data() + off, len);
      EXPECT_EQ(Sha256::Hash(span), detail::Sha256Portable(span))
          << "length " << len << " offset " << off;
    }
  }
}

TEST(Sha256DifferentialTest, RandomUpdateSplits) {
  Rng rng(103);
  for (int trial = 0; trial < 300; ++trial) {
    size_t len = trial < 200 ? rng.UniformU64(2 * kMaxLen) : rng.UniformU64(64 << 10);
    Bytes data = rng.RandomBytes(len);
    ByteSpan span(data.data(), data.size());
    Sha256 h;
    UpdateInRandomPieces(&h, span, &rng);
    ASSERT_EQ(h.Finish(), detail::Sha256Portable(span)) << "trial " << trial;
  }
}

TEST(Sha256DifferentialTest, Fips180KnownAnswersBothPaths) {
  struct Vector {
    std::string message;
    const char* digest;
  };
  const Vector kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : kVectors) {
    Bytes msg = ToBytes(v.message);
    ByteSpan span(msg.data(), msg.size());
    EXPECT_EQ(Hex(Sha256::Hash(span)), v.digest) << "length " << msg.size();
    EXPECT_EQ(Hex(detail::Sha256Portable(span)), v.digest) << "length " << msg.size();
  }
}

TEST(Sha256DifferentialTest, EveryLengthKnownAnswerBothPaths) {
  const char* kAnswer = "46d90c076f1cedb8b8b19e3caac78225888f0ec194fbe32e24314e070d46e0c4";
  using Digest = std::array<uint8_t, Sha256::kDigestBytes>;
  EXPECT_EQ(EveryLengthDigest<Digest>(Sha256::Hash), kAnswer);
  EXPECT_EQ(EveryLengthDigest<Digest>(detail::Sha256Portable), kAnswer);
}

// --- SHA-1 ------------------------------------------------------------------

TEST(Sha1DifferentialTest, EveryLengthAndOffset) {
  Bytes buf = SweepBuffer(201);
  for (size_t off = 0; off <= kMaxOffset; ++off) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ByteSpan data(buf.data() + off, len);
      ASSERT_EQ(Sha1::Hash(data), detail::Sha1Portable(data))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Sha1DifferentialTest, LargeInputsAndRandomUpdateSplits) {
  Rng rng(202);
  for (size_t len : {size_t{64} << 10, size_t{1} << 20}) {
    Bytes data = rng.RandomBytes(len);
    ByteSpan span(data.data(), data.size());
    EXPECT_EQ(Sha1::Hash(span), detail::Sha1Portable(span)) << "length " << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    Bytes data = rng.RandomBytes(rng.UniformU64(2 * kMaxLen));
    ByteSpan span(data.data(), data.size());
    Sha1 h;
    UpdateInRandomPieces(&h, span, &rng);
    ASSERT_EQ(h.Finish(), detail::Sha1Portable(span)) << "trial " << trial;
  }
}

TEST(Sha1DifferentialTest, Fips180KnownAnswersBothPaths) {
  struct Vector {
    std::string message;
    const char* digest;
  };
  const Vector kVectors[] = {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "a49b2446a02c645bf419f995b67091253a04a259"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
  };
  for (const Vector& v : kVectors) {
    Bytes msg = ToBytes(v.message);
    ByteSpan span(msg.data(), msg.size());
    EXPECT_EQ(Hex(Sha1::Hash(span)), v.digest) << "length " << msg.size();
    EXPECT_EQ(Hex(detail::Sha1Portable(span)), v.digest) << "length " << msg.size();
  }
}

TEST(Sha1DifferentialTest, EveryLengthKnownAnswerBothPaths) {
  const char* kAnswer = "bf91c677b13bba38115db9bf8e8553094c1cbb52";
  using Digest = std::array<uint8_t, Sha1::kDigestBytes>;
  EXPECT_EQ(EveryLengthDigest<Digest>(Sha1::Hash), kAnswer);
  EXPECT_EQ(EveryLengthDigest<Digest>(detail::Sha1Portable), kAnswer);
}

// --- CRC32C -----------------------------------------------------------------

TEST(Crc32cDifferentialTest, EveryLengthAndOffset) {
  Bytes buf = SweepBuffer(301);
  for (size_t off = 0; off <= kMaxOffset; ++off) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ByteSpan data(buf.data() + off, len);
      ASSERT_EQ(Crc32c(data), detail::Crc32cExtendPortable(0, data))
          << "offset " << off << " length " << len;
      // A nonzero running CRC, as frame and record writers chain them.
      uint32_t seed = static_cast<uint32_t>(len * 0x9e3779b9u + off);
      ASSERT_EQ(Crc32cExtend(seed, data), detail::Crc32cExtendPortable(seed, data))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32cDifferentialTest, LargeInputs) {
  Rng rng(302);
  for (size_t len : {size_t{64} << 10, size_t{1} << 20}) {
    Bytes data = rng.RandomBytes(len + 5);
    for (size_t off : {0, 5}) {
      ByteSpan span(data.data() + off, len);
      EXPECT_EQ(Crc32c(span), detail::Crc32cExtendPortable(0, span))
          << "length " << len << " offset " << off;
    }
  }
}

TEST(Crc32cDifferentialTest, RandomExtendChaining) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes data = rng.RandomBytes(rng.UniformU64(3 * kMaxLen));
    ByteSpan span(data.data(), data.size());
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < span.size()) {
      size_t n = rng.UniformU64(std::min<size_t>(span.size() - pos, 200) + 1);
      crc = Crc32cExtend(crc, span.subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(crc, detail::Crc32cExtendPortable(0, span)) << "trial " << trial;
  }
}

TEST(Crc32cDifferentialTest, Rfc3720KnownAnswersBothPaths) {
  Bytes zeros(32, 0x00);
  Bytes ones(32, 0xff);
  Bytes ascending(32);
  Bytes descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  // An iSCSI SCSI Read (10) command PDU (RFC 3720 appendix B.4).
  const Bytes read_pdu = {0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                          0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
                          0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18,
                          0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                          0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  Bytes check = ToBytes("123456789");
  struct Vector {
    const Bytes* data;
    uint32_t crc;
  };
  const Vector kVectors[] = {{&zeros, 0x8a9136aau},     {&ones, 0x62a8ab43u},
                             {&ascending, 0x46dd794eu}, {&descending, 0x113fdb5cu},
                             {&read_pdu, 0xd9963a56u},  {&check, 0xe3069283u}};
  for (const Vector& v : kVectors) {
    ByteSpan span(v.data->data(), v.data->size());
    EXPECT_EQ(Hex32(Crc32c(span)), Hex32(v.crc));
    EXPECT_EQ(Hex32(detail::Crc32cExtendPortable(0, span)), Hex32(v.crc));
  }
}

}  // namespace
}  // namespace past
