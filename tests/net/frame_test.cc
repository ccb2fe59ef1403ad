// Unit tests for the socket-transport frame codec (src/net/frame.h):
// header layout, every decode error path, and FrameReader's incremental
// stream extraction with sticky errors.
#include "src/net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/crc32c.h"
#include "src/pastry/messages.h"

namespace past {
namespace {

Bytes Payload(size_t n, uint8_t fill = 0x42) { return Bytes(n, fill); }

ByteSpan Span(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

TEST(FrameCodec, HeaderLayout) {
  Bytes payload = {0x01, 0x02, 0x03};
  Bytes frame = EncodeFrame(0x11223344, 0x55667788, Span(payload));
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  // Magic spells "PSTF" on the wire.
  EXPECT_EQ(frame[0], 'P');
  EXPECT_EQ(frame[1], 'S');
  EXPECT_EQ(frame[2], 'T');
  EXPECT_EQ(frame[3], 'F');
  EXPECT_EQ(frame[4], kFrameVersion);
  EXPECT_EQ(frame[5], kFrameKindMessage);
  // from, little-endian.
  EXPECT_EQ(frame[8], 0x44);
  EXPECT_EQ(frame[11], 0x11);
  // payload_len.
  EXPECT_EQ(frame[16], 3);
  EXPECT_EQ(frame[17], 0);
}

TEST(FrameCodec, RoundTrip) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1200}, size_t{100000}}) {
    Bytes payload = Payload(n);
    Bytes frame = EncodeFrame(7, 9, Span(payload));
    FrameHeader header;
    ByteSpan body;
    ASSERT_EQ(DecodeFrame(Span(frame), 1u << 20, &header, &body), FrameError::kNone)
        << "payload size " << n;
    EXPECT_EQ(header.from, 7u);
    EXPECT_EQ(header.to, 9u);
    EXPECT_EQ(header.payload_len, n);
    EXPECT_EQ(header.payload_crc, Crc32c(Span(payload)));
    EXPECT_TRUE(std::equal(body.begin(), body.end(), payload.begin()));
  }
}

TEST(FrameCodec, ErrorPaths) {
  Bytes payload = Payload(8);
  Bytes frame = EncodeFrame(1, 2, Span(payload));
  FrameHeader header;
  ByteSpan body;

  // Truncated header.
  EXPECT_EQ(DecodeFrame(ByteSpan(frame.data(), 10), 1u << 20, &header, &body),
            FrameError::kNeedMore);

  // Truncated payload.
  EXPECT_EQ(DecodeFrame(ByteSpan(frame.data(), frame.size() - 1), 1u << 20,
                        &header, &body),
            FrameError::kNeedMore);

  // Trailing bytes (datagram must be exactly one frame).
  Bytes extra = frame;
  extra.push_back(0x00);
  EXPECT_EQ(DecodeFrame(Span(extra), 1u << 20, &header, &body),
            FrameError::kTrailingBytes);

  // Bad magic.
  Bytes bad = frame;
  bad[0] ^= 0xff;
  EXPECT_EQ(DecodeFrame(Span(bad), 1u << 20, &header, &body),
            FrameError::kBadMagic);

  // Bad version.
  bad = frame;
  bad[4] = kFrameVersion + 1;
  EXPECT_EQ(DecodeFrame(Span(bad), 1u << 20, &header, &body),
            FrameError::kBadVersion);

  // Bad kind.
  bad = frame;
  bad[5] = 0x7f;
  EXPECT_EQ(DecodeFrame(Span(bad), 1u << 20, &header, &body), FrameError::kBadKind);

  // Reserved bytes must be zero.
  bad = frame;
  bad[6] = 1;
  EXPECT_EQ(DecodeFrame(Span(bad), 1u << 20, &header, &body),
            FrameError::kBadReserved);

  // Length above the cap — rejected from the header alone.
  EXPECT_EQ(DecodeFrame(Span(frame), 4, &header, &body), FrameError::kTooLarge);

  // Corrupted payload fails the CRC.
  bad = frame;
  bad[kFrameHeaderSize] ^= 0x01;
  EXPECT_EQ(DecodeFrame(Span(bad), 1u << 20, &header, &body), FrameError::kBadCrc);
}

TEST(FrameReader, ExtractsFramesAcrossChunkBoundaries) {
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    Bytes payload = Payload(100 + static_cast<size_t>(i), static_cast<uint8_t>(i));
    Bytes frame = EncodeFrame(static_cast<NodeAddr>(i), 9, Span(payload));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Feed one byte at a time — the worst case for reassembly.
  FrameReader reader(1u << 20);
  int frames = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    reader.Append(ByteSpan(&stream[i], 1));
    FrameHeader header;
    Bytes body;
    while (reader.Next(&header, &body) == FrameError::kNone) {
      EXPECT_EQ(header.from, static_cast<NodeAddr>(frames));
      EXPECT_EQ(body.size(), 100u + static_cast<size_t>(frames));
      EXPECT_EQ(body[0], static_cast<uint8_t>(frames));
      ++frames;
    }
  }
  EXPECT_EQ(frames, 5);
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.failed());
}

TEST(FrameReader, MidFrameIsNeedMore) {
  Bytes frame = EncodeFrame(1, 2, Span(Payload(50)));
  FrameReader reader(1u << 20);
  reader.Append(ByteSpan(frame.data(), frame.size() - 10));
  FrameHeader header;
  Bytes body;
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kNeedMore);
  EXPECT_FALSE(reader.failed());
  reader.Append(ByteSpan(frame.data() + frame.size() - 10, 10));
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kNone);
  EXPECT_EQ(body.size(), 50u);
}

TEST(FrameReader, ErrorsAreSticky) {
  Bytes good = EncodeFrame(1, 2, Span(Payload(10)));
  Bytes garbage(64, 0xcd);
  FrameReader reader(1u << 20);
  reader.Append(Span(good));
  reader.Append(Span(garbage));
  FrameHeader header;
  Bytes body;
  // The valid frame comes out first...
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kNone);
  // ...then the stream poisons and stays poisoned, even after more valid
  // bytes arrive (a length-prefixed stream cannot resync).
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kBadMagic);
  EXPECT_TRUE(reader.failed());
  reader.Append(Span(good));
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kBadMagic);
}

TEST(FrameReader, OversizeHeaderPoisons) {
  uint8_t header_bytes[kFrameHeaderSize];
  Bytes big = Payload(2048);
  EncodeFrameHeader(1, 2, Span(big), header_bytes);
  FrameReader reader(/*max_payload=*/1024);
  reader.Append(ByteSpan(header_bytes, kFrameHeaderSize));
  FrameHeader header;
  Bytes body;
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kTooLarge);
  EXPECT_TRUE(reader.failed());
}

TEST(FrameReader, CompactsConsumedPrefix) {
  // Stream enough frames through a reader to force compaction; buffered()
  // must track only the unconsumed tail.
  Bytes frame = EncodeFrame(3, 4, Span(Payload(1000)));
  FrameReader reader(1u << 20);
  for (int i = 0; i < 50; ++i) {
    reader.Append(Span(frame));
    FrameHeader header;
    Bytes body;
    ASSERT_EQ(reader.Next(&header, &body), FrameError::kNone);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

// A 1 MiB frame arriving in many partial reads is delivered intact, and its
// body is read straight into the buffer Next() hands over: past the first
// read, no body byte passes through staging.
TEST(FrameReader, LargeFrameOverPartialReadsLandsInItsOwnBuffer) {
  Bytes payload(1u << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  Bytes frame = EncodeFrame(5, 6, Span(payload));
  FrameReader reader(2u << 20);
  const uint8_t* mid_target = nullptr;
  size_t mid_offset = 0;
  size_t offset = 0;
  FrameHeader header;
  Bytes body;
  FrameError err = FrameError::kNeedMore;
  while (offset < frame.size()) {
    std::span<uint8_t> target = reader.ReadTarget();
    ASSERT_FALSE(target.empty());
    // A socket read returns at most ~4 KiB here.
    const size_t n = std::min({target.size(), frame.size() - offset, size_t{4093}});
    std::copy_n(frame.data() + offset, n, target.data());
    if (mid_target == nullptr && offset > frame.size() / 2) {
      mid_target = target.data();
      mid_offset = offset - kFrameHeaderSize;
    }
    reader.Commit(n);
    offset += n;
    err = reader.Next(&header, &body);
    if (err != FrameError::kNeedMore) {
      break;
    }
  }
  ASSERT_EQ(err, FrameError::kNone);
  EXPECT_EQ(offset, frame.size());
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(body, payload);
  EXPECT_EQ(body.data() + mid_offset, mid_target)
      << "mid-frame reads must land in the delivered buffer itself";
  EXPECT_EQ(reader.buffered(), 0u);
}

// A large frame followed, in the same reads, by small ones: every frame is
// delivered in order, and a small message kept after delivery owns exactly
// its own bytes (no neighbour's bytes, no shared read chunk).
TEST(FrameReader, SmallMessageKeptAfterDeliveryOwnsOnlyItself) {
  Bytes stream;
  Bytes big = Bytes(100000, 0xab);
  Bytes big_frame = EncodeFrame(1, 2, Span(big));
  stream.insert(stream.end(), big_frame.begin(), big_frame.end());
  std::vector<Bytes> wires;
  for (uint8_t i = 0; i < 3; ++i) {
    AppDirectMsg msg;
    msg.source = NodeDescriptor{U128(i, i), i};
    msg.app_type = 100u + i;
    msg.payload = Bytes(2000 + i, static_cast<uint8_t>(0x10 + i));
    wires.push_back(EncodeMessage(msg));
    Bytes frame = EncodeFrame(1, 2, Span(wires.back()));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameReader reader(1u << 20);
  reader.Append(Span(stream));
  FrameHeader header;
  Bytes body;
  ASSERT_EQ(reader.Next(&header, &body), FrameError::kNone);
  EXPECT_EQ(body, big);
  std::vector<SharedBytes> kept;
  for (size_t i = 0; i < wires.size(); ++i) {
    ASSERT_EQ(reader.Next(&header, &body), FrameError::kNone);
    EXPECT_EQ(body, wires[i]);
    Reader r(Span(body));
    PastryMsgType type;
    AppDirectMsg msg;
    ASSERT_TRUE(DecodeHeader(&r, &type));
    ASSERT_TRUE(DecodeBodyStrict(&r, &msg));
    kept.push_back(msg.payload);
  }
  EXPECT_EQ(reader.Next(&header, &body), FrameError::kNeedMore);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].use_count(), 1);
    EXPECT_EQ(kept[i].size(), 2000 + i);
    EXPECT_EQ(kept[i].owner_size(), kept[i].size())
        << "a kept message must pin only its own bytes";
    EXPECT_TRUE(std::all_of(kept[i].begin(), kept[i].end(),
                            [&](uint8_t b) { return b == 0x10 + i; }));
  }
}

}  // namespace
}  // namespace past
