// Wire framing for the socket transport.
//
// Every message that crosses a real socket — one UDP datagram for control
// traffic, or a slice of a TCP byte stream for bulk payloads — is a frame:
// a fixed 24-byte header followed by the Pastry wire message it carries.
//
//   offset  size  field
//   0       4     magic (the bytes "PSTF"; 0x46545350 as a little-endian u32)
//   4       1     version (kFrameVersion)
//   5       1     kind (0 = message; others reserved)
//   6       2     reserved, must be 0
//   8       4     from   (sender NodeAddr)
//   12      4     to     (destination NodeAddr)
//   16      4     payload length
//   20      4     CRC32C of the payload
//   24      n     payload (the Pastry wire message)
//
// Decoding is hardened against a hostile peer: magic/version/reserved are
// checked before the length is believed, the length is capped before any
// allocation, and the payload CRC is verified before delivery. On a TCP
// stream a header failure is fatal for the connection (there is no way to
// resynchronize a length-prefixed stream), which FrameReader reports as a
// hard error distinct from kNeedMore.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "src/common/bytes.h"
#include "src/net/transport.h"

namespace past {

constexpr uint32_t kFrameMagic = 0x46545350;  // "PSTF" as on-the-wire bytes
constexpr uint8_t kFrameVersion = 1;
constexpr uint8_t kFrameKindMessage = 0;
constexpr size_t kFrameHeaderSize = 24;

struct FrameHeader {
  NodeAddr from = kInvalidAddr;
  NodeAddr to = kInvalidAddr;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

enum class FrameError : uint8_t {
  kNone = 0,       // a complete, valid frame was produced
  kNeedMore,       // the buffer ends mid-frame (stream: wait for more bytes)
  kBadMagic,
  kBadVersion,
  kBadKind,
  kBadReserved,
  kTooLarge,       // payload_len exceeds the caller's cap
  kBadCrc,
  kTrailingBytes,  // datagram only: bytes after the framed payload
};
const char* FrameErrorName(FrameError e);

// Writes the 24-byte header for `payload` (computing its CRC32C) into `out`.
void EncodeFrameHeader(NodeAddr from, NodeAddr to, ByteSpan payload,
                       uint8_t out[kFrameHeaderSize]);

// Header + payload in one buffer — the UDP datagram image (the transport's
// TCP path scatter-gathers header and payload instead of concatenating).
Bytes EncodeFrame(NodeAddr from, NodeAddr to, ByteSpan payload);

// Parses and validates a header (magic, version, kind, reserved, length cap).
// Does not touch the payload; kNeedMore when data is shorter than a header.
[[nodiscard]] FrameError DecodeFrameHeader(ByteSpan data, size_t max_payload,
                                           FrameHeader* out);

// Decodes a complete datagram: exactly one frame, CRC verified, no trailing
// bytes. On success *payload aliases `data`.
[[nodiscard]] FrameError DecodeFrame(ByteSpan data, size_t max_payload,
                                     FrameHeader* header, ByteSpan* payload);

// Incremental frame extraction from a TCP byte stream. The socket reads
// straight into the reader (ReadTarget/Commit); Next() yields complete
// frames in order. Any error other than kNeedMore is sticky: the stream is
// unrecoverable and the connection must be dropped.
//
// Copy budget. Headers and small frames land in a staging buffer and are
// copied out when complete. A large frame (payload over kDirectBodyMin)
// whose header has arrived gets a buffer of its own: the body bytes already
// staged move into it, and every further read lands in it directly. After a
// large frame, staging reads stop at the next header, so in a stream of
// large frames no body byte passes through staging at all: the frame
// reaches Next() without a copy of its body. Next() hands that buffer
// over by move: the caller owns the frame it delivers, and the frame stays
// valid even if delivery tears down the connection that owns the reader.
class FrameReader {
 public:
  // Frames with a payload up to this size are copied out of staging.
  static constexpr size_t kDirectBodyMin = 16u << 10;

  explicit FrameReader(size_t max_payload) : max_payload_(max_payload) {}

  // Where the next socket read should land: the unfilled part of the
  // current large frame's own buffer, else free staging space. Never empty.
  std::span<uint8_t> ReadTarget();
  // Records that `n` bytes (at most ReadTarget().size()) were written there.
  void Commit(size_t n);
  // Copies `data` in through ReadTarget/Commit (tests and fuzzers).
  void Append(ByteSpan data);

  // kNone: *header/*payload filled with the next frame. kNeedMore: no
  // complete frame buffered. Anything else: poisoned stream (failed() stays
  // true and every further call returns the same error).
  [[nodiscard]] FrameError Next(FrameHeader* header, Bytes* payload);

  bool failed() const { return error_ != FrameError::kNone; }
  // Received bytes not yet returned by Next().
  size_t buffered() const { return end_ - pos_ + body_filled_; }

 private:
  bool FillingBody() const;

  size_t max_payload_;
  // Headers and small frames. Not zero-filled, so only the bytes reads
  // actually land in take up resident memory.
  std::unique_ptr<uint8_t[]> staging_;
  size_t staging_size_ = 0;
  size_t pos_ = 0;   // consumed prefix of staging_
  size_t end_ = 0;   // filled prefix of staging_
  // The large frame being received into its own buffer (in_body_).
  bool in_body_ = false;
  FrameHeader body_header_;
  Bytes body_;              // grows toward payload_len as bytes arrive
  size_t body_filled_ = 0;
  // The last frame was large: read only a header into empty staging.
  bool expect_large_ = false;
  FrameError error_ = FrameError::kNone;
};

}  // namespace past
