#include "src/net/frame.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32c.h"

namespace past {
namespace {

inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

const char* FrameErrorName(FrameError e) {
  switch (e) {
    case FrameError::kNone:
      return "none";
    case FrameError::kNeedMore:
      return "need-more";
    case FrameError::kBadMagic:
      return "bad-magic";
    case FrameError::kBadVersion:
      return "bad-version";
    case FrameError::kBadKind:
      return "bad-kind";
    case FrameError::kBadReserved:
      return "bad-reserved";
    case FrameError::kTooLarge:
      return "too-large";
    case FrameError::kBadCrc:
      return "bad-crc";
    case FrameError::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

void EncodeFrameHeader(NodeAddr from, NodeAddr to, ByteSpan payload,
                       uint8_t out[kFrameHeaderSize]) {
  PutU32(out, kFrameMagic);
  out[4] = kFrameVersion;
  out[5] = kFrameKindMessage;
  out[6] = 0;
  out[7] = 0;
  PutU32(out + 8, from);
  PutU32(out + 12, to);
  PutU32(out + 16, static_cast<uint32_t>(payload.size()));
  PutU32(out + 20, Crc32c(payload));
}

Bytes EncodeFrame(NodeAddr from, NodeAddr to, ByteSpan payload) {
  Bytes out(kFrameHeaderSize + payload.size());
  EncodeFrameHeader(from, to, payload, out.data());
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderSize, payload.data(), payload.size());
  }
  return out;
}

FrameError DecodeFrameHeader(ByteSpan data, size_t max_payload, FrameHeader* out) {
  if (data.size() < kFrameHeaderSize) {
    return FrameError::kNeedMore;
  }
  const uint8_t* p = data.data();
  // Identity fields are validated before the length is believed, so a
  // garbage or cross-protocol packet can never trigger a huge allocation.
  if (GetU32(p) != kFrameMagic) {
    return FrameError::kBadMagic;
  }
  if (p[4] != kFrameVersion) {
    return FrameError::kBadVersion;
  }
  if (p[5] != kFrameKindMessage) {
    return FrameError::kBadKind;
  }
  if (p[6] != 0 || p[7] != 0) {
    return FrameError::kBadReserved;
  }
  FrameHeader h;
  h.from = GetU32(p + 8);
  h.to = GetU32(p + 12);
  h.payload_len = GetU32(p + 16);
  h.payload_crc = GetU32(p + 20);
  if (h.payload_len > max_payload) {
    return FrameError::kTooLarge;
  }
  *out = h;
  return FrameError::kNone;
}

FrameError DecodeFrame(ByteSpan data, size_t max_payload, FrameHeader* header,
                       ByteSpan* payload) {
  FrameHeader h;
  FrameError err = DecodeFrameHeader(data, max_payload, &h);
  if (err != FrameError::kNone) {
    return err;
  }
  if (data.size() < kFrameHeaderSize + h.payload_len) {
    return FrameError::kNeedMore;
  }
  if (data.size() > kFrameHeaderSize + h.payload_len) {
    return FrameError::kTrailingBytes;
  }
  ByteSpan body(data.data() + kFrameHeaderSize, h.payload_len);
  if (Crc32c(body) != h.payload_crc) {
    return FrameError::kBadCrc;
  }
  *header = h;
  *payload = body;
  return FrameError::kNone;
}

namespace {

// Staging capacity: one socket read's worth of headers and small frames.
constexpr size_t kStagingBytes = 64u << 10;
// A large frame's buffer grows by at most this much per read, so a hostile
// header claiming a huge payload cannot make the reader touch (zero) memory
// ahead of the bytes actually arriving.
constexpr size_t kBodyGrowStep = 256u << 10;

}  // namespace

bool FrameReader::FillingBody() const {
  return in_body_ && body_filled_ < body_header_.payload_len;
}

std::span<uint8_t> FrameReader::ReadTarget() {
  // Once a large frame's body is complete, later bytes (the frames after
  // it) go to staging, which is empty while a body is being received.
  if (FillingBody()) {
    if (body_.size() == body_filled_) {
      body_.resize(std::min<size_t>(body_header_.payload_len,
                                    body_filled_ + kBodyGrowStep));
    }
    return std::span<uint8_t>(body_.data() + body_filled_, body_.size() - body_filled_);
  }
  if (staging_ == nullptr) {
    staging_ = std::make_unique_for_overwrite<uint8_t[]>(kStagingBytes);
    staging_size_ = kStagingBytes;
  }
  if (end_ == staging_size_) {
    if (pos_ > 0) {
      // Move the unconsumed tail (at most a header and a small frame) down.
      std::memmove(staging_.get(), staging_.get() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    } else {
      // Only Append() of many whole frames before any Next() gets here.
      auto bigger = std::make_unique_for_overwrite<uint8_t[]>(2 * staging_size_);
      std::memcpy(bigger.get(), staging_.get(), end_);
      staging_ = std::move(bigger);
      staging_size_ *= 2;
    }
  }
  size_t room = staging_size_ - end_;
  if (expect_large_ && end_ - pos_ < kFrameHeaderSize) {
    // After a large frame the next one is likely large too: read just its
    // header, so its body goes straight into its own buffer, not staging.
    room = std::min(room, pos_ + kFrameHeaderSize - end_);
  }
  return std::span<uint8_t>(staging_.get() + end_, room);
}

void FrameReader::Commit(size_t n) {
  if (FillingBody()) {
    body_filled_ += n;
  } else {
    end_ += n;
  }
}

void FrameReader::Append(ByteSpan data) {
  if (failed()) {
    return;
  }
  while (!data.empty()) {
    std::span<uint8_t> target = ReadTarget();
    const size_t n = std::min(target.size(), data.size());
    std::memcpy(target.data(), data.data(), n);
    Commit(n);
    data = data.subspan(n);
  }
}

FrameError FrameReader::Next(FrameHeader* header, Bytes* payload) {
  if (failed()) {
    return error_;
  }
  if (in_body_) {
    if (body_filled_ < body_header_.payload_len) {
      return FrameError::kNeedMore;
    }
    if (Crc32c(body_) != body_header_.payload_crc) {
      error_ = FrameError::kBadCrc;
      return error_;
    }
    *header = body_header_;
    *payload = std::move(body_);
    body_ = Bytes();
    body_filled_ = 0;
    in_body_ = false;
    expect_large_ = true;
    return FrameError::kNone;
  }
  ByteSpan avail(staging_.get() + pos_, end_ - pos_);
  FrameHeader h;
  FrameError err = DecodeFrameHeader(avail, max_payload_, &h);
  if (err == FrameError::kNeedMore) {
    return err;
  }
  if (err != FrameError::kNone) {
    error_ = err;  // poisoned: a length-prefixed stream cannot resync
    return err;
  }
  const ByteSpan staged = avail.subspan(kFrameHeaderSize);
  if (staged.size() < h.payload_len) {
    if (h.payload_len > kDirectBodyMin) {
      // Give the frame its own buffer; the rest of it is read straight in.
      body_header_ = h;
      body_.reserve(h.payload_len);
      body_.assign(staged.begin(), staged.end());
      body_filled_ = staged.size();
      in_body_ = true;
      pos_ = 0;
      end_ = 0;
    }
    return FrameError::kNeedMore;
  }
  ByteSpan body = staged.first(h.payload_len);
  if (Crc32c(body) != h.payload_crc) {
    error_ = FrameError::kBadCrc;
    return error_;
  }
  payload->assign(body.begin(), body.end());
  *header = h;
  expect_large_ = h.payload_len > kDirectBodyMin;
  pos_ += kFrameHeaderSize + h.payload_len;
  if (pos_ == end_) {
    pos_ = 0;
    end_ = 0;
  }
  return FrameError::kNone;
}

}  // namespace past
