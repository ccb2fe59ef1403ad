#include "src/diskstore/log_format.h"

#include <cstdio>
#include <cstring>

#include "src/common/crc32c.h"

namespace past {
namespace {

void PutU32(Bytes* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(Bytes* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

}  // namespace

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%016llx.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* seq) {
  if (name.size() != 24 || name.rfind("seg-", 0) != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 4; i < 20; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = value << 4 | digit;
  }
  *seq = value;
  return true;
}

Bytes EncodeSegmentHeader(uint64_t seq) {
  Bytes out;
  out.reserve(kSegmentHeaderSize);
  PutU32(&out, kSegmentMagic);
  PutU32(&out, kSegmentVersion);
  PutU64(&out, seq);
  return out;
}

bool DecodeSegmentHeader(ByteSpan data, uint64_t* seq) {
  if (data.size() < kSegmentHeaderSize || GetU32(data.data()) != kSegmentMagic ||
      GetU32(data.data() + 4) != kSegmentVersion) {
    return false;
  }
  *seq = GetU64(data.data() + 8);
  return true;
}

Bytes EncodeRecord(RecordType type, const U160& key, ValuePieces value) {
  size_t value_size = 0;
  for (ByteSpan piece : value) {
    value_size += piece.size();
  }
  const uint32_t len = static_cast<uint32_t>(kRecordBodyMinSize + value_size);
  Bytes out;
  out.reserve(kRecordPrefixSize + len);
  PutU32(&out, 0);  // crc placeholder
  PutU32(&out, len);
  out.push_back(static_cast<uint8_t>(type));
  out.insert(out.end(), key.bytes().begin(), key.bytes().end());
  for (ByteSpan piece : value) {
    out.insert(out.end(), piece.begin(), piece.end());
  }
  const uint32_t crc = Crc32c(ByteSpan(out.data() + kRecordPrefixSize, len));
  out[0] = static_cast<uint8_t>(crc);
  out[1] = static_cast<uint8_t>(crc >> 8);
  out[2] = static_cast<uint8_t>(crc >> 16);
  out[3] = static_cast<uint8_t>(crc >> 24);
  return out;
}

bool RecordCrcMatches(ByteSpan record) {
  if (record.size() < kRecordPrefixSize + kRecordBodyMinSize ||
      GetU32(record.data() + 4) != record.size() - kRecordPrefixSize) {
    return false;
  }
  return Crc32c(record.subspan(kRecordPrefixSize)) == GetU32(record.data());
}

ParseStatus ParseRecord(ByteSpan buf, size_t* offset, Record* out) {
  const size_t start = *offset;
  if (start == buf.size()) {
    return ParseStatus::kAtEnd;
  }
  if (buf.size() - start < kRecordPrefixSize) {
    return ParseStatus::kTruncated;
  }
  const uint8_t* p = buf.data() + start;
  const uint32_t expected_crc = GetU32(p);
  const uint32_t len = GetU32(p + 4);
  if (len < kRecordBodyMinSize) {
    // A body too short to hold type+key cannot be a record boundary; its CRC
    // could not have been computed over it, so treat it as corruption.
    return ParseStatus::kCorrupt;
  }
  if (buf.size() - start - kRecordPrefixSize < len) {
    return ParseStatus::kTruncated;
  }
  const uint8_t* body = p + kRecordPrefixSize;
  if (Crc32c(ByteSpan(body, len)) != expected_crc) {
    return ParseStatus::kCorrupt;
  }
  if (!IsValidRecordType(body[0])) {
    return ParseStatus::kCorrupt;
  }
  out->type = static_cast<RecordType>(body[0]);
  out->key = U160::FromBytes(ByteSpan(body + 1, U160::kBytes));
  out->value.assign(body + kRecordBodyMinSize, body + len);
  *offset = start + kRecordPrefixSize + len;
  return ParseStatus::kOk;
}

}  // namespace past
