// On-disk format of the append-only segment log (see DESIGN.md §7).
//
// A store directory holds segment files named seg-<seq16hex>.log, replayed
// in sequence order. Each segment starts with a fixed header:
//
//   +-------------+-------------+------------------+
//   | magic (u32) | version(u32)| segment seq (u64) |
//   +-------------+-------------+------------------+
//
// followed by length-prefixed, CRC32C-checksummed records:
//
//   +-----------+----------+-----------+-----------+------------------+
//   | crc (u32) | len (u32)| type (u8) | key (20B) | value (len-21 B) |
//   +-----------+----------+-----------+-----------+------------------+
//
// `len` counts the bytes after the length field (type + key + value); the
// CRC covers exactly those bytes, so a corrupted length lands the CRC on
// unrelated bytes and still fails verification. All integers little-endian,
// matching the serializer.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/common/bytes.h"
#include "src/common/u160.h"

namespace past {

inline constexpr uint32_t kSegmentMagic = 0x4c545350;  // "PSTL"
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr size_t kSegmentHeaderSize = 16;
// crc(4) + len(4); the checksummed body starts after these.
inline constexpr size_t kRecordPrefixSize = 8;
// type(1) + key(20).
inline constexpr size_t kRecordBodyMinSize = 21;

enum class RecordType : uint8_t {
  kPut = 1,            // file replica: key -> value
  kRemove = 2,         // file replica deleted
  kPointerPut = 3,     // diverted-replica pointer: key -> value
  kPointerRemove = 4,  // pointer deleted
};

inline bool IsValidRecordType(uint8_t t) {
  return t >= static_cast<uint8_t>(RecordType::kPut) &&
         t <= static_cast<uint8_t>(RecordType::kPointerRemove);
}

struct Record {
  RecordType type = RecordType::kPut;
  U160 key;
  Bytes value;
};

// seg-<seq as 16 hex digits>.log
std::string SegmentFileName(uint64_t seq);
// Inverse of SegmentFileName; false if `name` is not a segment file name.
[[nodiscard]] bool ParseSegmentFileName(const std::string& name, uint64_t* seq);

Bytes EncodeSegmentHeader(uint64_t seq);
[[nodiscard]] bool DecodeSegmentHeader(ByteSpan data, uint64_t* seq);

// A record value given as consecutive pieces and stored as their
// concatenation: a serialized StoredFile is (certificate and content length,
// content, trailer), so the content is never staged in a value buffer of
// its own before the record is built.
using ValuePieces = std::span<const ByteSpan>;

// The full on-disk encoding of one record (prefix + body), written in one
// pass into a buffer sized once: each value byte is copied exactly once.
Bytes EncodeRecord(RecordType type, const U160& key, ValuePieces value);
inline Bytes EncodeRecord(RecordType type, const U160& key, ByteSpan value) {
  return EncodeRecord(type, key, ValuePieces(&value, 1));
}

// True when `record` (prefix + body, as on disk) has a consistent length and
// its CRC matches its body; compaction checks this before copying a record
// verbatim.
[[nodiscard]] bool RecordCrcMatches(ByteSpan record);

enum class [[nodiscard]] ParseStatus {
  kOk,         // *out holds the record, *offset advanced past it
  kAtEnd,      // clean end of buffer (offset == buf.size())
  kTruncated,  // header or body runs past the end of the buffer (torn tail)
  kCorrupt,    // CRC mismatch or invalid record type
};

// Parses the record starting at *offset. On kOk, *offset is advanced; on any
// other status it is left at the record start (the consistent-prefix cut).
ParseStatus ParseRecord(ByteSpan buf, size_t* offset, Record* out);

}  // namespace past

