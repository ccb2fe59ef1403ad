// Bounds-checked binary serialization.
//
// Every wire message in the Pastry/PAST protocols encodes to bytes through
// Writer and decodes through Reader. Reader never reads past the end of the
// buffer: each accessor returns false on truncation, and decoding code
// propagates that as StatusCode::kDecodeError. Integers are little-endian.
//
// Content buffers. A Reader built over a SharedBytes message hands out
// length-prefixed blobs as slices of that message (Blob(SharedBytes*)):
// file content decoded from a received message is never copied, it shares
// the message's buffer. A Reader over a plain ByteSpan has no owner to share,
// so it offers blobs as copies (Blob(Bytes*)) or borrowed views (BlobView).
// On the encode side, Reserve() lets an encoder size a buffer that carries
// content once, before the content blob, so the fields that follow the blob
// never reallocate (and move) it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/shared_bytes.h"
#include "src/common/u128.h"
#include "src/common/u160.h"

namespace past {

class Writer {
 public:
  Writer() = default;

  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Id128(const U128& v);
  void Id160(const U160& v);
  // Length-prefixed (u32) byte string.
  void Blob(ByteSpan data);
  void Str(std::string_view s);

  // Makes room for `additional` more bytes in one allocation.
  void Reserve(size_t additional) { out_.reserve(out_.size() + additional); }
  const Bytes& bytes() const { return out_; }
  Bytes Take() { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}
  // Reads `owner`'s bytes; Blob(SharedBytes*) slices them. `owner` must
  // outlive the Reader.
  explicit Reader(const SharedBytes& owner) : data_(owner.span()), owner_(&owner) {}

  [[nodiscard]] bool U8(uint8_t* v);
  [[nodiscard]] bool U16(uint16_t* v);
  [[nodiscard]] bool U32(uint32_t* v);
  [[nodiscard]] bool U64(uint64_t* v);
  [[nodiscard]] bool I64(int64_t* v);
  [[nodiscard]] bool F64(double* v);
  [[nodiscard]] bool Bool(bool* v);
  [[nodiscard]] bool Id128(U128* v);
  [[nodiscard]] bool Id160(U160* v);
  [[nodiscard]] bool Blob(Bytes* out);
  // The blob as a slice sharing the owner's buffer (no copy). Only for a
  // Reader constructed over a SharedBytes.
  [[nodiscard]] bool Blob(SharedBytes* out);
  // The blob as a view into the buffer being read (valid while it is).
  [[nodiscard]] bool BlobView(ByteSpan* out);
  [[nodiscard]] bool Str(std::string* out);

  // True when the whole buffer has been consumed; decoders should require
  // this to reject trailing garbage.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(size_t n, const uint8_t** p);

  ByteSpan data_;
  const SharedBytes* owner_ = nullptr;  // set when reading a SharedBytes
  size_t pos_ = 0;
};

}  // namespace past

