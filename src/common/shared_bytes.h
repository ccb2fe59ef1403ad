// Refcounted immutable byte buffer, and slices of it, for zero-copy message
// delivery and file content.
//
// PAST files are immutable once inserted, so their bytes are shared by
// reference from the network receive path to the store and the cache instead
// of being copied at every layer boundary (DESIGN.md "Content buffers").
//
// Ownership rules:
//   - Construct once from a Bytes (moved in; the only allocation is the
//     shared control block + buffer, fused by make_shared). The constructor
//     takes rvalues only, so adopting a buffer never copies it by accident;
//     Copy() is the one explicit copying constructor.
//   - Copies are cheap handles onto the same buffer; the network's in-flight
//     delivery closure and every recipient of a multi-recipient send share
//     one allocation.
//   - Slice() returns a handle on a sub-range that shares the same owner: a
//     file's content decoded out of a received message is a slice of that
//     message, and it keeps the whole message alive. Only slice buffers that
//     hold one message (never a transport read chunk shared by several), so
//     a retained slice pins nothing but its own message.
//   - The buffer is immutable after construction. Readers get a ByteSpan
//     view via span() (or the implicit conversion); the view is valid as long
//     as any handle on the buffer is alive.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace past {

class SharedBytes {
 public:
  SharedBytes() = default;
  // Adopts `bytes` without copying (implicit: an rvalue Bytes converts).
  // Wire and log blobs carry a u32 length, so no buffer is larger.
  SharedBytes(Bytes&& bytes)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<const Bytes>(std::move(bytes))),
        size_(static_cast<uint32_t>(buf_->size())) {
    PAST_CHECK(buf_->size() <= UINT32_MAX);
  }

  // Copies `data` into a fresh buffer (for callers that only have a view).
  static SharedBytes Copy(ByteSpan data) {
    return SharedBytes(Bytes(data.begin(), data.end()));
  }

  // The bytes [offset, offset + len) of this view, sharing its owner.
  SharedBytes Slice(size_t offset, size_t len) const {
    PAST_CHECK(offset <= size_ && len <= size_ - offset);
    SharedBytes out;
    if (len > 0) {
      out.buf_ = buf_;
      out.offset_ = offset_ + static_cast<uint32_t>(offset);
      out.size_ = static_cast<uint32_t>(len);
    }
    return out;
  }

  const uint8_t* data() const { return buf_ ? buf_->data() + offset_ : nullptr; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  ByteSpan span() const { return ByteSpan(data(), size_); }
  operator ByteSpan() const { return span(); }  // NOLINT(google-explicit-constructor)

  // True when `p` points into the owning buffer (not just this view).
  // Tests use it to pin that a decoded field is a slice, not a copy.
  bool Contains(const uint8_t* p) const {
    return buf_ != nullptr && p >= buf_->data() && p < buf_->data() + buf_->size();
  }
  // Size of the whole owning buffer this view keeps alive.
  size_t owner_size() const { return buf_ ? buf_->size() : 0; }

  // Number of handles sharing the buffer (0 for an empty handle). Used by
  // tests to pin the zero-copy property.
  long use_count() const { return buf_.use_count(); }

  friend bool operator==(const SharedBytes& a, ByteSpan b) {
    return a.size() == b.size() && (b.empty() || std::memcmp(a.data(), b.data(), b.size()) == 0);
  }

 private:
  // Offset and length are 32-bit so a handle is three words: the
  // simulator's delivery closure (sim/network.cc) holds one and must fit
  // EventFn's inline storage, or every simulated message allocates.
  std::shared_ptr<const Bytes> buf_;
  uint32_t offset_ = 0;
  uint32_t size_ = 0;
};

}  // namespace past
