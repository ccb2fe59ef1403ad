// IdTimeTable — a flat open-addressing map from 128-bit ids to SimTimes.
//
// PastryNode keeps two of these: when each peer was last heard from (the
// keep-alive failure detector) and when each recently failed peer was
// declared dead (the death quarantine). Every received maintenance message
// probes them, so they use one contiguous slot array instead of a node per
// entry: linear probing from a mixed hash of the id, power-of-two capacity,
// at most 3/4 full, and backward-shift deletion (no tombstones, so probe runs
// never lengthen under insert/erase churn). A slot is 24 bytes; a value of
// kEmpty (INT64_MIN, never a valid SimTime) marks it free.
//
// Only point operations are offered. There is deliberately no iteration:
// slot order is an artifact of hashing and capacity, and protocol behaviour
// must never depend on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/u128.h"
#include "src/sim/event_queue.h"

namespace past {

class IdTimeTable {
 public:
  static constexpr SimTime kEmpty = INT64_MIN;

  // The stored time for `key`, or nullptr. The pointer is valid until the
  // next Set, Erase or Clear. Find and Erase on an empty table return
  // without hashing, which is the common case for a quarantine list.
  const SimTime* Find(const U128& key) const {
    if (size_ == 0) {
      return nullptr;
    }
    const Slot& s = slots_[Locate(key)];
    return s.value == kEmpty ? nullptr : &s.value;
  }

  // Inserts `key` or overwrites its time. `value` must not be kEmpty.
  void Set(const U128& key, SimTime value);

  // Removes `key`. Returns whether it was present.
  [[nodiscard]] bool Erase(const U128& key);

  // Drops every entry and keeps the slot array for reuse.
  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots allocated: 0 until the first Set, then a power of two >= 8.
  size_t capacity() const { return capacity_; }
  // Exact heap footprint: capacity x slot size.
  size_t MemoryUsage() const { return capacity_ * sizeof(Slot); }

  // The slot where `key`'s probe run starts in a table of `capacity` slots
  // (a power of two). Public so tests can build colliding and wrapping keys.
  static size_t HomeSlot(const U128& key, size_t capacity) {
    uint64_t h = key.hi() ^ (key.lo() * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h) & (capacity - 1);
  }

 private:
  struct Slot {
    U128 key;
    SimTime value;
  };
  static_assert(sizeof(Slot) == 24, "IdTimeTable slots must stay 24 bytes");

  // Index of the slot holding `key`, or of the free slot ending its probe
  // run. Requires capacity_ > 0.
  size_t Locate(const U128& key) const {
    size_t i = HomeSlot(key, capacity_);
    while (slots_[i].value != kEmpty && slots_[i].key != key) {
      i = (i + 1) & (capacity_ - 1);
    }
    return i;
  }
  void Grow();

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace past
