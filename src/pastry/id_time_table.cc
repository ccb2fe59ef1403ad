#include "src/pastry/id_time_table.h"

#include "src/common/check.h"

namespace past {
namespace {

constexpr size_t kMinCapacity = 8;

}  // namespace

void IdTimeTable::Set(const U128& key, SimTime value) {
  PAST_CHECK(value != kEmpty);
  if (capacity_ != 0) {
    Slot& s = slots_[Locate(key)];
    if (s.value != kEmpty) {
      s.value = value;
      return;
    }
  }
  // A new key: keep at least one slot in four free so probe runs stay short
  // and every probe loop terminates.
  if ((size_ + 1) * 4 > capacity_ * 3) {
    Grow();
  }
  Slot& s = slots_[Locate(key)];
  s.key = key;
  s.value = value;
  ++size_;
}

bool IdTimeTable::Erase(const U128& key) {
  if (size_ == 0) {
    return false;
  }
  const size_t mask = capacity_ - 1;
  size_t hole = Locate(key);
  if (slots_[hole].value == kEmpty) {
    return false;
  }
  // Backward shift: walk the rest of the probe run and pull back every entry
  // whose home slot is not cyclically inside (hole, j], so each remaining key
  // stays reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask; slots_[j].value != kEmpty; j = (j + 1) & mask) {
    const size_t home = HomeSlot(slots_[j].key, capacity_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].value = kEmpty;
  --size_;
  return true;
}

void IdTimeTable::Clear() {
  if (size_ == 0) {
    return;
  }
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].value = kEmpty;
  }
  size_ = 0;
}

void IdTimeTable::Grow() {
  const size_t old_capacity = capacity_;
  std::unique_ptr<Slot[]> old = std::move(slots_);
  capacity_ = old_capacity == 0 ? kMinCapacity : old_capacity * 2;
  slots_ = std::make_unique<Slot[]>(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].value = kEmpty;
  }
  for (size_t i = 0; i < old_capacity; ++i) {
    if (old[i].value != kEmpty) {
      slots_[Locate(old[i].key)] = old[i];
    }
  }
}

}  // namespace past
