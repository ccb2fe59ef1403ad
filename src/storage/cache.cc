#include "src/storage/cache.h"

#include "src/common/check.h"

namespace past {

double Cache::PriorityFor(uint64_t size) const {
  if (policy_ == CachePolicy::kGreedyDualSize) {
    // H = L + cost/size with uniform cost: small files earn higher priority.
    return inflation_ + 1.0 / static_cast<double>(size == 0 ? 1 : size);
  }
  // LRU: priority is just the logical access clock.
  return inflation_;
}

bool Cache::Insert(const FileCertificate& cert, SharedBytes content, uint64_t available) {
  if (policy_ == CachePolicy::kNone) {
    return false;
  }
  const FileId id = cert.file_id;
  if (entries_.count(id) > 0) {
    return false;
  }
  const uint64_t size = cert.file_size;
  if (size > available) {
    return false;
  }
  while (used_ + size > available && !entries_.empty()) {
    EvictOne();
  }
  if (used_ + size > available) {
    return false;
  }
  if (policy_ == CachePolicy::kLru) {
    inflation_ += 1.0;
  }
  Entry entry;
  entry.file.cert = cert;
  entry.file.content = std::move(content);
  entry.queue_pos = queue_.emplace(PriorityFor(size), id);
  AccountUsed(static_cast<int64_t>(size));
  entries_.emplace(id, std::move(entry));
  ++stats_.insertions;
  if (insertions_ != nullptr) {
    insertions_->Inc();
  }
  return true;
}

const CachedFile* Cache::Get(const FileId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (misses_ != nullptr) {
      misses_->Inc();
    }
    return nullptr;
  }
  ++stats_.hits;
  if (hits_ != nullptr) {
    hits_->Inc();
  }
  // Refresh priority: GD-S re-computes H with the current inflation floor,
  // LRU advances the clock.
  if (policy_ == CachePolicy::kLru) {
    inflation_ += 1.0;
  }
  queue_.erase(it->second.queue_pos);
  it->second.queue_pos = queue_.emplace(PriorityFor(it->second.file.cert.file_size), id);
  return &it->second.file;
}

bool Cache::Remove(const FileId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return false;
  }
  AccountUsed(-static_cast<int64_t>(it->second.file.cert.file_size));
  queue_.erase(it->second.queue_pos);
  entries_.erase(it);
  return true;
}

void Cache::EvictOne() {
  PAST_CHECK(!entries_.empty());
  auto victim = queue_.begin();
  if (policy_ == CachePolicy::kGreedyDualSize) {
    // Raise the inflation floor to the evicted priority so future entries
    // compete fairly against long-lived popular ones.
    inflation_ = victim->first;
  }
  auto it = entries_.find(victim->second);
  PAST_CHECK(it != entries_.end());
  AccountUsed(-static_cast<int64_t>(it->second.file.cert.file_size));
  entries_.erase(it);
  queue_.erase(victim);
  ++stats_.evictions;
  if (evictions_ != nullptr) {
    evictions_->Inc();
  }
}

void Cache::AccountUsed(int64_t delta) {
  used_ = static_cast<uint64_t>(static_cast<int64_t>(used_) + delta);
  if (used_bytes_ != nullptr) {
    used_bytes_->Add(static_cast<double>(delta));
  }
}

uint64_t Cache::ShrinkTo(uint64_t max_bytes) {
  uint64_t evicted = 0;
  while (used_ > max_bytes && !entries_.empty()) {
    uint64_t before = used_;
    EvictOne();
    evicted += before - used_;
  }
  return evicted;
}

}  // namespace past
