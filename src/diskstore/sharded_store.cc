#include "src/diskstore/sharded_store.h"

#include <chrono>

#include "src/common/check.h"
#include "src/common/crc32c.h"
#include "src/diskstore/log_format.h"

namespace past {

uint32_t ShardedDiskStore::ShardIndex(const U160& key, uint32_t shard_count) {
  if (shard_count <= 1) {
    return 0;
  }
  // CRC32C of the raw key bytes: fixed for all time, independent of the
  // process's hash seeds, so a directory reopens under the layout it was
  // written with.
  const auto& bytes = key.bytes();
  return Crc32c(ByteSpan(bytes.data(), bytes.size())) % shard_count;
}

ShardedDiskStore::ShardedDiskStore(std::string dir,
                                   const DiskStoreOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      concurrent_(options.group_commit || options.background_compaction) {
  options_.env = env_;

  shard_options_ = options_;
  shard_options_.shard_count = 1;
  shard_options_.group_commit = false;
  shard_options_.background_compaction = false;
  shard_options_.cache_bytes = 0;
  // With worker threads, shards observe nothing: the registry's instruments
  // are not thread-safe, and this layer reports through metrics_mu_ instead.
  shard_options_.metrics = concurrent_ ? nullptr : options_.metrics;
  // Group commit owns fsync scheduling; inline sync_every would reintroduce
  // the per-append fsync the batching exists to amortize.
  if (options_.group_commit) {
    shard_options_.sync_every = 0;
  }
  shard_options_.inline_compaction = !options_.background_compaction;

  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.cache_bytes, options_.metrics);
  }
  if (options_.metrics != nullptr) {
    m_commit_batches_ = options_.metrics->GetCounter("disk.commit.batches");
    m_commit_batch_size_ =
        options_.metrics->GetLogHistogram("disk.commit.batch_size");
    m_compact_background_ =
        options_.metrics->GetCounter("disk.compact.background");
    m_compact_pause_us_ =
        options_.metrics->GetLogHistogram("disk.compact.pause_us");
  }
}

ShardedDiskStore::~ShardedDiskStore() {
  if (compactor_.joinable()) {
    {
      MutexLock lock(&compact_mu_);
      compact_stop_ = true;
      compact_cv_.NotifyAll();
    }
    compactor_.join();
  }
  for (auto& shard : shards_) {
    if (shard->committer.joinable()) {
      {
        MutexLock lock(&shard->mu);
        shard->stop = true;
        shard->work_cv.NotifyAll();
      }
      // The committer drains every pending append before exiting, so clean
      // shutdown never loses an acknowledged write.
      shard->committer.join();
    }
  }
}

Result<std::unique_ptr<ShardedDiskStore>> ShardedDiskStore::Open(
    const std::string& dir, const DiskStoreOptions& options) {
  if (options.shard_count < 1 || options.shard_count > kMaxShards) {
    return StatusCode::kInvalidArgument;
  }
  std::unique_ptr<ShardedDiskStore> store(new ShardedDiskStore(dir, options));
  StatusCode status = store->OpenShards();
  if (status != StatusCode::kOk) {
    return status;
  }
  store->StartThreads();
  return store;
}

// --- layout ------------------------------------------------------------------

std::string ShardedDiskStore::ShardDir(uint32_t count, uint32_t index) const {
  return dir_ + "/shard-" + std::to_string(count) + "-" + std::to_string(index);
}

// A count-1 layout is segment files at the top level; a count-N layout is
// the shard-N-* directories. Env::ListDir lists regular files only, so shard
// directories are probed by name.
StatusCode ShardedDiskStore::CheckLayout() {
  std::vector<std::string> names;
  StatusCode status = env_->ListDir(dir_, &names);
  if (status != StatusCode::kOk) {
    return status;
  }
  uint32_t layouts = 0;
  uint32_t existing = 0;
  uint64_t seq = 0;
  for (const std::string& name : names) {
    if (ParseSegmentFileName(name, &seq)) {
      layouts = 1;
      existing = 1;
      break;
    }
  }
  for (uint32_t c = 2; c <= kMaxShards; ++c) {
    if (env_->FileExists(ShardDir(c, 0))) {
      ++layouts;
      existing = c;
    }
  }
  if (layouts > 1 || (layouts == 1 && existing != options_.shard_count)) {
    return StatusCode::kInvalidArgument;
  }
  return StatusCode::kOk;
}

StatusCode ShardedDiskStore::OpenShards() {
  StatusCode status = env_->CreateDirs(dir_);
  if (status != StatusCode::kOk) {
    return status;
  }
  status = CheckLayout();
  if (status != StatusCode::kOk) {
    return status;
  }
  for (uint32_t i = 0; i < options_.shard_count; ++i) {
    const std::string sdir =
        options_.shard_count == 1 ? dir_ : ShardDir(options_.shard_count, i);
    Result<std::unique_ptr<DiskStore>> opened =
        DiskStore::Open(sdir, shard_options_);
    if (!opened.ok()) {
      return opened.status();
    }
    auto shard = std::make_unique<Shard>();
    {
      MutexLock lock(&shard->mu);
      shard->store = std::move(opened.value());
    }
    shards_.push_back(std::move(shard));
  }
  return StatusCode::kOk;
}

void ShardedDiskStore::StartThreads() {
  if (options_.group_commit) {
    for (auto& shard : shards_) {
      shard->committer =
          std::thread(&ShardedDiskStore::CommitterLoop, this, shard.get());
    }
  }
  if (options_.background_compaction) {
    compactor_ = std::thread(&ShardedDiskStore::CompactorLoop, this);
  }
}

// --- serving path ------------------------------------------------------------

template <typename Fn>
StatusCode ShardedDiskStore::Mutate(const U160& key, Fn&& fn) {
  const size_t idx = ShardIndex(key, options_.shard_count);
  Shard& s = *shards_[idx];
  MutexLock lock(&s.mu);
  if (s.error != StatusCode::kOk) {
    return s.error;
  }
  StatusCode status = fn(s.store.get());
  if (status != StatusCode::kOk) {
    return status;  // e.g. kNotFound from Remove — nothing was appended
  }
  if (cache_ != nullptr) {
    // Invalidate under the shard mutex, so no concurrent Get on this key can
    // re-fill the cache with the old value in between.
    cache_->Erase(key);
  }
  if (options_.group_commit) {
    const uint64_t my_seq = ++s.appended_seq;
    s.work_cv.NotifyOne();
    while (s.durable_seq < my_seq && s.error == StatusCode::kOk) {
      s.durable_cv.Wait(&s.mu);
    }
    if (s.durable_seq < my_seq) {
      return s.error;  // the committer's fsync failed; not durable
    }
  }
  MaybeScheduleCompaction(idx, &s);
  return StatusCode::kOk;
}

void ShardedDiskStore::MaybeScheduleCompaction(size_t idx, Shard* s) {
  if (!options_.background_compaction || s->compact_queued ||
      !s->store->NeedsCompaction()) {
    return;
  }
  s->compact_queued = true;
  MutexLock lock(&compact_mu_);
  compact_queue_.push_back(idx);
  compact_cv_.NotifyOne();
}

StatusCode ShardedDiskStore::Put(const U160& key, ValuePieces value) {
  return Mutate(key,
                [&](DiskStore* store) { return store->Put(key, value); });
}

StatusCode ShardedDiskStore::Remove(const U160& key) {
  return Mutate(key, [&](DiskStore* store) { return store->Remove(key); });
}

StatusCode ShardedDiskStore::PutPointer(const U160& key, ByteSpan value) {
  return Mutate(
      key, [&](DiskStore* store) { return store->PutPointer(key, value); });
}

StatusCode ShardedDiskStore::RemovePointer(const U160& key) {
  return Mutate(key,
                [&](DiskStore* store) { return store->RemovePointer(key); });
}

bool ShardedDiskStore::Has(const U160& key) const {
  Shard& s = *shards_[ShardIndex(key, options_.shard_count)];
  MutexLock lock(&s.mu);
  return s.store->Has(key);
}

Result<Bytes> ShardedDiskStore::Get(const U160& key) const {
  Shard& s = *shards_[ShardIndex(key, options_.shard_count)];
  MutexLock lock(&s.mu);
  if (cache_ != nullptr) {
    Bytes cached;
    if (cache_->Get(key, &cached)) {
      return cached;
    }
  }
  Result<Bytes> value = s.store->Get(key);
  if (value.ok() && cache_ != nullptr) {
    // Fill happens under the same shard mutex as invalidation, so a cached
    // value always matches the index the moment it is inserted.
    cache_->Insert(key,
                   ByteSpan(value.value().data(), value.value().size()));
  }
  return value;
}

bool ShardedDiskStore::HasPointer(const U160& key) const {
  Shard& s = *shards_[ShardIndex(key, options_.shard_count)];
  MutexLock lock(&s.mu);
  return s.store->HasPointer(key);
}

Result<Bytes> ShardedDiskStore::GetPointer(const U160& key) const {
  Shard& s = *shards_[ShardIndex(key, options_.shard_count)];
  MutexLock lock(&s.mu);
  return s.store->GetPointer(key);
}

std::vector<U160> ShardedDiskStore::Keys() const {
  std::vector<U160> out;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    std::vector<U160> keys = shard->store->Keys();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  return out;
}

std::vector<U160> ShardedDiskStore::PointerKeys() const {
  std::vector<U160> out;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    std::vector<U160> keys = shard->store->PointerKeys();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  return out;
}

size_t ShardedDiskStore::key_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    n += shard->store->key_count();
  }
  return n;
}

size_t ShardedDiskStore::pointer_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    n += shard->store->pointer_count();
  }
  return n;
}

StatusCode ShardedDiskStore::Sync() {
  StatusCode first = StatusCode::kOk;
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    if (shard->error != StatusCode::kOk) {
      if (first == StatusCode::kOk) {
        first = shard->error;
      }
      continue;
    }
    StatusCode status = shard->store->Sync();
    if (status != StatusCode::kOk) {
      shard->error = status;
      shard->durable_cv.NotifyAll();
      if (first == StatusCode::kOk) {
        first = status;
      }
      continue;
    }
    if (options_.group_commit) {
      // Everything appended so far just hit disk; release any waiters.
      shard->durable_seq = shard->appended_seq;
      shard->durable_cv.NotifyAll();
    }
  }
  return first;
}

ShardedDiskStore::Stats ShardedDiskStore::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    const Stats& s = shard->store->stats();
    total.segments += s.segments;
    total.live_bytes += s.live_bytes;
    total.garbage_bytes += s.garbage_bytes;
    total.appends += s.appends;
    total.bytes_written += s.bytes_written;
    total.syncs += s.syncs;
    total.compactions += s.compactions;
    total.replayed_records += s.replayed_records;
    total.torn_tails += s.torn_tails;
  }
  return total;
}

ShardedDiskStore::CommitStats ShardedDiskStore::commit_stats() const {
  MutexLock lock(&metrics_mu_);
  return commit_stats_;
}

// --- worker threads ----------------------------------------------------------

void ShardedDiskStore::CommitterLoop(Shard* s) {
  MutexLock lock(&s->mu);
  for (;;) {
    while (!s->stop && s->appended_seq == s->durable_seq &&
           s->error == StatusCode::kOk) {
      s->work_cv.Wait(&s->mu);
    }
    if (s->error != StatusCode::kOk) {
      return;  // poisoned: waiters were already released with the error
    }
    if (s->appended_seq == s->durable_seq) {
      return;  // stop requested and fully drained
    }
    if (!s->stop && s->appended_seq - s->durable_seq < kCommitBatchMax) {
      // Batching window: give concurrent appenders one bounded delay to
      // join this fsync. Appenders that arrive later simply ride the next
      // batch — correctness never depends on who makes the cut.
      (void)s->work_cv.WaitFor(&s->mu, kCommitDelayUs);
    }
    const uint64_t batch_end = s->appended_seq;
    const uint64_t batch_size = batch_end - s->durable_seq;
    // fsync with the shard mutex held: appenders that arrive during the
    // fsync block on the mutex, proceed the moment it returns, and form the
    // next batch while this thread sits in the window above.
    StatusCode status = s->store->Sync();
    if (status != StatusCode::kOk) {
      s->error = status;
      s->durable_cv.NotifyAll();
      return;
    }
    s->durable_seq = batch_end;
    s->durable_cv.NotifyAll();
    {
      MutexLock mlock(&metrics_mu_);
      ++commit_stats_.batches;
      commit_stats_.batched_appends += batch_size;
      if (m_commit_batches_ != nullptr) {
        m_commit_batches_->Inc();
      }
      if (m_commit_batch_size_ != nullptr) {
        m_commit_batch_size_->Observe(static_cast<double>(batch_size));
      }
    }
  }
}

void ShardedDiskStore::CompactorLoop() {
  for (;;) {
    size_t idx = 0;
    {
      MutexLock lock(&compact_mu_);
      while (!compact_stop_ && compact_queue_.empty()) {
        compact_cv_.Wait(&compact_mu_);
      }
      if (compact_queue_.empty()) {
        return;  // stop requested and queue drained
      }
      idx = compact_queue_.front();
      compact_queue_.pop_front();
    }
    Shard& s = *shards_[idx];
    bool ran = false;
    int64_t pause_us = 0;
    {
      MutexLock lock(&s.mu);
      s.compact_queued = false;
      if (s.error == StatusCode::kOk && s.store->NeedsCompaction()) {
        // Wall clock, not sim time: the pause instrument measures how long
        // this shard's serving ops would have stalled behind the lock.
        const auto start = std::chrono::steady_clock::now();  // lint:allow-nondeterminism
        StatusCode status = s.store->Compact();
        const auto end = std::chrono::steady_clock::now();  // lint:allow-nondeterminism
        pause_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       end - start)
                       .count();
        ran = true;
        if (status != StatusCode::kOk) {
          s.error = status;
          s.durable_cv.NotifyAll();
        } else if (options_.group_commit) {
          // Compaction fsynced every live record on its way out.
          s.durable_seq = s.appended_seq;
          s.durable_cv.NotifyAll();
        }
      }
    }
    if (ran) {
      MutexLock mlock(&metrics_mu_);
      ++commit_stats_.background_compactions;
      if (m_compact_background_ != nullptr) {
        m_compact_background_->Inc();
      }
      if (m_compact_pause_us_ != nullptr) {
        m_compact_pause_us_->Observe(static_cast<double>(pause_us));
      }
    }
  }
}

}  // namespace past
