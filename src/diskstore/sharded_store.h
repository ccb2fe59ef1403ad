// ShardedDiskStore — N independent DiskStore segment logs behind one
// DiskStore-shaped API, plus the concurrency machinery the serving hot path
// needs: per-shard group commit, background compaction, and a bounded read
// cache.
//
// Sharding. Keys route to shard CRC32C(key) % shard_count — a fixed,
// platform-stable function of the key bytes. The shard count is fixed when
// the directory is created: shard_count == 1 keeps segment files directly in
// the store directory (byte-identical to a plain DiskStore); shard_count ==
// N > 1 nests shards in subdirectories named "shard-<N>-<i>". Open detects
// the layout already on disk and fails with kInvalidArgument, touching no
// file, when its count differs from the requested one or when the directory
// holds more than one layout. There is no migration between counts.
//
// Group commit (options.group_commit). Appends run under the shard mutex
// with fsync disabled, then wait until the shard's committer thread has
// fsynced a batch covering their sequence number. The committer coalesces
// everything appended since the last fsync into one batch, waiting up to
// kCommitDelayUs for more appenders to join while the batch is smaller
// than kCommitBatchMax. Every Put/Remove is durable when it returns —
// sync_every=1 semantics at one fsync per batch instead of per append.
//
// Background compaction (options.background_compaction). Appends never
// compact inline; when a shard crosses the garbage thresholds it is queued
// (deduplicated) to a compactor thread that locks just that shard, so a
// compaction pause stalls one shard instead of landing in every insert's
// latency. The pause is observable as disk.compact.pause_us.
//
// Both threads are off by default; without them the store is as
// single-threaded and deterministic as a plain DiskStore, and the metrics
// registry is passed through to the shards so existing disk.* instruments
// behave identically. With either thread on, shards run without a registry
// and this layer observes its own instruments under a dedicated mutex
// (registry instruments are not thread-safe).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/u160.h"
#include "src/diskstore/block_cache.h"
#include "src/diskstore/disk_store.h"
#include "src/obs/metrics.h"

namespace past {

class ShardedDiskStore {
 public:
  // Valid shard counts are 1..kMaxShards; Open rejects any other.
  static constexpr uint32_t kMaxShards = 64;
  // Group commit: at most this many appends share one fsync, and the
  // committer holds a batch open at most this long for more to join.
  static constexpr uint64_t kCommitBatchMax = 64;
  static constexpr int64_t kCommitDelayUs = 200;

  // Routing function, exposed so tests can pin the on-disk contract.
  static uint32_t ShardIndex(const U160& key, uint32_t shard_count);

  // Opens (creating if needed) the store in `dir`, then starts the
  // committer/compactor threads the options ask for. Fails with
  // kInvalidArgument when shard_count is outside 1..kMaxShards or does not
  // match the layout already in `dir`.
  static Result<std::unique_ptr<ShardedDiskStore>> Open(
      const std::string& dir, const DiskStoreOptions& options);
  ~ShardedDiskStore();

  ShardedDiskStore(const ShardedDiskStore&) = delete;
  ShardedDiskStore& operator=(const ShardedDiskStore&) = delete;

  // --- file keyspace (same contract as DiskStore) -----------------------------
  StatusCode Put(const U160& key, ValuePieces value);
  StatusCode Put(const U160& key, ByteSpan value) {
    return Put(key, ValuePieces(&value, 1));
  }
  StatusCode Remove(const U160& key);
  bool Has(const U160& key) const;
  Result<Bytes> Get(const U160& key) const;
  std::vector<U160> Keys() const;
  size_t key_count() const;

  // --- pointer keyspace -------------------------------------------------------
  StatusCode PutPointer(const U160& key, ByteSpan value);
  StatusCode RemovePointer(const U160& key);
  bool HasPointer(const U160& key) const;
  Result<Bytes> GetPointer(const U160& key) const;
  std::vector<U160> PointerKeys() const;
  size_t pointer_count() const;

  // Makes every acknowledged append durable, across all shards.
  StatusCode Sync();

  using Stats = DiskStore::Stats;
  // Aggregated over the shards (by value: the shards keep mutating).
  Stats stats() const;

  struct CommitStats {
    uint64_t batches = 0;          // committer fsync batches
    uint64_t batched_appends = 0;  // appends those batches made durable
    uint64_t background_compactions = 0;
  };
  CommitStats commit_stats() const;

  uint32_t shard_count() const { return options_.shard_count; }
  const BlockCache* cache() const { return cache_.get(); }

 private:
  struct Shard {
    mutable Mutex mu;
    std::unique_ptr<DiskStore> store PAST_GUARDED_BY(mu);
    // Group-commit state: appenders take a sequence number and wait until
    // the committer's durable frontier covers it.
    uint64_t appended_seq PAST_GUARDED_BY(mu) = 0;
    uint64_t durable_seq PAST_GUARDED_BY(mu) = 0;
    // Sticky: the first fsync/compaction failure poisons the shard and every
    // later mutation reports it (acknowledged-durable must stay true).
    StatusCode error PAST_GUARDED_BY(mu) = StatusCode::kOk;
    bool stop PAST_GUARDED_BY(mu) = false;
    bool compact_queued PAST_GUARDED_BY(mu) = false;
    CondVar work_cv;     // appends arrived (or stop): wakes the committer
    CondVar durable_cv;  // durable_seq advanced (or error): wakes appenders
    std::thread committer;
  };

  ShardedDiskStore(std::string dir, const DiskStoreOptions& options);

  std::string ShardDir(uint32_t count, uint32_t index) const;

  // Single-threaded, called from Open before any worker thread exists.
  StatusCode CheckLayout();
  StatusCode OpenShards();
  void StartThreads();

  // Shared Put/Remove/pointer path: runs `fn` on the shard's store under its
  // mutex, invalidates the cache, waits out group commit, and hands the
  // shard to the compactor when it crosses the garbage thresholds.
  template <typename Fn>
  StatusCode Mutate(const U160& key, Fn&& fn);

  void MaybeScheduleCompaction(size_t idx, Shard* s) PAST_REQUIRES(s->mu);
  void CommitterLoop(Shard* s);
  void CompactorLoop();

  const std::string dir_;
  DiskStoreOptions options_;    // env resolved to a non-null Env
  DiskStoreOptions shard_options_;  // what each shard's DiskStore gets
  Env* env_;
  const bool concurrent_;  // any worker thread (group commit / compaction)

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<BlockCache> cache_;

  // Background-compaction handoff queue (shard indices, deduplicated via
  // Shard::compact_queued). Lock order: a serving thread holds its shard
  // mutex when enqueueing; the compactor never holds compact_mu_ while
  // taking a shard mutex, so there is no cycle.
  mutable Mutex compact_mu_;
  std::deque<size_t> compact_queue_ PAST_GUARDED_BY(compact_mu_);
  bool compact_stop_ PAST_GUARDED_BY(compact_mu_) = false;
  CondVar compact_cv_;
  std::thread compactor_;

  // Cross-thread instrument observations and their internal mirror. The
  // registry's Counter/LogHistogram are not thread-safe, so the committer
  // and compactor threads observe under this mutex. Registered whenever a
  // registry is present — also in single-threaded runs, where they stay
  // deterministically zero — so every --json dump has the same key set.
  mutable Mutex metrics_mu_;
  CommitStats commit_stats_ PAST_GUARDED_BY(metrics_mu_);
  Counter* m_commit_batches_ PAST_PT_GUARDED_BY(metrics_mu_) = nullptr;
  LogHistogram* m_commit_batch_size_ PAST_PT_GUARDED_BY(metrics_mu_) = nullptr;
  Counter* m_compact_background_ PAST_PT_GUARDED_BY(metrics_mu_) = nullptr;
  LogHistogram* m_compact_pause_us_ PAST_PT_GUARDED_BY(metrics_mu_) = nullptr;
};

}  // namespace past
