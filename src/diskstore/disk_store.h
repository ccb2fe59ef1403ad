// DiskStore — the durable storage engine behind a PAST node's FileStore.
//
// An append-only, segment-based log (log_format.h) with an in-memory index
// mapping keys to record locations. Two keyspaces share the log: file
// replicas (PUT / REMOVE) and diverted-replica pointers (POINTER_PUT /
// POINTER_REMOVE). Values are opaque byte strings — the storage layer above
// serializes StoredFile / NodeDescriptor; the engine depends only on
// src/common and src/obs.
//
//  * Open() replays every segment in sequence order to rebuild the index,
//    truncating a torn tail (a crash mid-append) off the newest segment and
//    reporting mid-log corruption as StatusCode::kCorruption.
//  * Appends go to the active segment, which rolls over at
//    segment_target_bytes; sealed segments are fsynced and never rewritten.
//  * Overwrites and removes turn earlier records into garbage; when garbage
//    exceeds compact_garbage_ratio of the log, compaction rewrites the live
//    records into a fresh segment and deletes everything older.
//  * Durability: sync_every = 0 leaves fsync to explicit Sync() calls and
//    segment seals; sync_every = n fsyncs after every n-th append (n = 1 is
//    write-through). A record acknowledged after Sync() survives any crash.
//
// Single-threaded, like the rest of the simulator.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/u160.h"
#include "src/diskstore/env.h"
#include "src/diskstore/log_format.h"
#include "src/obs/metrics.h"

namespace past {

struct DiskStoreOptions {
  // Roll the active segment once it grows past this many bytes.
  uint64_t segment_target_bytes = 4ULL << 20;
  // Compact when garbage bytes exceed this fraction of all record bytes...
  double compact_garbage_ratio = 0.5;
  // ...and at least this many bytes would be reclaimed.
  uint64_t compact_min_bytes = 1ULL << 20;
  // 0: fsync only on Sync() and segment seal; n: also after every n appends.
  uint32_t sync_every = 0;
  // Defaults to Env::Default(). Tests substitute a FaultInjectionEnv.
  Env* env = nullptr;
  // Optional shared registry for the disk.* instruments.
  MetricsRegistry* metrics = nullptr;

  // --- engine-level knob (DiskStore) -----------------------------------------
  // When false, Append() never compacts inline; the owner (the sharded
  // engine's background compactor) is responsible for calling Compact() when
  // NeedsCompaction() says so. Default preserves the historical inline
  // threshold compaction.
  bool inline_compaction = true;

  // --- sharded-engine knobs (ShardedDiskStore, sharded_store.h) --------------
  // These ride in DiskStoreOptions so PastConfig.disk and DiskBackend::Open
  // plumb them without new surface. A plain DiskStore ignores them.
  //
  // Number of independent segment-log shards keyed by fileId, 1..64, fixed
  // when the directory is created. 1 (default) keeps the single-log layout:
  // segment files directly in the store directory, byte-identical to a
  // plain DiskStore.
  uint32_t shard_count = 1;
  // Group commit: concurrent appends coalesce into one batched fsync per
  // shard (a dedicated committer thread per shard drains a commit queue).
  // Every Put/Remove is durable when it returns — sync_every=1 semantics at
  // per-batch instead of per-insert fsync cost. Overrides sync_every.
  bool group_commit = false;
  // Move threshold compaction off the serving thread onto a background
  // worker with shard-granular handoff (implies inline_compaction = false
  // for the shards).
  bool background_compaction = false;
  // Bounded cache over value reads (block cache), bytes. 0 = off.
  uint64_t cache_bytes = 0;
};

class DiskStore {
 public:
  // Opens (creating if needed) the store in `dir` and replays the log.
  // Fails with kCorruption on a checksum-invalid record that is not a torn
  // tail, kUnavailable on I/O errors.
  static Result<std::unique_ptr<DiskStore>> Open(const std::string& dir,
                                                 const DiskStoreOptions& options);
  ~DiskStore();

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  // --- file keyspace. Put overwrites (last write wins). -----------------------
  // The value is the concatenation of its pieces (log_format.h).
  StatusCode Put(const U160& key, ValuePieces value);
  StatusCode Put(const U160& key, ByteSpan value) {
    return Put(key, ValuePieces(&value, 1));
  }
  StatusCode Remove(const U160& key);  // kNotFound when absent
  bool Has(const U160& key) const { return files_.count(key) > 0; }
  Result<Bytes> Get(const U160& key) const;
  std::vector<U160> Keys() const;
  size_t key_count() const { return files_.size(); }

  // --- pointer keyspace -------------------------------------------------------
  StatusCode PutPointer(const U160& key, ByteSpan value);
  StatusCode RemovePointer(const U160& key);
  bool HasPointer(const U160& key) const { return pointers_.count(key) > 0; }
  Result<Bytes> GetPointer(const U160& key) const;
  std::vector<U160> PointerKeys() const;
  size_t pointer_count() const { return pointers_.size(); }

  // Makes every acknowledged append durable.
  StatusCode Sync();
  // Rewrites live records into a fresh segment and deletes the rest,
  // regardless of the garbage thresholds.
  StatusCode Compact();
  // True when the garbage thresholds say a compaction is worthwhile. With
  // inline_compaction off, the owner polls this after writes and schedules
  // Compact() itself (the sharded engine's background compactor).
  bool NeedsCompaction() const;

  struct Stats {
    uint64_t segments = 0;          // current segment file count
    uint64_t live_bytes = 0;        // record bytes a compaction would keep
    uint64_t garbage_bytes = 0;     // record bytes a compaction would drop
    uint64_t appends = 0;
    uint64_t bytes_written = 0;
    uint64_t syncs = 0;
    uint64_t compactions = 0;
    uint64_t replayed_records = 0;  // records applied by Open()
    uint64_t torn_tails = 0;        // torn tails truncated by Open()
  };
  const Stats& stats() const { return stats_; }

 private:
  struct IndexEntry {
    uint64_t seg = 0;         // segment sequence number
    uint64_t value_offset = 0;  // byte offset of the value within the file
    uint32_t value_len = 0;
    uint32_t record_len = 0;  // full on-disk record size (prefix + body)
  };
  using Index = std::unordered_map<U160, IndexEntry, U160Hash>;

  DiskStore(std::string dir, const DiskStoreOptions& options);

  StatusCode Replay();
  StatusCode ReplaySegment(uint64_t seq, bool is_last);
  // Applies one parsed record to the index and the live/garbage accounting.
  void ApplyRecord(const Record& record, const IndexEntry& entry);

  StatusCode Append(RecordType type, const U160& key, ValuePieces value);
  StatusCode OpenActiveSegment(uint64_t seq, uint64_t existing_size);
  StatusCode SealActiveSegment();
  StatusCode MaybeCompact();

  std::string SegmentPath(uint64_t seq) const;
  Result<Bytes> ReadValue(const Index& index, const U160& key) const;

  // Removal helper shared by both keyspaces.
  StatusCode RemoveFrom(Index* index, RecordType type, const U160& key);

  const std::string dir_;
  DiskStoreOptions options_;
  Env* env_;

  Index files_;
  Index pointers_;

  std::vector<uint64_t> segment_seqs_;  // ascending; back() is active
  std::unique_ptr<WritableFile> active_file_;
  uint64_t active_size_ = 0;
  uint64_t next_seq_ = 1;
  uint32_t appends_since_sync_ = 0;

  Stats stats_;

  // Shared "disk.*" instruments; null when metrics are off.
  Counter* m_bytes_written_ = nullptr;
  Counter* m_fsyncs_ = nullptr;
  Counter* m_compactions_ = nullptr;
  Counter* m_recovery_replayed_ = nullptr;
  Counter* m_torn_tails_ = nullptr;
  Gauge* m_segments_ = nullptr;
  // Wall-clock I/O timing, resolved only in PAST_PROF builds (null otherwise)
  // so default builds' metric dumps stay byte-identical.
  LogHistogram* m_append_us_ = nullptr;
  LogHistogram* m_fsync_us_ = nullptr;
};

}  // namespace past

