// DiskBackend — a StoreBackend written through to the durable log engine.
//
// Every mutation is appended to the engine before the in-memory mirror is
// updated, so Open() on the same directory after a crash or restart rebuilds
// exactly the acknowledged (and, with sync, durable) state. Replica values
// are serialized StoredFiles; pointer values are serialized NodeDescriptors.
//
// The engine is a ShardedDiskStore: with the default options (one shard, no
// group commit, no background compaction) it behaves — and lays its files
// out — exactly like a single DiskStore, which keeps the deterministic sim
// paths untouched. The serving knobs in DiskStoreOptions (group_commit,
// background_compaction, cache_bytes) switch on the concurrent machinery.
// shard_count is fixed when `dir` is created: Open fails with
// kInvalidArgument when it does not match the layout already there.
#pragma once

#include <memory>
#include <string>

#include "src/diskstore/sharded_store.h"
#include "src/storage/store_backend.h"

namespace past {

class DiskBackend : public StoreBackend {
 public:
  // Opens (creating if needed) the engine in `dir`, replays its log, and
  // decodes the recovered values. Fails with kCorruption when a recovered
  // value does not decode, or with whatever ShardedDiskStore::Open reports.
  static Result<std::unique_ptr<DiskBackend>> Open(
      const std::string& dir, const DiskStoreOptions& options);

  StatusCode Put(StoredFile file) override;
  const StoredFile* Get(const FileId& id) const override;
  [[nodiscard]] bool Remove(const FileId& id) override;

  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder) override;
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const override;
  [[nodiscard]] bool RemovePointer(const FileId& id) override;

  std::vector<FileId> FileIds() const override;
  size_t file_count() const override { return mirror_.file_count(); }
  size_t pointer_count() const override { return mirror_.pointer_count(); }

  StatusCode Sync() override { return engine_->Sync(); }

  ShardedDiskStore* engine() { return engine_.get(); }

 private:
  explicit DiskBackend(std::unique_ptr<ShardedDiskStore> engine);

  // Decodes everything the engine recovered into the mirror.
  StatusCode LoadRecovered();

  std::unique_ptr<ShardedDiskStore> engine_;
  // Serves reads; the engine is only read at Open() and compaction.
  MemoryBackend mirror_;
};

}  // namespace past

