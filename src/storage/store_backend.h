// StoreBackend — where a FileStore keeps its replicas and pointers.
//
// FileStore owns the PAST semantics (capacity accounting, duplicate and
// admission checks, store.* metrics); the backend is a dumb keyed container
// with two keyspaces. MemoryBackend is the default and holds everything in
// maps; DiskBackend (disk_backend.h) writes through to the durable log
// engine so a restarted node recovers its state.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/pastry/node_id.h"
#include "src/storage/certificates.h"

namespace past {

struct StoredFile {
  FileCertificate cert;
  // Empty in synthetic-content mode. Usually a slice of the message (or the
  // log value) the replica arrived in; see DESIGN.md "Content buffers".
  SharedBytes content;
  bool diverted = false;  // stored here on behalf of another node
  NodeDescriptor diverted_from;  // the node holding the pointer (if diverted)
};

class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  // Inserts or replaces the replica keyed by file.cert.file_id. Durable
  // backends may fail with kUnavailable on I/O errors.
  virtual StatusCode Put(StoredFile file) = 0;
  // Null when absent. The pointer stays valid until the entry is mutated.
  virtual const StoredFile* Get(const FileId& id) const = 0;
  [[nodiscard]] virtual bool Remove(const FileId& id) = 0;

  virtual StatusCode PutPointer(const FileId& id,
                                const NodeDescriptor& holder) = 0;
  virtual std::optional<NodeDescriptor> GetPointer(const FileId& id) const = 0;
  [[nodiscard]] virtual bool RemovePointer(const FileId& id) = 0;

  virtual std::vector<FileId> FileIds() const = 0;
  virtual size_t file_count() const = 0;
  virtual size_t pointer_count() const = 0;

  // Flushes acknowledged writes to stable storage (no-op in memory).
  virtual StatusCode Sync() { return StatusCode::kOk; }
};

class MemoryBackend : public StoreBackend {
 public:
  StatusCode Put(StoredFile file) override;
  const StoredFile* Get(const FileId& id) const override;
  [[nodiscard]] bool Remove(const FileId& id) override;

  StatusCode PutPointer(const FileId& id, const NodeDescriptor& holder) override;
  std::optional<NodeDescriptor> GetPointer(const FileId& id) const override;
  [[nodiscard]] bool RemovePointer(const FileId& id) override;

  std::vector<FileId> FileIds() const override;
  size_t file_count() const override { return files_.size(); }
  size_t pointer_count() const override { return pointers_.size(); }

 private:
  std::unordered_map<U160, StoredFile, U160Hash> files_;
  std::unordered_map<U160, NodeDescriptor, U160Hash> pointers_;
};

}  // namespace past

