#include "src/storage/disk_backend.h"

#include <utility>

#include "src/common/serializer.h"
#include "src/pastry/messages.h"

namespace past {
namespace {

// A serialized StoredFile is cert, content blob, diverted flag, holder
// descriptor. It goes to the engine as three pieces around the content, so
// the content is copied once, into the log record, and never staged.
struct StoredFileEncoding {
  Bytes head;  // certificate and the content's length prefix
  Bytes tail;  // diverted flag and holder descriptor
};

StoredFileEncoding EncodeStoredFileAround(const StoredFile& file) {
  StoredFileEncoding enc;
  Writer head;
  file.cert.EncodeTo(&head);
  head.U32(static_cast<uint32_t>(file.content.size()));
  enc.head = head.Take();
  Writer tail;
  tail.Bool(file.diverted);
  EncodeDescriptor(&tail, file.diverted_from);
  enc.tail = tail.Take();
  return enc;
}

// `data` is the whole recovered value; the content decodes as a slice of it.
bool DecodeStoredFile(const SharedBytes& data, StoredFile* out) {
  Reader r(data);
  return FileCertificate::DecodeFrom(&r, &out->cert) && r.Blob(&out->content) &&
         r.Bool(&out->diverted) && DecodeDescriptor(&r, &out->diverted_from) &&
         r.AtEnd();
}

Bytes EncodePointer(const NodeDescriptor& holder) {
  Writer w;
  EncodeDescriptor(&w, holder);
  return w.Take();
}

bool DecodePointer(ByteSpan data, NodeDescriptor* out) {
  Reader r(data);
  return DecodeDescriptor(&r, out) && r.AtEnd();
}

}  // namespace

DiskBackend::DiskBackend(std::unique_ptr<ShardedDiskStore> engine)
    : engine_(std::move(engine)) {}

Result<std::unique_ptr<DiskBackend>> DiskBackend::Open(
    const std::string& dir, const DiskStoreOptions& options) {
  Result<std::unique_ptr<ShardedDiskStore>> engine =
      ShardedDiskStore::Open(dir, options);
  if (!engine.ok()) {
    return engine.status();
  }
  std::unique_ptr<DiskBackend> backend(
      new DiskBackend(std::move(engine).value()));
  StatusCode status = backend->LoadRecovered();
  if (status != StatusCode::kOk) {
    return status;
  }
  return backend;
}

StatusCode DiskBackend::LoadRecovered() {
  for (const U160& key : engine_->Keys()) {
    Result<Bytes> value = engine_->Get(key);
    if (!value.ok()) {
      return value.status();
    }
    StoredFile file;
    if (!DecodeStoredFile(SharedBytes(std::move(value).value()), &file) ||
        file.cert.file_id != key) {
      return StatusCode::kCorruption;
    }
    if (StatusCode status = mirror_.Put(std::move(file));
        status != StatusCode::kOk) {
      return status;
    }
  }
  for (const U160& key : engine_->PointerKeys()) {
    Result<Bytes> value = engine_->GetPointer(key);
    if (!value.ok()) {
      return value.status();
    }
    NodeDescriptor holder;
    if (!DecodePointer(ByteSpan(value.value().data(), value.value().size()),
                       &holder)) {
      return StatusCode::kCorruption;
    }
    if (StatusCode status = mirror_.PutPointer(key, holder);
        status != StatusCode::kOk) {
      return status;
    }
  }
  return StatusCode::kOk;
}

StatusCode DiskBackend::Put(StoredFile file) {
  const StoredFileEncoding enc = EncodeStoredFileAround(file);
  const ByteSpan pieces[] = {enc.head, file.content, enc.tail};
  StatusCode status = engine_->Put(file.cert.file_id, pieces);
  if (status != StatusCode::kOk) {
    return status;
  }
  return mirror_.Put(std::move(file));
}

const StoredFile* DiskBackend::Get(const FileId& id) const {
  return mirror_.Get(id);
}

bool DiskBackend::Remove(const FileId& id) {
  if (engine_->Remove(id) != StatusCode::kOk) {
    return false;
  }
  return mirror_.Remove(id);
}

StatusCode DiskBackend::PutPointer(const FileId& id,
                                   const NodeDescriptor& holder) {
  Bytes value = EncodePointer(holder);
  StatusCode status =
      engine_->PutPointer(id, ByteSpan(value.data(), value.size()));
  if (status != StatusCode::kOk) {
    return status;
  }
  return mirror_.PutPointer(id, holder);
}

std::optional<NodeDescriptor> DiskBackend::GetPointer(const FileId& id) const {
  return mirror_.GetPointer(id);
}

bool DiskBackend::RemovePointer(const FileId& id) {
  if (engine_->RemovePointer(id) != StatusCode::kOk) {
    return false;
  }
  return mirror_.RemovePointer(id);
}

std::vector<FileId> DiskBackend::FileIds() const { return mirror_.FileIds(); }

}  // namespace past
