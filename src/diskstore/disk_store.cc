#include "src/diskstore/disk_store.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/prof.h"

namespace past {

DiskStore::DiskStore(std::string dir, const DiskStoreOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()) {
  if (options_.metrics != nullptr) {
    m_bytes_written_ = options_.metrics->GetCounter("disk.bytes_written");
    m_fsyncs_ = options_.metrics->GetCounter("disk.fsyncs");
    m_compactions_ = options_.metrics->GetCounter("disk.compactions");
    m_recovery_replayed_ = options_.metrics->GetCounter("disk.recovery_replayed");
    m_torn_tails_ = options_.metrics->GetCounter("disk.torn_tails");
    m_segments_ = options_.metrics->GetGauge("disk.segments");
#if defined(PAST_PROF)
    m_append_us_ = options_.metrics->GetLogHistogram("disk.append_us");
    m_fsync_us_ = options_.metrics->GetLogHistogram("disk.fsync_us");
#endif
  }
}

DiskStore::~DiskStore() {
  if (active_file_ != nullptr) {
    // Best-effort durability on clean shutdown; a failure here has no
    // caller to report to, and replay handles whatever did not land.
    IgnoreStatus(active_file_->Sync());
    IgnoreStatus(active_file_->Close());
  }
  if (m_segments_ != nullptr) {
    m_segments_->Sub(static_cast<double>(segment_seqs_.size()));
  }
}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& dir,
                                                   const DiskStoreOptions& options) {
  std::unique_ptr<DiskStore> store(new DiskStore(dir, options));
  StatusCode status = store->Replay();
  if (status != StatusCode::kOk) {
    return status;
  }
  return store;
}

std::string DiskStore::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + SegmentFileName(seq);
}

// --- recovery ------------------------------------------------------------------

StatusCode DiskStore::Replay() {
  StatusCode status = env_->CreateDirs(dir_);
  if (status != StatusCode::kOk) {
    return status;
  }
  std::vector<std::string> names;
  status = env_->ListDir(dir_, &names);
  if (status != StatusCode::kOk) {
    return status;
  }
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());

  for (size_t i = 0; i < seqs.size(); ++i) {
    const bool is_last = i + 1 == seqs.size();
    status = ReplaySegment(seqs[i], is_last);
    if (status == StatusCode::kNotFound) {
      // The newest segment held nothing recoverable (a crash before its
      // header landed) and was deleted.
      PAST_CHECK(is_last);
      seqs.pop_back();
      break;
    }
    if (status != StatusCode::kOk) {
      return status;
    }
    segment_seqs_.push_back(seqs[i]);
  }
  if (m_recovery_replayed_ != nullptr) {
    m_recovery_replayed_->Inc(stats_.replayed_records);
  }
  if (m_segments_ != nullptr) {
    m_segments_->Add(static_cast<double>(segment_seqs_.size()));
  }
  stats_.segments = segment_seqs_.size();

  next_seq_ = seqs.empty() ? 1 : seqs.back() + 1;
  if (!seqs.empty()) {
    uint64_t last_size = 0;
    status = env_->FileSize(SegmentPath(seqs.back()), &last_size);
    if (status != StatusCode::kOk) {
      return status;
    }
    if (last_size < options_.segment_target_bytes) {
      // Resume appending where the log left off.
      return OpenActiveSegment(seqs.back(), last_size);
    }
  }
  return OpenActiveSegment(next_seq_++, 0);
}

StatusCode DiskStore::ReplaySegment(uint64_t seq, bool is_last) {
  const std::string path = SegmentPath(seq);
  Bytes buf;
  StatusCode status = env_->ReadFile(path, &buf);
  if (status != StatusCode::kOk) {
    return StatusCode::kUnavailable;
  }
  if (buf.size() < kSegmentHeaderSize) {
    if (is_last) {
      // Crash before the segment header was fully written: the file cannot
      // contain any acknowledged record, so drop it (best effort: a
      // leftover headerless file is re-dropped on the next replay).
      IgnoreStatus(env_->RemoveFile(path));
      ++stats_.torn_tails;
      if (m_torn_tails_ != nullptr) {
        m_torn_tails_->Inc();
      }
      return StatusCode::kNotFound;
    }
    return StatusCode::kCorruption;
  }
  uint64_t header_seq = 0;
  if (!DecodeSegmentHeader(ByteSpan(buf.data(), buf.size()), &header_seq) ||
      header_seq != seq) {
    return StatusCode::kCorruption;
  }

  size_t offset = kSegmentHeaderSize;
  ByteSpan span(buf.data(), buf.size());
  Record record;
  for (;;) {
    const size_t start = offset;
    ParseStatus parse = ParseRecord(span, &offset, &record);
    if (parse == ParseStatus::kAtEnd) {
      return StatusCode::kOk;
    }
    if (parse == ParseStatus::kOk) {
      IndexEntry entry;
      entry.seg = seq;
      entry.value_offset = start + kRecordPrefixSize + kRecordBodyMinSize;
      entry.value_len = static_cast<uint32_t>(record.value.size());
      entry.record_len = static_cast<uint32_t>(offset - start);
      ApplyRecord(record, entry);
      ++stats_.replayed_records;
      continue;
    }
    // A record that cannot be parsed. In the newest segment this is the torn
    // tail of an interrupted append: every record before it is intact, so cut
    // the log there and keep the consistent prefix. Anywhere else the log has
    // valid data after the bad record — genuine corruption, surfaced to the
    // caller rather than silently dropped.
    if (!is_last) {
      return StatusCode::kCorruption;
    }
    status = env_->TruncateFile(path, start);
    if (status != StatusCode::kOk) {
      return StatusCode::kUnavailable;
    }
    ++stats_.torn_tails;
    if (m_torn_tails_ != nullptr) {
      m_torn_tails_->Inc();
    }
    return StatusCode::kOk;
  }
}

void DiskStore::ApplyRecord(const Record& record, const IndexEntry& entry) {
  const bool is_pointer = record.type == RecordType::kPointerPut ||
                          record.type == RecordType::kPointerRemove;
  Index* index = is_pointer ? &pointers_ : &files_;
  const bool is_put =
      record.type == RecordType::kPut || record.type == RecordType::kPointerPut;
  auto it = index->find(record.key);
  if (is_put) {
    if (it != index->end()) {
      stats_.live_bytes -= it->second.record_len;
      stats_.garbage_bytes += it->second.record_len;
      it->second = entry;
    } else {
      index->emplace(record.key, entry);
    }
    stats_.live_bytes += entry.record_len;
  } else {
    if (it != index->end()) {
      stats_.live_bytes -= it->second.record_len;
      stats_.garbage_bytes += it->second.record_len;
      index->erase(it);
    }
    // The remove record itself is dead weight the next compaction drops.
    stats_.garbage_bytes += entry.record_len;
  }
}

// --- appends -------------------------------------------------------------------

StatusCode DiskStore::OpenActiveSegment(uint64_t seq, uint64_t existing_size) {
  StatusCode status = env_->NewWritableFile(SegmentPath(seq), &active_file_);
  if (status != StatusCode::kOk) {
    return status;
  }
  if (existing_size == 0) {
    Bytes header = EncodeSegmentHeader(seq);
    status = active_file_->Append(ByteSpan(header.data(), header.size()));
    if (status != StatusCode::kOk) {
      return status;
    }
    active_size_ = header.size();
    stats_.bytes_written += header.size();
    if (m_bytes_written_ != nullptr) {
      m_bytes_written_->Inc(header.size());
    }
    segment_seqs_.push_back(seq);
    stats_.segments = segment_seqs_.size();
    if (m_segments_ != nullptr) {
      m_segments_->Add(1);
    }
  } else {
    active_size_ = existing_size;
  }
  return StatusCode::kOk;
}

StatusCode DiskStore::SealActiveSegment() {
  if (active_file_ == nullptr) {
    return StatusCode::kOk;
  }
  StatusCode status = active_file_->Sync();
  ++stats_.syncs;
  if (m_fsyncs_ != nullptr) {
    m_fsyncs_->Inc();
  }
  if (status == StatusCode::kOk) {
    status = active_file_->Close();
  }
  active_file_.reset();
  appends_since_sync_ = 0;
  return status;
}

StatusCode DiskStore::Append(RecordType type, const U160& key, ValuePieces value) {
  if (active_size_ >= options_.segment_target_bytes) {
    StatusCode status = SealActiveSegment();
    if (status != StatusCode::kOk) {
      return status;
    }
    status = OpenActiveSegment(next_seq_++, 0);
    if (status != StatusCode::kOk) {
      return status;
    }
  }
  Bytes record = EncodeRecord(type, key, value);
  IndexEntry entry;
  entry.seg = segment_seqs_.back();
  entry.value_offset = active_size_ + kRecordPrefixSize + kRecordBodyMinSize;
  entry.value_len =
      static_cast<uint32_t>(record.size() - kRecordPrefixSize - kRecordBodyMinSize);
  entry.record_len = static_cast<uint32_t>(record.size());
  StatusCode status;
  {
    PAST_PROF_SCOPE(m_append_us_);
    status = active_file_->Append(ByteSpan(record.data(), record.size()));
  }
  if (status != StatusCode::kOk) {
    return status;
  }
  active_size_ += record.size();
  ++stats_.appends;
  stats_.bytes_written += record.size();
  if (m_bytes_written_ != nullptr) {
    m_bytes_written_->Inc(record.size());
  }
  Record applied;
  applied.type = type;
  applied.key = key;
  ApplyRecord(applied, entry);

  if (options_.sync_every > 0 && ++appends_since_sync_ >= options_.sync_every) {
    status = Sync();
    if (status != StatusCode::kOk) {
      return status;
    }
  }
  if (!options_.inline_compaction) {
    // The owner watches NeedsCompaction() and runs Compact() off the
    // serving path.
    return StatusCode::kOk;
  }
  return MaybeCompact();
}

StatusCode DiskStore::Sync() {
  if (active_file_ == nullptr) {
    return StatusCode::kOk;
  }
  StatusCode status;
  {
    PAST_PROF_SCOPE(m_fsync_us_);
    status = active_file_->Sync();
  }
  ++stats_.syncs;
  appends_since_sync_ = 0;
  if (m_fsyncs_ != nullptr) {
    m_fsyncs_->Inc();
  }
  return status;
}

// --- compaction ----------------------------------------------------------------

bool DiskStore::NeedsCompaction() const {
  const uint64_t total = stats_.live_bytes + stats_.garbage_bytes;
  if (total == 0 || stats_.garbage_bytes < options_.compact_min_bytes) {
    return false;
  }
  return static_cast<double>(stats_.garbage_bytes) >=
         options_.compact_garbage_ratio * static_cast<double>(total);
}

StatusCode DiskStore::MaybeCompact() {
  return NeedsCompaction() ? Compact() : StatusCode::kOk;
}

StatusCode DiskStore::Compact() {
  // Seal first so everything the new segment is built from is durable before
  // any old file is deleted.
  StatusCode status = SealActiveSegment();
  if (status != StatusCode::kOk) {
    return status;
  }
  const uint64_t compact_seq = next_seq_++;
  std::unique_ptr<WritableFile> out;
  status = env_->NewWritableFile(SegmentPath(compact_seq), &out);
  if (status != StatusCode::kOk) {
    return status;
  }
  Bytes header = EncodeSegmentHeader(compact_seq);
  status = out->Append(ByteSpan(header.data(), header.size()));
  if (status != StatusCode::kOk) {
    return status;
  }
  uint64_t offset = header.size();
  uint64_t written = header.size();
  uint64_t live = 0;
  Index new_files;
  Index new_pointers;
  // The index is rebuilt only after the new segment is fully on disk, so an
  // I/O failure below leaves the store reading from the old segments; a
  // half-written compaction segment is harmless on the next Open (its
  // records re-assert live state, its tail is torn).
  struct Rewrite {
    const Index* from;
    Index* to;
    RecordType type;
  };
  const Rewrite passes[] = {{&files_, &new_files, RecordType::kPut},
                            {&pointers_, &new_pointers, RecordType::kPointerPut}};
  for (const Rewrite& pass : passes) {
    for (const auto& [key, old_entry] : *pass.from) {
      // A live record re-encodes to exactly its old bytes (same type, key
      // and value), so it is copied verbatim once its CRC checks out.
      Bytes record;
      status = env_->ReadRange(
          SegmentPath(old_entry.seg),
          old_entry.value_offset - kRecordPrefixSize - kRecordBodyMinSize,
          old_entry.record_len, &record);
      if (status != StatusCode::kOk) {
        return status;
      }
      if (!RecordCrcMatches(record)) {
        return StatusCode::kCorruption;
      }
      status = out->Append(ByteSpan(record.data(), record.size()));
      if (status != StatusCode::kOk) {
        return status;
      }
      IndexEntry entry;
      entry.seg = compact_seq;
      entry.value_offset = offset + kRecordPrefixSize + kRecordBodyMinSize;
      entry.value_len = old_entry.value_len;
      entry.record_len = static_cast<uint32_t>(record.size());
      pass.to->emplace(key, entry);
      offset += record.size();
      written += record.size();
      live += record.size();
    }
  }
  status = out->Sync();
  ++stats_.syncs;
  if (m_fsyncs_ != nullptr) {
    m_fsyncs_->Inc();
  }
  if (status == StatusCode::kOk) {
    status = out->Close();
  }
  if (status != StatusCode::kOk) {
    return status;
  }

  // The new segment is durable: retire everything older (best effort; on
  // the default Env, RemoveFile only fails for an already-absent file).
  for (uint64_t seq : segment_seqs_) {
    IgnoreStatus(env_->RemoveFile(SegmentPath(seq)));
  }
  if (m_segments_ != nullptr) {
    m_segments_->Sub(static_cast<double>(segment_seqs_.size()) - 1.0);
  }
  segment_seqs_.clear();
  segment_seqs_.push_back(compact_seq);
  files_ = std::move(new_files);
  pointers_ = std::move(new_pointers);
  stats_.live_bytes = live;
  stats_.garbage_bytes = 0;
  stats_.bytes_written += written;
  if (m_bytes_written_ != nullptr) {
    m_bytes_written_->Inc(written);
  }
  ++stats_.compactions;
  if (m_compactions_ != nullptr) {
    m_compactions_->Inc();
  }
  status = OpenActiveSegment(next_seq_++, 0);
  stats_.segments = segment_seqs_.size();
  return status;
}

// --- point operations ------------------------------------------------------------

Result<Bytes> DiskStore::ReadValue(const Index& index, const U160& key) const {
  auto it = index.find(key);
  if (it == index.end()) {
    return StatusCode::kNotFound;
  }
  if (it->second.value_len == 0) {
    return Bytes{};
  }
  Bytes out;
  StatusCode status = env_->ReadRange(SegmentPath(it->second.seg),
                                      it->second.value_offset,
                                      it->second.value_len, &out);
  if (status != StatusCode::kOk) {
    return status;
  }
  return out;
}

StatusCode DiskStore::RemoveFrom(Index* index, RecordType type, const U160& key) {
  if (index->count(key) == 0) {
    return StatusCode::kNotFound;
  }
  return Append(type, key, ValuePieces());
}

StatusCode DiskStore::Put(const U160& key, ValuePieces value) {
  return Append(RecordType::kPut, key, value);
}

StatusCode DiskStore::Remove(const U160& key) {
  return RemoveFrom(&files_, RecordType::kRemove, key);
}

Result<Bytes> DiskStore::Get(const U160& key) const {
  return ReadValue(files_, key);
}

StatusCode DiskStore::PutPointer(const U160& key, ByteSpan value) {
  return Append(RecordType::kPointerPut, key, ValuePieces(&value, 1));
}

StatusCode DiskStore::RemovePointer(const U160& key) {
  return RemoveFrom(&pointers_, RecordType::kPointerRemove, key);
}

Result<Bytes> DiskStore::GetPointer(const U160& key) const {
  return ReadValue(pointers_, key);
}

std::vector<U160> DiskStore::Keys() const {
  std::vector<U160> out;
  out.reserve(files_.size());
  for (const auto& [key, entry] : files_) {
    out.push_back(key);
  }
  return out;
}

std::vector<U160> DiskStore::PointerKeys() const {
  std::vector<U160> out;
  out.reserve(pointers_.size());
  for (const auto& [key, entry] : pointers_) {
    out.push_back(key);
  }
  return out;
}

}  // namespace past
