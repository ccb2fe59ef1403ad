// Backend parity: FileStore must behave identically — same status codes,
// same accounting invariants, same round-tripped contents — whether its
// replicas live in a MemoryBackend or go through the durable DiskBackend.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/storage/disk_backend.h"
#include "src/storage/file_store.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

FileCertificate CertOfSize(uint64_t size, uint64_t tag) {
  FileCertificate cert;
  Bytes raw(20, 0);
  for (int i = 0; i < 8; ++i) {
    raw[static_cast<size_t>(i)] = static_cast<uint8_t>(tag >> (8 * i));
  }
  cert.file_id = U160::FromBytes(raw);
  cert.file_size = size;
  cert.replication_factor = 3;
  // A syntactically valid (nonzero) key: the disk backend re-decodes stored
  // certificates on reopen, and the key decoder rejects n = 0 / e = 0.
  cert.owner.public_key.n = BigNum::FromU64(0xD00000000000000DULL);
  cert.owner.public_key.e = BigNum::FromU64(65537);
  return cert;
}

StoredFile FileOfSize(uint64_t size, uint64_t tag) {
  StoredFile f;
  f.cert = CertOfSize(size, tag);
  return f;
}

class BackendParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<FileStore> MakeStore(uint64_t capacity) {
    return std::make_unique<FileStore>(capacity, MakeBackend());
  }

  std::unique_ptr<StoreBackend> MakeBackend() {
    if (GetParam() == "memory") {
      return std::make_unique<MemoryBackend>();
    }
    // "disk" = legacy single-log engine defaults; "disk4" = the sharded
    // engine with every concurrent feature on (4 shards, group commit,
    // background compaction, block cache). Parity across all three is the
    // contract: sharding is invisible above the StoreBackend seam.
    DiskStoreOptions options;
    if (GetParam() == "disk4") {
      options.shard_count = 4;
      options.group_commit = true;
      options.background_compaction = true;
      options.cache_bytes = 1ULL << 20;
    }
    // A distinct directory per backend keeps reopen semantics out of the
    // shared tests (covered separately below).
    auto backend = DiskBackend::Open(
        tmp_.Sub("db-" + std::to_string(next_dir_++)), options);
    EXPECT_TRUE(backend.ok()) << StatusCodeName(backend.status());
    return std::move(backend).value();
  }

  TempDir tmp_;
  int next_dir_ = 0;
};

TEST_P(BackendParityTest, AccountingInvariantUnderMixedWorkload) {
  auto store = MakeStore(100000);
  Rng rng(17);
  uint64_t expected_used = 0;
  for (int op = 0; op < 300; ++op) {
    const uint64_t tag = rng.UniformU64(40);
    if (rng.UniformU64(3) != 0) {
      const uint64_t size = 1 + rng.UniformU64(900);
      StoredFile f = FileOfSize(size, tag);
      f.content = rng.RandomBytes(16);
      f.diverted = (tag % 2) == 0;
      StatusCode status = store->Put(std::move(f));
      if (status == StatusCode::kOk) {
        expected_used += size;
      } else {
        EXPECT_TRUE(status == StatusCode::kAlreadyExists ||
                    status == StatusCode::kInsufficientStorage);
      }
    } else {
      auto freed = store->Remove(CertOfSize(0, tag).file_id);
      if (freed.has_value()) {
        expected_used -= *freed;
      }
    }
    ASSERT_EQ(store->used(), expected_used);
    ASSERT_EQ(store->used() + store->free_space(), store->capacity());
  }
  EXPECT_GT(store->file_count(), 0u);
}

TEST_P(BackendParityTest, DuplicateAndCapacityRejects) {
  auto store = MakeStore(1000);
  EXPECT_EQ(store->Put(FileOfSize(600, 1)), StatusCode::kOk);
  EXPECT_EQ(store->Put(FileOfSize(600, 1)), StatusCode::kAlreadyExists);
  EXPECT_EQ(store->Put(FileOfSize(600, 2)), StatusCode::kInsufficientStorage);
  EXPECT_EQ(store->used(), 600u);
  EXPECT_EQ(store->Put(FileOfSize(400, 3)), StatusCode::kOk);  // exact fit
  EXPECT_EQ(store->free_space(), 0u);
}

TEST_P(BackendParityTest, StoredFileRoundTripsAllFields) {
  auto store = MakeStore(1000);
  StoredFile f = FileOfSize(50, 3);
  f.content = ToBytes("diverted payload");
  f.cert.salt = 1234;
  f.cert.insertion_date = -7;
  f.diverted = true;
  f.diverted_from = NodeDescriptor{U128(1, 2), 9};
  const FileId id = f.cert.file_id;
  ASSERT_EQ(store->Put(std::move(f)), StatusCode::kOk);

  const StoredFile* got = store->Get(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->content, ToBytes("diverted payload"));
  EXPECT_EQ(got->cert.salt, 1234u);
  EXPECT_EQ(got->cert.insertion_date, -7);
  EXPECT_TRUE(got->diverted);
  EXPECT_EQ(got->diverted_from.addr, 9u);
  EXPECT_EQ(got->diverted_from.id, U128(1, 2));
}

TEST_P(BackendParityTest, PointerRoundTripAndRemoval) {
  auto store = MakeStore(1000);
  const FileId id = CertOfSize(1, 5).file_id;
  EXPECT_FALSE(store->GetPointer(id).has_value());
  EXPECT_EQ(store->PutPointer(id, NodeDescriptor{U128(3, 4), 17}), StatusCode::kOk);
  auto ptr = store->GetPointer(id);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->addr, 17u);
  EXPECT_EQ(store->pointer_count(), 1u);
  EXPECT_EQ(store->used(), 0u);  // pointers use no replica space
  EXPECT_TRUE(store->RemovePointer(id));
  EXPECT_FALSE(store->RemovePointer(id));
}

TEST_P(BackendParityTest, RemoveReleasesSpace) {
  auto store = MakeStore(1000);
  StoredFile f = FileOfSize(100, 1);
  const FileId id = f.cert.file_id;
  ASSERT_EQ(store->Put(std::move(f)), StatusCode::kOk);
  auto freed = store->Remove(id);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, 100u);
  EXPECT_EQ(store->used(), 0u);
  EXPECT_FALSE(store->Remove(id).has_value());
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParityTest,
                         ::testing::Values("memory", "disk", "disk4"),
                         [](const auto& info) { return info.param; });

// Disk-only: a FileStore rebuilt over a reopened DiskBackend recovers the
// replicas, the pointers, AND the used-bytes accounting.
TEST(DiskBackendReopenTest, FileStoreAccountingSurvivesReopen) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  {
    auto backend = DiskBackend::Open(dir, {});
    ASSERT_TRUE(backend.ok());
    FileStore store(10000, std::move(backend).value());
    for (uint64_t tag = 0; tag < 12; ++tag) {
      StoredFile f = FileOfSize(100 + tag, tag);
      f.content = ToBytes("c" + std::to_string(tag));
      ASSERT_EQ(store.Put(std::move(f)), StatusCode::kOk);
    }
    ASSERT_TRUE(store.Remove(CertOfSize(0, 3).file_id).has_value());
    ASSERT_EQ(store.PutPointer(CertOfSize(0, 77).file_id, NodeDescriptor{U128(5, 6), 31}),
              StatusCode::kOk);
    ASSERT_EQ(store.Sync(), StatusCode::kOk);
  }
  auto backend = DiskBackend::Open(dir, {});
  ASSERT_TRUE(backend.ok());
  FileStore store(10000, std::move(backend).value());
  EXPECT_EQ(store.file_count(), 11u);
  EXPECT_EQ(store.pointer_count(), 1u);
  uint64_t expected_used = 0;
  for (uint64_t tag = 0; tag < 12; ++tag) {
    if (tag == 3) {
      EXPECT_FALSE(store.Has(CertOfSize(0, tag).file_id));
      continue;
    }
    expected_used += 100 + tag;
    const StoredFile* got = store.Get(CertOfSize(0, tag).file_id);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->content, ToBytes("c" + std::to_string(tag)));
  }
  EXPECT_EQ(store.used(), expected_used);
  EXPECT_EQ(store.GetPointer(CertOfSize(0, 77).file_id)->addr, 31u);
  // Recovered replicas count against free space: a duplicate is still a
  // duplicate after reboot.
  EXPECT_EQ(store.Put(FileOfSize(100, 0)), StatusCode::kAlreadyExists);
}

// Same reopen-accounting contract over the sharded engine: replicas,
// pointers, and used-bytes all survive a reboot of a 4-shard group-commit
// store.
TEST(DiskBackendReopenTest, ShardedEngineAccountingSurvivesReopen) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  DiskStoreOptions options;
  options.shard_count = 4;
  options.group_commit = true;
  options.cache_bytes = 1ULL << 20;
  {
    auto backend = DiskBackend::Open(dir, options);
    ASSERT_TRUE(backend.ok());
    FileStore store(10000, std::move(backend).value());
    for (uint64_t tag = 0; tag < 12; ++tag) {
      StoredFile f = FileOfSize(100 + tag, tag);
      f.content = ToBytes("c" + std::to_string(tag));
      ASSERT_EQ(store.Put(std::move(f)), StatusCode::kOk);
    }
    ASSERT_TRUE(store.Remove(CertOfSize(0, 3).file_id).has_value());
    ASSERT_EQ(store.PutPointer(CertOfSize(0, 77).file_id,
                               NodeDescriptor{U128(5, 6), 31}),
              StatusCode::kOk);
    // No explicit Sync: group commit means every acknowledged mutation is
    // already durable.
  }
  auto backend = DiskBackend::Open(dir, options);
  ASSERT_TRUE(backend.ok());
  FileStore store(10000, std::move(backend).value());
  EXPECT_EQ(store.file_count(), 11u);
  EXPECT_EQ(store.pointer_count(), 1u);
  uint64_t expected_used = 0;
  for (uint64_t tag = 0; tag < 12; ++tag) {
    if (tag == 3) {
      EXPECT_FALSE(store.Has(CertOfSize(0, tag).file_id));
      continue;
    }
    expected_used += 100 + tag;
    const StoredFile* got = store.Get(CertOfSize(0, tag).file_id);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->content, ToBytes("c" + std::to_string(tag)));
  }
  EXPECT_EQ(store.used(), expected_used);
  EXPECT_EQ(store.Put(FileOfSize(100, 0)), StatusCode::kAlreadyExists);
}

// The shard count is fixed when a state dir is created: a DiskBackend
// reopened at another count fails through the StoreBackend seam instead of
// serving a store with half its replicas missing, and the dir still reopens
// with every replica at the count it was written with.
TEST(DiskBackendReopenTest, MismatchedShardCountIsRejected) {
  TempDir tmp;
  const std::string dir = tmp.Sub("db");
  {
    auto backend = DiskBackend::Open(dir, {});
    ASSERT_TRUE(backend.ok());
    FileStore store(10000, std::move(backend).value());
    for (uint64_t tag = 0; tag < 10; ++tag) {
      ASSERT_EQ(store.Put(FileOfSize(50 + tag, tag)), StatusCode::kOk);
    }
    ASSERT_EQ(store.Sync(), StatusCode::kOk);
  }
  DiskStoreOptions sharded;
  sharded.shard_count = 4;
  auto rejected = DiskBackend::Open(dir, sharded);
  EXPECT_EQ(rejected.status(), StatusCode::kInvalidArgument);

  auto backend = DiskBackend::Open(dir, {});
  ASSERT_TRUE(backend.ok()) << StatusCodeName(backend.status());
  EXPECT_EQ(backend.value()->file_count(), 10u);
}

}  // namespace
}  // namespace past
