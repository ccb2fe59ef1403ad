// ShardedDiskStore: routing, single-shard layout parity, group-commit
// durability and batching, block-cache coherence, background compaction, and
// the layout fixed at creation (mismatched or mixed layouts are rejected).
#include "src/diskstore/sharded_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/diskstore/disk_store.h"
#include "src/diskstore/log_format.h"
#include "src/obs/metrics.h"
#include "tests/diskstore/temp_dir.h"

namespace past {
namespace {

ByteSpan Span(const Bytes& b) { return ByteSpan(b.data(), b.size()); }

U160 KeyOf(uint8_t fill) {
  Bytes raw(U160::kBytes, fill);
  return U160::FromBytes(Span(raw));
}

std::unique_ptr<ShardedDiskStore> MustOpen(const std::string& dir,
                                           const DiskStoreOptions& options) {
  Result<std::unique_ptr<ShardedDiskStore>> opened =
      ShardedDiskStore::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << StatusCodeName(opened.status());
  return opened.ok() ? std::move(opened).value() : nullptr;
}

TEST(ShardIndex, MatchesCrc32cModuloAndIsPinned) {
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    Bytes raw = rng.RandomBytes(U160::kBytes);
    const U160 key = U160::FromBytes(Span(raw));
    const uint32_t crc = Crc32c(ByteSpan(key.bytes().data(), U160::kBytes));
    for (uint32_t count : {1u, 2u, 4u, 64u}) {
      EXPECT_EQ(ShardedDiskStore::ShardIndex(key, count), crc % count);
    }
  }
  // Shard count 1 always routes to 0, and the routing function itself is
  // pinned: changing CRC32C (or the modulus) would orphan on-disk layouts.
  EXPECT_EQ(ShardedDiskStore::ShardIndex(KeyOf(0x00), 1), 0u);
  EXPECT_EQ(ShardedDiskStore::ShardIndex(KeyOf(0xab), 4),
            Crc32c(ByteSpan(KeyOf(0xab).bytes().data(), U160::kBytes)) % 4);
}

// With shard_count == 1 and the concurrent features off, the sharded engine
// must produce a byte-identical directory to a plain DiskStore fed the same
// operations — the upgrade story for existing state dirs is "nothing
// changes".
TEST(ShardedDiskStore, SingleShardLayoutIsByteIdenticalToDiskStore) {
  TempDir tmp;
  Rng rng(11);
  std::vector<std::pair<U160, Bytes>> ops;
  for (int i = 0; i < 60; ++i) {
    ops.emplace_back(KeyOf(static_cast<uint8_t>(rng.UniformU64(16))),
                     rng.RandomBytes(1 + rng.UniformU64(120)));
  }

  DiskStoreOptions options;
  options.segment_target_bytes = 512;
  {
    Result<std::unique_ptr<DiskStore>> plain =
        DiskStore::Open(tmp.Sub("plain"), options);
    ASSERT_TRUE(plain.ok());
    for (const auto& [key, value] : ops) {
      ASSERT_EQ(plain.value()->Put(key, Span(value)), StatusCode::kOk);
    }
    ASSERT_EQ(plain.value()->Sync(), StatusCode::kOk);
  }
  {
    std::unique_ptr<ShardedDiskStore> sharded =
        MustOpen(tmp.Sub("sharded"), options);
    ASSERT_NE(sharded, nullptr);
    for (const auto& [key, value] : ops) {
      ASSERT_EQ(sharded->Put(key, Span(value)), StatusCode::kOk);
    }
    ASSERT_EQ(sharded->Sync(), StatusCode::kOk);
  }

  auto slurp = [](const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::string data((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      files[entry.path().filename().string()] = data;
    }
    return files;
  };
  EXPECT_EQ(slurp(tmp.Sub("plain")), slurp(tmp.Sub("sharded")));
}

TEST(ShardedDiskStore, GroupCommitAcksAreDurableAndBatch) {
  TempDir tmp;
  MetricsRegistry metrics;
  DiskStoreOptions options;
  options.shard_count = 2;
  options.group_commit = true;
  options.metrics = &metrics;
  const std::string dir = tmp.Sub("store");
  std::vector<std::pair<U160, Bytes>> written;
  {
    std::unique_ptr<ShardedDiskStore> store = MustOpen(dir, options);
    ASSERT_NE(store, nullptr);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 32;
    std::vector<std::vector<std::pair<U160, Bytes>>> per_thread(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(100 + static_cast<uint64_t>(t));
        for (int i = 0; i < kPerThread; ++i) {
          const U160 key = rng.NextU160();
          Bytes value = rng.RandomBytes(1 + rng.UniformU64(100));
          ASSERT_EQ(store->Put(key, Span(value)), StatusCode::kOk);
          per_thread[t].emplace_back(key, std::move(value));
        }
      });
    }
    for (auto& t : pool) {
      t.join();
    }
    for (auto& v : per_thread) {
      written.insert(written.end(), v.begin(), v.end());
    }

    const ShardedDiskStore::CommitStats cs = store->commit_stats();
    EXPECT_EQ(cs.batched_appends, written.size());
    EXPECT_GT(cs.batches, 0u);
    // Batching actually happened: strictly fewer fsync batches than
    // acknowledged appends (8 threads on 2 shards, each fsync held open for
    // kCommitDelayUs, must coalesce).
    EXPECT_LT(cs.batches, cs.batched_appends);
    EXPECT_EQ(metrics.GetCounter("disk.commit.batches")->value(), cs.batches);
    EXPECT_EQ(metrics.GetLogHistogram("disk.commit.batch_size")->count(),
              cs.batches);
  }
  // Every acknowledged Put survives reopen with no extra Sync: the ack was
  // the durability point.
  DiskStoreOptions reopen;
  reopen.shard_count = 2;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(dir, reopen);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->key_count(), written.size());
  for (const auto& [key, value] : written) {
    Result<Bytes> got = store->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), value);
  }
}

TEST(ShardedDiskStore, BlockCacheHitsAndStaysCoherent) {
  TempDir tmp;
  MetricsRegistry metrics;
  DiskStoreOptions options;
  options.cache_bytes = 1ULL << 20;
  options.metrics = &metrics;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(tmp.Sub("store"), options);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(store->cache(), nullptr);

  const U160 key = KeyOf(1);
  Bytes v1(64, 0x11);
  Bytes v2(64, 0x22);
  ASSERT_EQ(store->Put(key, Span(v1)), StatusCode::kOk);
  // First Get misses (Put does not populate, it invalidates), second hits.
  ASSERT_EQ(store->Get(key).value(), v1);
  ASSERT_EQ(store->Get(key).value(), v1);
  EXPECT_EQ(store->cache()->stats().misses, 1u);
  EXPECT_EQ(store->cache()->stats().hits, 1u);
  EXPECT_EQ(metrics.GetCounter("disk.cache.hits")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("disk.cache.misses")->value(), 1u);

  // Overwrite invalidates: the next Get must see v2, not the cached v1.
  ASSERT_EQ(store->Put(key, Span(v2)), StatusCode::kOk);
  EXPECT_EQ(store->Get(key).value(), v2);
  // Remove invalidates too.
  ASSERT_EQ(store->Remove(key), StatusCode::kOk);
  EXPECT_FALSE(store->Get(key).ok());
}

TEST(ShardedDiskStore, BlockCacheEvictsUnderCapacity) {
  TempDir tmp;
  MetricsRegistry metrics;
  DiskStoreOptions options;
  options.cache_bytes = 1024;
  options.metrics = &metrics;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(tmp.Sub("store"), options);
  ASSERT_NE(store, nullptr);
  Rng rng(5);
  std::vector<U160> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(rng.NextU160());
    Bytes value(400, static_cast<uint8_t>(i));
    ASSERT_EQ(store->Put(keys.back(), Span(value)), StatusCode::kOk);
  }
  for (const U160& key : keys) {
    ASSERT_TRUE(store->Get(key).ok());
  }
  EXPECT_GT(store->cache()->stats().evictions, 0u);
  EXPECT_LE(store->cache()->used_bytes(), 1024u);
  EXPECT_EQ(metrics.GetCounter("disk.cache.evictions")->value(),
            store->cache()->stats().evictions);
  EXPECT_EQ(static_cast<uint64_t>(
                metrics.GetGauge("disk.cache.used_bytes")->value()),
            store->cache()->used_bytes());
}

TEST(ShardedDiskStore, BackgroundCompactionReclaimsGarbage) {
  TempDir tmp;
  MetricsRegistry metrics;
  DiskStoreOptions options;
  options.shard_count = 2;
  options.background_compaction = true;
  options.segment_target_bytes = 512;
  options.compact_min_bytes = 600;
  options.compact_garbage_ratio = 0.5;
  options.metrics = &metrics;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(tmp.Sub("store"), options);
  ASSERT_NE(store, nullptr);

  // Overwrite a small key set until compaction triggers; the serving thread
  // never runs Compact() itself, so reclamation proves the worker ran.
  Rng rng(17);
  std::vector<std::pair<U160, Bytes>> latest;
  for (int round = 0; round < 40; ++round) {
    latest.clear();
    for (uint8_t k = 0; k < 8; ++k) {
      Bytes value = rng.RandomBytes(64);
      ASSERT_EQ(store->Put(KeyOf(k), Span(value)), StatusCode::kOk);
      latest.emplace_back(KeyOf(k), std::move(value));
    }
  }
  // Real-time polling is unavoidable here: the compaction worker is a real
  // thread, not an event-queue actor.
  const auto deadline = std::chrono::steady_clock::now() +  // lint:allow-nondeterminism
                        std::chrono::seconds(10);
  while (store->commit_stats().background_compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {  // lint:allow-nondeterminism
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t seen = store->commit_stats().background_compactions;
  EXPECT_GT(seen, 0u);
  // Latest values still served after compaction.
  for (const auto& [key, value] : latest) {
    Result<Bytes> got = store->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), value);
  }
  // Registry instruments are not thread-safe, and the compactor may still
  // be running a queued compaction: read them only once closing the store
  // has joined it.
  store.reset();
  const uint64_t background =
      metrics.GetCounter("disk.compact.background")->value();
  EXPECT_GE(background, seen);
  EXPECT_EQ(metrics.GetLogHistogram("disk.compact.pause_us")->count(),
            background);
}

std::map<U160, Bytes> Contents(ShardedDiskStore* store) {
  std::map<U160, Bytes> out;
  for (const U160& key : store->Keys()) {
    out[key] = store->Get(key).value();
  }
  return out;
}

// Every file and directory under `dir` (relative path -> bytes; directories
// map to "<dir>"), to prove a rejected Open touched nothing.
std::map<std::string, std::string> Tree(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    const std::string rel =
        std::filesystem::relative(entry.path(), dir).string();
    if (entry.is_directory()) {
      out[rel] = "<dir>";
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    out[rel] = std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  }
  return out;
}

struct Written {
  std::map<U160, Bytes> files;
  std::map<U160, Bytes> pointers;
};

Written WriteStore(const std::string& dir, uint32_t shard_count, Rng* rng) {
  Written written;
  DiskStoreOptions options;
  options.shard_count = shard_count;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(dir, options);
  if (store == nullptr) {
    return written;  // MustOpen reported the failure
  }
  for (int i = 0; i < 40; ++i) {
    const U160 key = rng->NextU160();
    Bytes value = rng->RandomBytes(1 + rng->UniformU64(80));
    EXPECT_EQ(store->Put(key, Span(value)), StatusCode::kOk);
    written.files[key] = std::move(value);
  }
  for (int i = 0; i < 8; ++i) {
    const U160 key = rng->NextU160();
    Bytes value = rng->RandomBytes(16);
    EXPECT_EQ(store->PutPointer(key, Span(value)), StatusCode::kOk);
    written.pointers[key] = std::move(value);
  }
  EXPECT_EQ(store->Sync(), StatusCode::kOk);
  return written;
}

StatusCode OpenStatus(const std::string& dir, uint32_t shard_count) {
  DiskStoreOptions options;
  options.shard_count = shard_count;
  return ShardedDiskStore::Open(dir, options).status();
}

// The shard count is fixed when the directory is created: reopening at any
// other count fails without touching a file, and reopening at the written
// count still serves every record and pointer.
TEST(ShardedDiskStore, ReopenAtADifferentShardCountIsRejected) {
  TempDir tmp;
  Rng rng(23);
  for (uint32_t written_count : {1u, 4u}) {
    const uint32_t other_count = written_count == 1 ? 4 : 1;
    SCOPED_TRACE("written at " + std::to_string(written_count) +
                 ", reopened at " + std::to_string(other_count));
    const std::string dir = tmp.Sub("store-" + std::to_string(written_count));
    const Written written = WriteStore(dir, written_count, &rng);
    const std::map<std::string, std::string> before = Tree(dir);

    EXPECT_EQ(OpenStatus(dir, other_count), StatusCode::kInvalidArgument);
    EXPECT_TRUE(Tree(dir) == before)
        << "a rejected Open changed the directory";

    DiskStoreOptions options;
    options.shard_count = written_count;
    std::unique_ptr<ShardedDiskStore> store = MustOpen(dir, options);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(Contents(store.get()), written.files);
    EXPECT_EQ(store->PointerKeys().size(), written.pointers.size());
    for (const auto& [key, value] : written.pointers) {
      Result<Bytes> got = store->GetPointer(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), value);
    }
  }
}

// What an interrupted shard-count migration used to leave behind: the
// single-log segments at the top level, a partial shard-4-0/ target and a
// migrate-to-4 intent marker. Two layouts at once are rejected at either
// count, and the directory is left exactly as found.
TEST(ShardedDiskStore, DirectoryWithTwoLayoutsIsRejectedUntouched) {
  TempDir tmp;
  const std::string dir = tmp.Sub("store");
  Rng rng(29);
  WriteStore(dir, 1, &rng);
  std::filesystem::create_directories(dir + "/shard-4-0");
  {
    std::ofstream junk(dir + "/shard-4-0/" + SegmentFileName(1),
                       std::ios::binary);
    junk << "partial migration garbage";
    std::ofstream marker(dir + "/migrate-to-4", std::ios::binary);
  }
  const std::map<std::string, std::string> before = Tree(dir);
  EXPECT_EQ(OpenStatus(dir, 1), StatusCode::kInvalidArgument);
  EXPECT_EQ(OpenStatus(dir, 4), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Tree(dir) == before)
      << "a rejected Open changed the directory";
}

TEST(ShardedDiskStore, OutOfRangeShardCountIsRejected) {
  TempDir tmp;
  for (uint32_t count : {0u, ShardedDiskStore::kMaxShards + 1}) {
    SCOPED_TRACE("shard count " + std::to_string(count));
    const std::string dir = tmp.Sub("store-" + std::to_string(count));
    EXPECT_EQ(OpenStatus(dir, count), StatusCode::kInvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(dir));
  }
  EXPECT_EQ(OpenStatus(tmp.Sub("store-max"), ShardedDiskStore::kMaxShards),
            StatusCode::kOk);
}

TEST(ShardedDiskStore, StatsAggregateAcrossShards) {
  TempDir tmp;
  DiskStoreOptions options;
  options.shard_count = 4;
  std::unique_ptr<ShardedDiskStore> store = MustOpen(tmp.Sub("store"), options);
  ASSERT_NE(store, nullptr);
  Rng rng(31);
  for (int i = 0; i < 64; ++i) {
    Bytes value = rng.RandomBytes(64);
    ASSERT_EQ(store->Put(rng.NextU160(), Span(value)), StatusCode::kOk);
  }
  const ShardedDiskStore::Stats stats = store->stats();
  EXPECT_EQ(store->key_count(), 64u);
  EXPECT_GT(stats.live_bytes, 64u * 64u);
  EXPECT_GE(stats.segments, 4u);
  EXPECT_EQ(store->shard_count(), 4u);
}

}  // namespace
}  // namespace past
