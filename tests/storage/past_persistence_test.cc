// Durable node state: a PAST network run with a state_dir keeps every
// node's replica store on disk, so a crashed-and-rebooted node comes back
// already holding its replicas — serving lookups without re-fetching them
// through maintenance.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>

#include "src/storage/past_network.h"
#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

PastNetworkOptions DurableNetOptions(uint64_t seed, const std::string& state_dir) {
  PastNetworkOptions options = SmallNetOptions(seed);
  options.past.state_dir = state_dir;
  options.past.disk.sync_every = 1;  // write-through: nothing acked is lost
  return options;
}

TEST(PastPersistenceTest, RebootedNodeRecoversReplicasFromDisk) {
  TempDir tmp;
  PastNetwork net(DurableNetOptions(401, tmp.Sub("state")));
  net.Build(16);
  PastNode* client = net.node(1);

  std::vector<FileId> ids;
  for (int i = 0; i < 6; ++i) {
    auto inserted = net.InsertSync(client, "file-" + std::to_string(i),
                                   ToBytes("payload-" + std::to_string(i)), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    ids.push_back(inserted.value());
  }

  // Crash some replica holder of the first file (not the client).
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(ids[0])) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  std::vector<FileId> held;
  for (const FileId& id : ids) {
    if (net.node(victim)->store().Has(id)) {
      held.push_back(id);
    }
  }
  net.CrashNode(victim);
  net.Run(2 * kMicrosPerSecond);  // crash detected, but well before repair

  PastNode* rebooted = net.RestartNode(victim);
  // Recovery happens at construction, before any network traffic: the store
  // is already populated.
  for (const FileId& id : held) {
    EXPECT_TRUE(rebooted->store().Has(id));
  }
  EXPECT_EQ(rebooted->stats().maintenance_fetches, 0u);

  // Let the overlay re-admit the node, then verify it still holds the
  // replicas WITHOUT having fetched them over the network.
  net.Run(30 * kMicrosPerSecond);
  for (const FileId& id : held) {
    EXPECT_TRUE(rebooted->store().Has(id));
  }
  EXPECT_EQ(rebooted->stats().maintenance_fetches, 0u)
      << "recovered replicas must not be re-fetched";

  // And every file is still readable from an unrelated node.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto looked = net.LookupSync(net.node(3), ids[i]);
    ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
    EXPECT_EQ(looked.value().content, ToBytes("payload-" + std::to_string(i)));
  }
}

TEST(PastPersistenceTest, WithoutStateDirRebootLosesTheStore) {
  PastNetwork net(SmallNetOptions(403));
  net.Build(16);
  PastNode* client = net.node(1);
  auto inserted = net.InsertSync(client, "volatile", ToBytes("gone"), 3);
  ASSERT_TRUE(inserted.ok());
  const FileId id = inserted.value();

  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i) != client && net.node(i)->store().Has(id)) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  net.CrashNode(victim);
  PastNode* rebooted = net.RestartNode(victim);
  EXPECT_FALSE(rebooted->store().Has(id));
  EXPECT_EQ(rebooted->store().used(), 0u);
}

TEST(PastPersistenceTest, PointersSurviveReboot) {
  TempDir tmp;
  PastNetwork net(DurableNetOptions(405, tmp.Sub("state")));
  net.Build(12);
  // Plant a pointer directly (the network paths for diversion are exercised
  // elsewhere; here we only care that it survives the reboot).
  const size_t victim = 4;
  PastNode* node = net.node(victim);
  Bytes raw(20, 0xcd);
  const FileId id = U160::FromBytes(ByteSpan(raw.data(), raw.size()));
  const NodeDescriptor holder{U128(7, 8), 3};
  ASSERT_EQ(node->store().PutPointer(id, holder), StatusCode::kOk);
  ASSERT_EQ(node->store().Sync(), StatusCode::kOk);

  net.CrashNode(victim);
  PastNode* rebooted = net.RestartNode(victim);
  auto recovered = rebooted->store().GetPointer(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->addr, holder.addr);
  EXPECT_EQ(recovered->id, holder.id);
}

// A node whose durable store cannot be opened (here: a stray shard-4-0/
// layout directory in its one-shard state dir) must not fall back to RAM
// and keep issuing receipts: it refuses every replica with kUnavailable and
// stores nothing, while the rest of the network keeps inserting.
TEST(PastPersistenceTest, UnopenableStoreRefusesReplicas) {
  TempDir tmp;
  const std::string state = tmp.Sub("state");
  PastNetwork net(DurableNetOptions(407, state));
  net.Build(10);
  const size_t victim = 5;
  const std::string dir =
      state + "/" + net.node(victim)->overlay()->id().ToHex();
  net.CrashNode(victim);
  std::filesystem::create_directories(dir + "/shard-4-0");
  PastNode* broken = net.RestartNode(victim);
  EXPECT_EQ(broken->store_status(), StatusCode::kInvalidArgument);
  net.Run(20 * kMicrosPerSecond);  // let the overlay re-admit it

  Counter* unavailable = net.overlay().network().metrics().GetCounter(
      "past.store_unavailable");
  PastNode* client = net.node(1);
  for (int i = 0; i < 12; ++i) {
    auto inserted = net.InsertSync(client, "file-" + std::to_string(i),
                                   ToBytes("payload-" + std::to_string(i)), 3);
    ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
    auto looked = net.LookupSync(net.node(2), inserted.value());
    ASSERT_TRUE(looked.ok()) << StatusCodeName(looked.status());
  }
  EXPECT_GT(unavailable->value(), 0u) << "no insert reached the broken node";
  EXPECT_EQ(broken->store().file_count(), 0u);
  EXPECT_EQ(broken->stats().replicas_stored, 0u);
}

// The past_cli batch mode exits 1, naming the directory and the status,
// instead of running on RAM when a node's durable store cannot be opened.
TEST(PastPersistenceTest, PastCliExitsWhenAStoreCannotOpen) {
  TempDir tmp;
  const std::string state = tmp.Sub("state");
  const std::string cmd = std::string(PAST_CLI_BINARY) +
                          " --nodes 8 --ops 20 --state-dir " + state + " 2>&1";
  auto run = [&](std::string* output) {
    FILE* pipe = ::popen(cmd.c_str(), "r");
    PAST_CHECK(pipe != nullptr);
    char buf[4096];
    while (size_t n = std::fread(buf, 1, sizeof(buf), pipe)) {
      output->append(buf, n);
    }
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  std::string first;
  ASSERT_EQ(run(&first), 0) << first;

  std::filesystem::path node_dir;
  for (const auto& entry : std::filesystem::directory_iterator(state)) {
    node_dir = entry.path();
    break;
  }
  ASSERT_FALSE(node_dir.empty());
  std::filesystem::create_directories(node_dir / "shard-4-0");
  std::string second;
  EXPECT_EQ(run(&second), 1) << second;
  EXPECT_NE(second.find(state), std::string::npos) << second;
  EXPECT_NE(second.find(StatusCodeName(StatusCode::kInvalidArgument)),
            std::string::npos)
      << second;
}

}  // namespace
}  // namespace past
