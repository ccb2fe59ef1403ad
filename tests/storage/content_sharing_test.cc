// Content sharing pins: file content received in a message is stored,
// cached and fanned out by reference, never copied again past the one
// owning copy the Pastry decoder makes (DESIGN.md "Content buffers"). Each
// test fails if a layer reintroduces a copy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "src/storage/past_network.h"
#include "tests/diskstore/temp_dir.h"
#include "tests/storage/past_test_util.h"

namespace past {
namespace {

Bytes TestContent(size_t n) {
  Bytes content(n);
  for (size_t i = 0; i < n; ++i) {
    content[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return content;
}

FileCertificate CertFor(PastNode* owner, const Bytes& content, uint64_t salt) {
  auto digest = Sha256::Hash(ByteSpan(content.data(), content.size()));
  return std::move(owner->card().IssueFileCertificate(
                       "shared", content.size(),
                       ByteSpan(digest.data(), digest.size()), 3, salt, 0))
      .value();
}

// Encodes `payload` as a direct message and decodes it the way PastryNode
// does on receipt, returning the app payload (the one owning copy).
SharedBytes ReceiveAsDirect(const NodeDescriptor& from, PastOp op, const Bytes& payload) {
  Bytes wire = EncodeAppDirect(from, static_cast<uint32_t>(op), payload);
  Reader r(wire);
  PastryMsgType type;
  AppDirectMsg msg;
  PAST_CHECK(DecodeHeader(&r, &type) && DecodeBodyStrict(&r, &msg));
  return msg.payload;
}

// A replica stored from a StoreReplica message keeps a slice of the decoded
// message, in memory and through the durable backend's mirror alike.
TEST(ContentSharingTest, StoredReplicaSlicesTheDecodedMessage) {
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "disk backend" : "memory backend");
    TempDir tmp;
    PastNetworkOptions options = SmallNetOptions(601);
    if (durable) {
      options.past.state_dir = tmp.Sub("state");
    }
    PastNetwork net(options);
    net.Build(8);
    PastNode* client = net.node(0);
    PastNode* holder = net.node(3);
    const Bytes content = TestContent(64 * 1024);

    StoreReplicaPayload replica;
    replica.cert = CertFor(client, content, 1);
    replica.content = SharedBytes::Copy(content);
    replica.client = client->overlay()->descriptor();
    replica.divert_allowed = false;
    const SharedBytes message =
        ReceiveAsDirect(replica.client, PastOp::kStoreReplica, replica.Encode());
    holder->ReceiveDirect(replica.client, static_cast<uint32_t>(PastOp::kStoreReplica),
                          message);

    const StoredFile* stored = holder->store().Get(replica.cert.file_id);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->content, content);
    EXPECT_TRUE(message.Contains(stored->content.data()))
        << "the stored replica must share the message buffer";
    EXPECT_EQ(stored->content.owner_size(), message.size())
        << "the replica pins its own message and nothing more";
    EXPECT_GE(message.use_count(), 2);
  }
}

// A lookup reply the client caches is cached by sharing the reply buffer.
TEST(ContentSharingTest, ClientCachedLookupReplySharesTheReplyBuffer) {
  PastNetwork net(SmallNetOptions(603));
  net.Build(8);
  PastNode* owner = net.node(1);
  const Bytes content = TestContent(48 * 1024);
  auto inserted = net.InsertSync(owner, "shared", content, 3);
  ASSERT_TRUE(inserted.ok()) << StatusCodeName(inserted.status());
  const FileId id = inserted.value();
  PastNode* client = nullptr;
  for (size_t i = 0; i < net.size(); ++i) {
    PastNode* n = net.node(i);
    if (n != owner && !n->store().Has(id) && !n->file_cache().Contains(id)) {
      client = n;
      break;
    }
  }
  ASSERT_NE(client, nullptr);

  // Start the lookup, then answer it directly before the network does.
  bool done = false;
  Result<PastNode::LookupOutcome> outcome = StatusCode::kNotFound;
  client->Lookup(id, [&](Result<PastNode::LookupOutcome> r) {
    done = true;
    outcome = std::move(r);
  });
  LookupReplyPayload reply;
  reply.cert = *owner->OwnedFileCert(id);
  reply.content = SharedBytes::Copy(content);
  reply.replier = owner->overlay()->descriptor();
  const SharedBytes message =
      ReceiveAsDirect(reply.replier, PastOp::kLookupReply, reply.Encode());
  client->ReceiveDirect(reply.replier, static_cast<uint32_t>(PastOp::kLookupReply),
                        message);
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().content, content);

  ASSERT_TRUE(client->file_cache().Contains(id));
  // Cache::Get is non-const (it bumps priority); the cached entry itself is
  // what the pin inspects.
  const CachedFile* cached = const_cast<Cache&>(client->file_cache()).Get(id);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(message.Contains(cached->content.data()))
      << "the cached copy must share the reply buffer";
  net.Run(5 * kMicrosPerSecond);  // the network's own reply is a duplicate
}

// Records every send (and keeps its wire alive) on top of the simulator.
class RecordingTransport : public Transport {
 public:
  explicit RecordingTransport(Network* inner) : inner_(inner) {}

  struct Sent {
    NodeAddr from;
    NodeAddr to;
    SharedBytes wire;
  };
  std::vector<Sent> sends;

  NodeAddr Register(NetReceiver* receiver) override { return inner_->Register(receiver); }
  void Send(NodeAddr from, NodeAddr to, SharedBytes wire) override {
    sends.push_back(Sent{from, to, wire});
    inner_->Send(from, to, std::move(wire));
  }
  using Transport::Send;
  double Proximity(NodeAddr a, NodeAddr b) const override { return inner_->Proximity(a, b); }
  void SetUp(NodeAddr addr, bool up) override { inner_->SetUp(addr, up); }
  bool IsUp(NodeAddr addr) const override { return inner_->IsUp(addr); }
  EventQueue* queue() override { return inner_->queue(); }
  TimerWheel* wheel() override { return inner_->wheel(); }
  MetricsRegistry& metrics() override { return inner_->metrics(); }
  Tracer& tracer() override { return inner_->tracer(); }

 private:
  Network* inner_;
};

// The insert root encodes StoreReplica once: its k-1 remote sends hand the
// transport the same wire buffer.
TEST(ContentSharingTest, RootFanOutSharesOneWireBuffer) {
  EventQueue queue;
  Rng rng(9);
  Topology topology(TopologyKind::kPlane, 100.0, &rng);
  Network network(&queue, &topology, NetworkConfig{}, 42);
  RecordingTransport transport(&network);
  BrokerOptions broker_options;
  broker_options.modulus_pool = 4;
  Broker broker(11, broker_options);

  std::vector<std::unique_ptr<PastryNode>> overlays;
  std::vector<std::unique_ptr<PastNode>> nodes;
  for (int i = 0; i < 6; ++i) {
    std::unique_ptr<Smartcard> card =
        std::move(broker.IssueCard(1ull << 30, 1ull << 30)).value();
    overlays.push_back(std::make_unique<PastryNode>(
        &transport, card->DerivedNodeId(), PastryConfig{}, 100 + i));
    PastryNode* overlay = overlays.back().get();
    if (i == 0) {
      overlay->Bootstrap();
    } else {
      overlay->Join(overlays[0]->addr());
      for (int step = 0; step < 200 && !overlay->active(); ++step) {
        queue.RunUntil(queue.Now() + 50 * kMicrosPerMilli);
      }
      ASSERT_TRUE(overlay->active());
    }
    queue.RunUntil(queue.Now() + 200 * kMicrosPerMilli);
    nodes.push_back(std::make_unique<PastNode>(overlay, std::move(card), PastConfig{},
                                               200 + i));
  }

  transport.sends.clear();
  bool done = false;
  nodes[1]->Insert("fan-out", TestContent(64 * 1024), 3, [&](Result<FileId> r) {
    EXPECT_TRUE(r.ok()) << StatusCodeName(r.status());
    done = true;
  });
  for (int step = 0; step < 100 && !done; ++step) {
    queue.RunUntil(queue.Now() + 50 * kMicrosPerMilli);
  }
  ASSERT_TRUE(done);

  std::vector<const RecordingTransport::Sent*> replica_sends;
  for (const auto& sent : transport.sends) {
    Reader r(sent.wire);
    PastryMsgType type;
    AppDirectMsg msg;
    if (DecodeHeader(&r, &type) && type == PastryMsgType::kAppDirect &&
        DecodeBodyStrict(&r, &msg) &&
        msg.app_type == static_cast<uint32_t>(PastOp::kStoreReplica)) {
      replica_sends.push_back(&sent);
    }
  }
  // The root holds one of the k = 3 replicas itself and sends the other two.
  ASSERT_EQ(replica_sends.size(), 2u);
  EXPECT_EQ(replica_sends[0]->wire.data(), replica_sends[1]->wire.data());
  EXPECT_NE(replica_sends[0]->to, replica_sends[1]->to);
}

}  // namespace
}  // namespace past
