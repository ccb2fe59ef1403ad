// Focused PastryNode behavior tests: replica-aware routing, per-hop ack
// re-routing, death quarantine, keep-alive failure detection, and
// statistics.
#include <gtest/gtest.h>

#include "src/pastry/messages.h"
#include "src/pastry/overlay.h"

namespace past {
namespace {

struct RecApp : public PastryApp {
  std::vector<DeliverContext> delivered;
  void Deliver(const DeliverContext& ctx, const SharedBytes&) override {
    delivered.push_back(ctx);
  }
};

struct Net {
  explicit Net(int n, uint64_t seed, SimTime keep_alive = 0) {
    OverlayOptions opts;
    opts.seed = seed;
    opts.pastry.keep_alive_period = keep_alive;
    opts.pastry.failure_timeout = 3 * kMicrosPerSecond;
    opts.pastry.death_quarantine = 6 * kMicrosPerSecond;
    overlay = std::make_unique<Overlay>(opts);
    overlay->Build(n);
    apps.resize(overlay->size());
    for (size_t i = 0; i < overlay->size(); ++i) {
      overlay->node(i)->SetApp(&apps[i]);
    }
  }

  // Returns the single node that delivered, or nullptr.
  PastryNode* WhoDelivered() {
    PastryNode* result = nullptr;
    for (size_t i = 0; i < apps.size(); ++i) {
      if (!apps[i].delivered.empty()) {
        EXPECT_EQ(result, nullptr) << "duplicate delivery";
        result = overlay->node(i);
        apps[i].delivered.clear();
      }
    }
    return result;
  }

  std::unique_ptr<Overlay> overlay;
  std::vector<RecApp> apps;
};

TEST(ReplicaRoutingTest, DeliversAtOneOfKClosest) {
  Net net(200, 71);
  for (int trial = 0; trial < 100; ++trial) {
    U128 key = net.overlay->RandomKey();
    // Global truth: the 5 ring-closest nodes.
    std::vector<std::pair<U128, PastryNode*>> ranked;
    for (size_t i = 0; i < net.overlay->size(); ++i) {
      ranked.emplace_back(net.overlay->node(i)->id().RingDistance(key),
                          net.overlay->node(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    net.overlay->RandomLiveNode()->Route(key, 1, {}, /*replica_k=*/5);
    net.overlay->RunAll();
    PastryNode* deliverer = net.WhoDelivered();
    ASSERT_NE(deliverer, nullptr);
    bool in_top5 = false;
    for (int i = 0; i < 5; ++i) {
      in_top5 |= ranked[static_cast<size_t>(i)].second == deliverer;
    }
    EXPECT_TRUE(in_top5) << "delivered outside the replica set, key "
                         << key.ToHex();
  }
}

TEST(ReplicaRoutingTest, ReplicaKOneMatchesExactRouting) {
  Net net(150, 73);
  for (int trial = 0; trial < 50; ++trial) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    net.overlay->RandomLiveNode()->Route(key, 1, {}, /*replica_k=*/1);
    net.overlay->RunAll();
    EXPECT_EQ(net.WhoDelivered(), expected);
  }
}

TEST(ReplicaRoutingTest, PrefersProximallyCloseReplica) {
  Net net(400, 79);
  // Statistically, replica-aware delivery should land on the client-nearest
  // replica much more often than 1/5 of the time.
  int nearest_hits = 0, classified = 0;
  Rng rng(5);
  for (int trial = 0; trial < 150; ++trial) {
    U128 key = net.overlay->RandomKey();
    PastryNode* client = net.overlay->node(rng.PickIndex(net.overlay->size()));
    std::vector<std::pair<U128, PastryNode*>> ranked;
    for (size_t i = 0; i < net.overlay->size(); ++i) {
      ranked.emplace_back(net.overlay->node(i)->id().RingDistance(key),
                          net.overlay->node(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<PastryNode*> replicas;
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(ranked[static_cast<size_t>(i)].second);
    }
    client->Route(key, 1, {}, 5);
    net.overlay->RunAll();
    PastryNode* deliverer = net.WhoDelivered();
    if (deliverer == nullptr) {
      continue;
    }
    PastryNode* proximally_nearest = nullptr;
    double best = 0;
    for (PastryNode* r : replicas) {
      double d = net.overlay->network().Proximity(client->addr(), r->addr());
      if (proximally_nearest == nullptr || d < best) {
        proximally_nearest = r;
        best = d;
      }
    }
    ++classified;
    nearest_hits += deliverer == proximally_nearest ? 1 : 0;
  }
  ASSERT_GT(classified, 100);
  EXPECT_GT(static_cast<double>(nearest_hits) / classified, 0.45);
}

TEST(PerHopAckTest, ReroutesAroundSilentlyDeadHop) {
  Net net(150, 83);
  // Fail a set of nodes with NO repair time and NO heartbeats: only the
  // per-hop ack timeout can save messages that would transit them.
  for (int i = 0; i < 20; ++i) {
    net.overlay->node(static_cast<size_t>(3 + i * 7))->Fail();
  }
  int delivered = 0;
  uint64_t reroutes_before = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    reroutes_before += net.overlay->node(i)->stats().reroutes;
  }
  const int kQueries = 50;
  for (int q = 0; q < kQueries; ++q) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    net.overlay->RandomLiveNode()->Route(key, 1, {});
    net.overlay->Run(20 * kMicrosPerSecond);
    for (size_t i = 0; i < net.apps.size(); ++i) {
      for (auto& ctx : net.apps[i].delivered) {
        if (ctx.key == key && net.overlay->node(i) == expected) {
          ++delivered;
        }
      }
      net.apps[i].delivered.clear();
    }
  }
  EXPECT_GE(delivered, kQueries - 2);
  uint64_t reroutes_after = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    reroutes_after += net.overlay->node(i)->stats().reroutes;
  }
  EXPECT_GT(reroutes_after, reroutes_before) << "some hops must have re-routed";
}

TEST(DeathQuarantineTest, StaleGossipCannotResurrectFailedNode) {
  Net net(60, 89, /*keep_alive=*/1 * kMicrosPerSecond);
  PastryNode* victim = net.overlay->node(30);
  NodeId victim_id = victim->id();
  victim->Fail();
  net.overlay->Run(30 * kMicrosPerSecond);
  // Converged: nobody holds the victim.
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    if (node->active()) {
      ASSERT_FALSE(node->leaf_set().Contains(victim_id));
    }
  }
  // A genuine rejoin (which announces itself) IS accepted again.
  victim->Recover(net.overlay->node(0)->addr());
  net.overlay->Run(30 * kMicrosPerSecond);
  ASSERT_TRUE(victim->active());
  int holders = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    if (node != victim && node->active() && node->leaf_set().Contains(victim_id)) {
      ++holders;
    }
  }
  EXPECT_GT(holders, 10);
}

TEST(StatsTest, CountersTrackActivity) {
  Net net(50, 97);
  PastryNode* src = net.overlay->node(5);
  uint64_t sent_before = src->stats().msgs_sent;
  for (int i = 0; i < 10; ++i) {
    src->Route(net.overlay->RandomKey(), 1, {});
    net.overlay->RunAll();
  }
  EXPECT_GT(src->stats().msgs_sent, sent_before);
  EXPECT_GT(src->stats().routed_seen, 0u);
  uint64_t total_delivered = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    total_delivered += net.overlay->node(i)->stats().delivered;
  }
  EXPECT_EQ(total_delivered, 10u);
  src->ResetStats();
  EXPECT_EQ(src->stats().msgs_sent, 0u);
}

TEST(MaxHopGuardTest, HopCountsStayWellBelowCap) {
  Net net(300, 101);
  for (int i = 0; i < 100; ++i) {
    net.overlay->RandomLiveNode()->Route(net.overlay->RandomKey(), 1, {});
    net.overlay->RunAll();
  }
  for (auto& app : net.apps) {
    for (auto& ctx : app.delivered) {
      EXPECT_LT(ctx.hops, 10);
    }
  }
}

// --- keep-alive liveness semantics -------------------------------------------
//
// One real node under test plus scripted peers on the same simulated network.
// A peer answers the node's keep-alives only while `answering`, and it
// answers synchronously, so the instant the node last heard from it is
// exactly `last_answer`. Everything else the node learns is injected straight
// into PastryNode::OnMessage at a chosen simulated time. These tests pin the
// failure detector's current semantics, stale re-admission included.

struct ScriptedPeer : public NetReceiver {
  ScriptedPeer(Network* net, PastryNode* node, const NodeId& id)
      : queue(net->queue()), target(node) {
    desc.id = id;
    desc.addr = net->Register(this);
  }

  void OnMessage(NodeAddr from, ByteSpan wire) override {
    Reader r(wire);
    PastryMsgType type;
    if (!DecodeHeader(&r, &type) || type != PastryMsgType::kKeepAlive ||
        from != target->addr()) {
      return;
    }
    ++pings;
    if (!answering) {
      return;
    }
    last_answer = queue->Now();
    KeepAliveAckMsg ack;
    ack.sender = desc;
    target->OnMessage(desc.addr, EncodeMessage(ack));
  }

  EventQueue* queue;
  PastryNode* target;
  NodeDescriptor desc;
  bool answering = true;
  int pings = 0;
  SimTime last_answer = -1;
};

class LivenessTest : public ::testing::Test {
 protected:
  static constexpr SimTime kPeriod = 1 * kMicrosPerSecond;
  static constexpr SimTime kTimeout = 3 * kMicrosPerSecond;
  static constexpr SimTime kQuarantine = 6 * kMicrosPerSecond;
  static constexpr uint64_t kSelfHi = 0x4000000000000000ULL;

  void Start(int leaf_set_size) {
    OverlayOptions opts;
    opts.seed = 131;
    opts.pastry.leaf_set_size = leaf_set_size;
    opts.pastry.keep_alive_period = kPeriod;
    opts.pastry.failure_timeout = kTimeout;
    opts.pastry.death_quarantine = kQuarantine;
    overlay_ = std::make_unique<Overlay>(opts);
    node_ = overlay_->AddNodeWithId(U128(kSelfHi, 0));
    ASSERT_TRUE(node_->active());
    overlay_->Run(kPeriod / 4);
  }

  // A peer `offset` ids clockwise (positive) or counter-clockwise (negative)
  // of the node under test.
  ScriptedPeer& AddPeer(int64_t offset) {
    U128 self(kSelfHi, 0);
    U128 id = offset >= 0 ? self.Add(U128(0, static_cast<uint64_t>(offset)))
                          : self.Sub(U128(0, static_cast<uint64_t>(-offset)));
    peers_.push_back(std::make_unique<ScriptedPeer>(&overlay_->network(), node_, id));
    return *peers_.back();
  }

  template <typename M>
  void Inject(const ScriptedPeer& from, const M& msg) {
    node_->OnMessage(from.desc.addr, EncodeMessage(msg));
  }
  void KeepAliveFrom(const ScriptedPeer& p) {
    KeepAliveMsg ka;
    ka.sender = p.desc;
    Inject(p, ka);
  }
  void LeafSetReplyListing(const ScriptedPeer& from, const ScriptedPeer& listed) {
    LeafSetReplyMsg reply;
    reply.sender = from.desc;
    reply.leaves = {listed.desc};
    Inject(from, reply);
  }

  SimTime Now() { return overlay_->queue().Now(); }
  void RunTo(SimTime t) { overlay_->queue().RunUntil(t); }
  uint64_t Failures() const { return node_->stats().failures_detected; }
  bool Holds(const ScriptedPeer& p) const { return node_->leaf_set().Contains(p.desc.id); }

  // Runs event instant by event instant until the node has declared `count`
  // failures in total; returns the instant of the last declaration.
  SimTime RunUntilFailures(uint64_t count) {
    EventQueue& q = overlay_->queue();
    const SimTime give_up = q.Now() + 10 * kTimeout;
    while (Failures() < count && q.Now() < give_up) {
      q.RunUntil(q.NextDeadline());
    }
    EXPECT_EQ(Failures(), count);
    return q.Now();
  }

  std::unique_ptr<Overlay> overlay_;
  PastryNode* node_ = nullptr;
  std::vector<std::unique_ptr<ScriptedPeer>> peers_;
};

TEST_F(LivenessTest, SilentLeafMemberDeclaredFailedAfterTimeoutNotBefore) {
  Start(/*leaf_set_size=*/4);
  ScriptedPeer& v = AddPeer(1000);
  KeepAliveFrom(v);
  ASSERT_TRUE(Holds(v));
  RunTo(Now() + 5 * kPeriod);
  EXPECT_TRUE(Holds(v));
  EXPECT_EQ(Failures(), 0u);
  EXPECT_GE(v.pings, 4);

  v.answering = false;
  const SimTime last_heard = v.last_answer;
  ASSERT_GT(last_heard, 0);
  // At exactly failure_timeout of silence the member is still trusted...
  RunTo(last_heard + kTimeout);
  EXPECT_TRUE(Holds(v));
  EXPECT_EQ(Failures(), 0u);
  // ...and the first keep-alive tick past it declares the failure.
  const SimTime declared = RunUntilFailures(1);
  EXPECT_GT(declared, last_heard + kTimeout);
  EXPECT_LE(declared, last_heard + kTimeout + kPeriod);
  EXPECT_FALSE(Holds(v));
}

TEST_F(LivenessTest, QuarantineKeepsFailedNodeOutOfLearnForItsDuration) {
  Start(/*leaf_set_size=*/4);
  ScriptedPeer& v = AddPeer(1000);
  ScriptedPeer& s = AddPeer(-1000);
  KeepAliveFrom(v);
  KeepAliveFrom(s);
  RunTo(Now() + 2 * kPeriod);
  v.answering = false;
  const SimTime declared = RunUntilFailures(1);
  ASSERT_FALSE(Holds(v));

  // Stale gossip naming the dead node is refused for the whole quarantine...
  RunTo(declared + kPeriod);
  LeafSetReplyListing(s, v);
  EXPECT_FALSE(Holds(v));
  RunTo(declared + kQuarantine - 1);
  LeafSetReplyListing(s, v);
  EXPECT_FALSE(Holds(v));
  // ...and accepted again once it has expired.
  RunTo(declared + kQuarantine);
  LeafSetReplyListing(s, v);
  EXPECT_TRUE(Holds(v));
}

enum class Evidence { kKeepAlive, kAnnounce, kDirect };

class LivenessEvidenceTest : public LivenessTest,
                             public ::testing::WithParamInterface<Evidence> {};

TEST_P(LivenessEvidenceTest, DirectEvidenceOfLifeLiftsQuarantine) {
  Start(/*leaf_set_size=*/4);
  ScriptedPeer& v = AddPeer(1000);
  ScriptedPeer& s = AddPeer(-1000);
  KeepAliveFrom(v);
  KeepAliveFrom(s);
  RunTo(Now() + 2 * kPeriod);
  v.answering = false;
  const SimTime declared = RunUntilFailures(1);
  RunTo(declared + kPeriod);
  LeafSetReplyListing(s, v);
  ASSERT_FALSE(Holds(v)) << "quarantined";

  switch (GetParam()) {
    case Evidence::kKeepAlive:
      KeepAliveFrom(v);
      break;
    case Evidence::kAnnounce: {
      AnnounceArrivalMsg announce;
      announce.joiner = v.desc;
      Inject(v, announce);
      break;
    }
    case Evidence::kDirect: {
      AppDirectMsg direct;
      direct.source = v.desc;
      direct.app_type = 7;
      Inject(v, direct);
      break;
    }
  }
  EXPECT_TRUE(Holds(v));
  EXPECT_LT(Now() - declared, kQuarantine);
}

INSTANTIATE_TEST_SUITE_P(Kinds, LivenessEvidenceTest,
                         ::testing::Values(Evidence::kKeepAlive, Evidence::kAnnounce,
                                           Evidence::kDirect),
                         [](const ::testing::TestParamInfo<Evidence>& param) {
                           switch (param.param) {
                             case Evidence::kKeepAlive:
                               return std::string("KeepAlive");
                             case Evidence::kAnnounce:
                               return std::string("Announce");
                             case Evidence::kDirect:
                               return std::string("Direct");
                           }
                           return std::string("Unknown");
                         });

// A node keeps the last-heard time of every id it has ever heard from, and a
// member's clock starts at admission only when it has none. So a live node
// that left the leaf set without being declared failed, and is re-admitted
// from someone else's leaf-set reply more than failure_timeout later, is
// suspected on the very next tick without being pinged. This is the source
// of most false failure declarations under churn; a change to it must change
// this test on purpose.
TEST_F(LivenessTest, StaleClockOnReadmissionIsSuspectedOnNextTick) {
  Start(/*leaf_set_size=*/2);  // one member per side
  ScriptedPeer& s = AddPeer(-1000);
  ScriptedPeer& w = AddPeer(1000);
  ScriptedPeer& v = AddPeer(2000);
  ScriptedPeer& fresh = AddPeer(3000);
  KeepAliveFrom(s);
  KeepAliveFrom(v);
  RunTo(Now() + 3 * kPeriod);
  ASSERT_TRUE(Holds(v));
  ASSERT_GT(v.pings, 0);

  // A closer node arrives and evicts v without any failure declaration.
  AnnounceArrivalMsg announce;
  announce.joiner = w.desc;
  Inject(w, announce);
  ASSERT_TRUE(Holds(w));
  ASSERT_FALSE(Holds(v));
  const SimTime v_heard = v.last_answer;
  const int v_pings = v.pings;
  RunTo(v_heard + kTimeout + 2 * kPeriod);
  EXPECT_EQ(Failures(), 0u) << "non-members are never suspected";
  EXPECT_EQ(v.pings, v_pings);

  // The closer node dies; v, still alive, comes back through s's reply.
  w.answering = false;
  RunUntilFailures(1);
  ASSERT_FALSE(Holds(w));
  ASSERT_GT(Now() - v_heard, kTimeout);
  LeafSetReplyListing(s, v);
  ASSERT_TRUE(Holds(v));
  const SimTime readmitted = Now();
  const SimTime declared = RunUntilFailures(2);
  EXPECT_LE(declared, readmitted + kPeriod) << "suspected on the next tick";
  EXPECT_EQ(v.pings, v_pings) << "declared without being pinged";
  EXPECT_FALSE(Holds(v));

  // A node never heard from before gets a fresh clock on admission instead.
  LeafSetReplyListing(s, fresh);
  ASSERT_TRUE(Holds(fresh));
  RunTo(Now() + kTimeout + 2 * kPeriod);
  EXPECT_TRUE(Holds(fresh));
  EXPECT_EQ(Failures(), 2u);
  EXPECT_GT(fresh.pings, 0);
}

}  // namespace
}  // namespace past
