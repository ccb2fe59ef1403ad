// Behavioral tests of Pastry routing over full simulated overlays: delivery
// correctness (always the numerically closest live node), the < ceil(log_2b N)
// expected hop count, per-node state bounds, and the locality properties.
#include <cmath>

#include <gtest/gtest.h>

#include "src/pastry/overlay.h"

namespace past {
namespace {

struct RecordingApp : public PastryApp {
  std::vector<DeliverContext> delivered;
  void Deliver(const DeliverContext& ctx, const SharedBytes&) override {
    delivered.push_back(ctx);
  }
};

// Builds an overlay with apps attached and keep-alives disabled (no failures
// in these tests, so the queue can run to empty).
struct TestNet {
  explicit TestNet(int n, uint64_t seed, bool locality = true,
                   bool randomized = false) {
    OverlayOptions opts;
    opts.seed = seed;
    opts.pastry.keep_alive_period = 0;
    opts.pastry.locality_aware = locality;
    opts.pastry.randomized_routing = randomized;
    opts.nearest_bootstrap = locality;
    overlay = std::make_unique<Overlay>(opts);
    overlay->Build(n);
    apps.resize(overlay->size());
    for (size_t i = 0; i < overlay->size(); ++i) {
      overlay->node(i)->SetApp(&apps[i]);
    }
  }

  // Routes from a random node to `key`; returns the delivery context or
  // nullopt if nothing was delivered.
  std::optional<DeliverContext> RouteAndRun(const U128& key) {
    PastryNode* src = overlay->RandomLiveNode();
    src->Route(key, 1, {});
    overlay->RunAll();
    std::optional<DeliverContext> result;
    for (auto& app : apps) {
      for (auto& ctx : app.delivered) {
        if (ctx.key == key) {
          EXPECT_FALSE(result.has_value()) << "duplicate delivery";
          result = ctx;
        }
      }
      app.delivered.clear();
    }
    return result;
  }

  PastryNode* Deliverer(const DeliverContext& ctx) {
    return overlay->node(ctx.path.back());
  }

  std::unique_ptr<Overlay> overlay;
  std::vector<RecordingApp> apps;
};

TEST(RoutingTest, SingleNodeDeliversToItself) {
  TestNet net(1, 1);
  auto ctx = net.RouteAndRun(U128(123, 456));
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->hops, 0);
}

TEST(RoutingTest, TwoNodesRouteBetweenEachOther) {
  TestNet net(2, 2);
  for (int i = 0; i < 20; ++i) {
    U128 key = net.overlay->RandomKey();
    auto ctx = net.RouteAndRun(key);
    ASSERT_TRUE(ctx.has_value());
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    EXPECT_EQ(net.overlay->node(ctx->path.back())->id(), expected->id());
  }
}

// Parameterized correctness sweep over network sizes and seeds.
class RoutingCorrectness : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(RoutingCorrectness, AlwaysDeliversAtNumericallyClosestNode) {
  auto [n, seed] = GetParam();
  TestNet net(n, seed);
  const int lookups = 100;
  for (int i = 0; i < lookups; ++i) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    auto ctx = net.RouteAndRun(key);
    ASSERT_TRUE(ctx.has_value()) << "no delivery for key " << key.ToHex();
    EXPECT_EQ(net.overlay->node(ctx->path.back())->id(), expected->id())
        << "key " << key.ToHex();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingCorrectness,
    ::testing::Values(std::make_tuple(10, 3u), std::make_tuple(50, 4u),
                      std::make_tuple(100, 5u), std::make_tuple(250, 6u),
                      std::make_tuple(250, 7u)));

TEST(RoutingTest, AverageHopsBelowLogBound) {
  const int n = 400;
  TestNet net(n, 11);
  double total_hops = 0;
  const int lookups = 300;
  for (int i = 0; i < lookups; ++i) {
    auto ctx = net.RouteAndRun(net.overlay->RandomKey());
    ASSERT_TRUE(ctx.has_value());
    total_hops += ctx->hops;
  }
  double avg = total_hops / lookups;
  double bound = std::ceil(std::log(n) / std::log(16.0));
  EXPECT_LT(avg, bound) << "paper: avg hops < ceil(log_16 N)";
  EXPECT_GT(avg, 0.5);  // sanity: routing does take hops
}

TEST(RoutingTest, StateSizeWithinPaperFormula) {
  const int n = 300;
  TestNet net(n, 13);
  PastryConfig config;
  const double log16_n = std::log(n) / std::log(16.0);
  const size_t max_rt = static_cast<size_t>(
      (config.cols() - 1) * std::ceil(log16_n) + 2 * config.cols());  // slack row
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    EXPECT_LE(node->routing_table().EntryCount(), max_rt);
    EXPECT_LE(node->leaf_set().size(), static_cast<size_t>(config.leaf_set_size));
    EXPECT_LE(node->neighborhood_set().size(),
              static_cast<size_t>(config.neighborhood_size));
    // Populated rows ~= log_16 N.
    EXPECT_LE(node->routing_table().PopulatedRows(),
              static_cast<int>(std::ceil(log16_n)) + 2);
  }
}

TEST(RoutingTest, LeafSetsMatchGlobalTruth) {
  const int n = 150;
  TestNet net(n, 17);
  std::vector<U128> ids;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    ids.push_back(net.overlay->node(i)->id());
  }
  std::sort(ids.begin(), ids.end());
  int total_missing = 0;
  for (size_t i = 0; i < net.overlay->size(); ++i) {
    PastryNode* node = net.overlay->node(i);
    size_t rank = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), node->id()) - ids.begin());
    int half = node->leaf_set().capacity_per_side();
    for (int s = 1; s <= half; ++s) {
      U128 successor = ids[(rank + static_cast<size_t>(s)) % ids.size()];
      if (!node->leaf_set().Contains(successor) && successor != node->id()) {
        ++total_missing;
      }
      U128 predecessor =
          ids[(rank + ids.size() - static_cast<size_t>(s)) % ids.size()];
      if (!node->leaf_set().Contains(predecessor) && predecessor != node->id()) {
        ++total_missing;
      }
    }
  }
  // Joins are driven to completion, so leaf sets should be essentially
  // perfect; allow a tiny slack for in-flight announcements.
  EXPECT_LE(total_missing, n / 30);
}

TEST(RoutingTest, RouteDistanceReasonableWithLocality) {
  // The locality heuristics should keep the traveled distance within a small
  // multiple of the direct proximity distance (paper: ~1.5x on average).
  const int n = 200;
  TestNet net(n, 19, /*locality=*/true);
  double ratio_sum = 0;
  int counted = 0;
  for (int i = 0; i < 200; ++i) {
    U128 key = net.overlay->RandomKey();
    PastryNode* src = net.overlay->RandomLiveNode();
    src->Route(key, 1, {});
    net.overlay->RunAll();
    for (auto& app : net.apps) {
      for (auto& ctx : app.delivered) {
        double direct =
            net.overlay->network().Proximity(ctx.path.front(), ctx.path.back());
        if (direct > 1.0 && ctx.hops >= 1) {
          ratio_sum += ctx.distance / direct;
          ++counted;
        }
      }
      app.delivered.clear();
    }
  }
  ASSERT_GT(counted, 50);
  double avg_ratio = ratio_sum / counted;
  EXPECT_LT(avg_ratio, 2.5) << "locality-aware routes should be short";
}

TEST(RoutingTest, RandomizedRoutingStillCorrect) {
  TestNet net(120, 23, /*locality=*/true, /*randomized=*/true);
  for (int i = 0; i < 100; ++i) {
    U128 key = net.overlay->RandomKey();
    PastryNode* expected = net.overlay->GloballyClosestLiveNode(key);
    auto ctx = net.RouteAndRun(key);
    ASSERT_TRUE(ctx.has_value());
    EXPECT_EQ(net.overlay->node(ctx->path.back())->id(), expected->id());
  }
}

TEST(RoutingTest, RandomizedRoutingTakesDiversePaths) {
  TestNet net(150, 29, true, /*randomized=*/true);
  U128 key = net.overlay->RandomKey();
  PastryNode* src = net.overlay->node(5);
  std::set<std::vector<NodeAddr>> paths;
  for (int i = 0; i < 30; ++i) {
    src->Route(key, 1, {});
    net.overlay->RunAll();
    for (auto& app : net.apps) {
      for (auto& ctx : app.delivered) {
        paths.insert(ctx.path);
      }
      app.delivered.clear();
    }
  }
  // With randomization on, repeated routes should not always take one path.
  EXPECT_GT(paths.size(), 1u);
}

TEST(RoutingTest, DeterministicRoutingTakesOnePath) {
  TestNet net(150, 29, true, /*randomized=*/false);
  U128 key = net.overlay->RandomKey();
  PastryNode* src = net.overlay->node(5);
  std::set<std::vector<NodeAddr>> paths;
  for (int i = 0; i < 10; ++i) {
    src->Route(key, 1, {});
    net.overlay->RunAll();
    for (auto& app : net.apps) {
      for (auto& ctx : app.delivered) {
        paths.insert(ctx.path);
      }
      app.delivered.clear();
    }
  }
  EXPECT_EQ(paths.size(), 1u);
}

// The tentpole observability invariant: every delivered message carries a
// route trace whose length equals its recorded hop count, with one record
// per forwarding decision (node, rule used, proximity distance).
TEST(RoutingTest, RouteTraceMatchesHopCountAndPath) {
  TestNet net(200, 43);
  for (int i = 0; i < 100; ++i) {
    U128 key = net.overlay->RandomKey();
    auto ctx = net.RouteAndRun(key);
    ASSERT_TRUE(ctx.has_value());
    ASSERT_EQ(ctx->trace.hops.size(), static_cast<size_t>(ctx->hops));
    // trace.hops[i] was recorded by path[i] when it chose the next hop.
    double distance_sum = 0;
    for (size_t h = 0; h < ctx->trace.hops.size(); ++h) {
      const RouteHop& hop = ctx->trace.hops[h];
      EXPECT_EQ(hop.node, ctx->path[h]);
      EXPECT_LT(static_cast<uint8_t>(hop.rule), kRouteRuleCount);
      EXPECT_GE(hop.distance, 0.0);
      distance_sum += hop.distance;
    }
    // Per-hop distances add up to the context's total traveled distance.
    EXPECT_NEAR(distance_sum, ctx->distance, 1e-6);
  }
}

TEST(RoutingTest, RouteRuleCountersMatchObservedTraces) {
  TestNet net(150, 47);
  MetricsRegistry& metrics = net.overlay->network().metrics();
  uint64_t rule_before[kRouteRuleCount];
  uint64_t traced[kRouteRuleCount] = {0, 0, 0, 0};
  for (uint8_t r = 0; r < kRouteRuleCount; ++r) {
    rule_before[r] = metrics
                         .GetCounter(std::string("pastry.route.rule.") +
                                     RouteRuleName(static_cast<RouteRule>(r)))
                         ->value();
  }
  const Histogram* hops_hist = metrics.FindHistogram("pastry.route.hops");
  ASSERT_NE(hops_hist, nullptr);
  uint64_t deliveries_before = hops_hist->count();

  const int lookups = 50;
  uint64_t total_hops = 0;
  for (int i = 0; i < lookups; ++i) {
    auto ctx = net.RouteAndRun(net.overlay->RandomKey());
    ASSERT_TRUE(ctx.has_value());
    total_hops += ctx->hops;
    for (const RouteHop& hop : ctx->trace.hops) {
      ++traced[static_cast<uint8_t>(hop.rule)];
    }
  }
  // Every delivery was observed into the hop histogram...
  EXPECT_EQ(hops_hist->count() - deliveries_before,
            static_cast<uint64_t>(lookups));
  // ...and the per-rule counters grew by at least what the traces recorded
  // (other traffic, e.g. join-protocol routing, may also have contributed).
  uint64_t counted = 0;
  for (uint8_t r = 0; r < kRouteRuleCount; ++r) {
    uint64_t delta = metrics
                         .GetCounter(std::string("pastry.route.rule.") +
                                     RouteRuleName(static_cast<RouteRule>(r)))
                         ->value() -
                     rule_before[r];
    EXPECT_GE(delta, traced[r]);
    counted += delta;
  }
  EXPECT_GE(counted, total_hops);
}

TEST(RoutingTest, PayloadSurvivesRouting) {
  TestNet net(60, 31);
  struct PayloadApp : public PastryApp {
    Bytes last;
    void Deliver(const DeliverContext&, const SharedBytes& payload) override {
      last.assign(payload.begin(), payload.end());
    }
  } payload_app;
  U128 key = net.overlay->RandomKey();
  PastryNode* target = net.overlay->GloballyClosestLiveNode(key);
  target->SetApp(&payload_app);
  Bytes payload = ToBytes("hello across the overlay");
  net.overlay->RandomLiveNode()->Route(key, 42, SharedBytes::Copy(payload));
  net.overlay->RunAll();
  EXPECT_EQ(payload_app.last, payload);
}

TEST(RoutingTest, ForwardHookCanAbsorbMessage) {
  TestNet net(80, 37);
  struct AbsorbApp : public PastryApp {
    int forwarded = 0;
    void Deliver(const DeliverContext&, const SharedBytes&) override {}
    bool Forward(const U128&, uint32_t, const NodeDescriptor&, SharedBytes*) override {
      ++forwarded;
      return false;  // absorb everything
    }
  } absorber;
  // Find a key whose route from src passes through an intermediate node.
  for (int attempt = 0; attempt < 50; ++attempt) {
    U128 key = net.overlay->RandomKey();
    PastryNode* src = net.overlay->RandomLiveNode();
    src->SetApp(&absorber);
    int before = absorber.forwarded;
    src->Route(key, 1, {});
    net.overlay->RunAll();
    if (absorber.forwarded > before) {
      // Absorbed at source: nothing must have been delivered anywhere.
      for (auto& app : net.apps) {
        EXPECT_TRUE(app.delivered.empty());
      }
      return;
    }
    src->SetApp(&net.apps[src->addr()]);
    for (auto& app : net.apps) {
      app.delivered.clear();
    }
  }
  FAIL() << "no multi-hop route found to exercise the forward hook";
}

TEST(RoutingTest, SendDirectReachesApp) {
  TestNet net(20, 41);
  struct DirectApp : public PastryApp {
    NodeDescriptor from;
    uint32_t type = 0;
    Bytes payload;
    void Deliver(const DeliverContext&, const SharedBytes&) override {}
    void ReceiveDirect(const NodeDescriptor& f, uint32_t t,
                       const SharedBytes& p) override {
      from = f;
      type = t;
      payload.assign(p.begin(), p.end());
    }
  } direct;
  PastryNode* a = net.overlay->node(3);
  PastryNode* b = net.overlay->node(9);
  b->SetApp(&direct);
  a->SendDirect(b->addr(), 1234, ToBytes("direct hello"));
  net.overlay->RunAll();
  EXPECT_EQ(direct.type, 1234u);
  EXPECT_EQ(direct.from.id, a->id());
  EXPECT_EQ(direct.payload, ToBytes("direct hello"));
}

}  // namespace
}  // namespace past
