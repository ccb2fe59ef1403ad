#include "src/sim/network.h"

#include <utility>

#include "src/common/check.h"

namespace past {

Network::Network(EventQueue* queue, Topology* topology, const NetworkConfig& config,
                 uint64_t seed)
    : queue_(queue), topology_(topology), config_(config), rng_(seed),
      wheel_(queue, config.timer_wheel_granularity) {
  PAST_CHECK(queue != nullptr && topology != nullptr);
  if (config_.expected_endpoints > 0) {
    ReserveEndpoints(config_.expected_endpoints);
  }
  sent_ = metrics_.GetCounter("net.sent");
  delivered_ = metrics_.GetCounter("net.delivered");
  dropped_loss_ = metrics_.GetCounter("net.dropped_loss");
  dropped_down_ = metrics_.GetCounter("net.dropped_down");
  dropped_oversize_ = metrics_.GetCounter("net.dropped_oversize");
  bytes_sent_ = metrics_.GetCounter("net.bytes_sent");
  self_sends_ = metrics_.GetCounter("net.self_sends");
  msg_bytes_ = metrics_.GetHistogram(
      "net.msg_bytes", {64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576});
  queue_depth_ = metrics_.GetGauge("sim.queue_depth");
  // Registry contract for downstream tooling (json_check, past_stats): every
  // experiment dump carries the end-to-end op-latency quantiles, even for
  // workloads that never issue the op (count 0, quantiles 0).
  metrics_.GetLogHistogram("past.insert.latency_us");
  metrics_.GetLogHistogram("past.lookup.latency_us");
  // Memory gauges, refreshed by Overlay::RecordMemoryMetrics; pre-registered
  // so every dump carries them even when no one measures.
  metrics_.GetGauge("sim.mem.bytes_per_node");
  metrics_.GetGauge("sim.mem.total_bytes");
#if defined(PAST_PROF)
  queue_->set_dispatch_prof(metrics_.GetLogHistogram("sim.dispatch_us"));
#endif
}

NodeAddr Network::Register(NetReceiver* receiver) {
  PAST_CHECK(receiver != nullptr);
  if (!free_endpoints_.empty()) {
    NodeAddr addr = free_endpoints_.back();
    free_endpoints_.pop_back();
    Endpoint& ep = endpoints_[addr];
    ep.receiver = receiver;
    ep.up = true;
    ep.in_use = true;
    // A recycled slot is a different physical host: give it a fresh position
    // (same RNG draws as AddHost, so churned and churn-free runs of equal
    // registration counts consume identical topology randomness).
    topology_->ResampleHost(ep.topo_index);
    return addr;
  }
  Endpoint ep;
  ep.receiver = receiver;
  ep.topo_index = topology_->AddHost();
  endpoints_.push_back(ep);
  return static_cast<NodeAddr>(endpoints_.size() - 1);
}

void Network::Unregister(NodeAddr addr) {
  PAST_CHECK(addr < endpoints_.size());
  Endpoint& ep = endpoints_[addr];
  PAST_CHECK_MSG(ep.in_use, "double Unregister of an endpoint");
  ep.receiver = nullptr;
  ep.up = false;
  ep.in_use = false;
  ++ep.epoch;  // orphan in-flight deliveries addressed to the old tenant
  free_endpoints_.push_back(addr);
}

void Network::ReserveEndpoints(size_t n) {
  endpoints_.reserve(n);
  topology_->Reserve(n);
}

void Network::SetUp(NodeAddr addr, bool up) {
  PAST_CHECK(addr < endpoints_.size());
  endpoints_[addr].up = up;
}

bool Network::IsUp(NodeAddr addr) const {
  PAST_CHECK(addr < endpoints_.size());
  return endpoints_[addr].up;
}

SimTime Network::SampleLatency(NodeAddr from, NodeAddr to) {
  double dist_term = Proximity(from, to) * config_.latency_per_unit;
  if (config_.jitter_frac > 0.0) {
    double jitter = (rng_.UniformDouble() * 2.0 - 1.0) * config_.jitter_frac;
    dist_term *= (1.0 + jitter);
  }
  SimTime latency = config_.base_latency + static_cast<SimTime>(dist_term);
  return latency < 1 ? 1 : latency;
}

void Network::SampleQueueDepth() {
  // Logical depth: every wheel timer counts as one pending event and the
  // armed per-bucket dispatch events are subtracted, so the gauge reads the
  // same at every wheel granularity.
  size_t depth = queue_->PendingCount() - wheel_.ArmedBuckets() + wheel_.PendingCount();
  queue_depth_->Set(static_cast<double>(depth));
}

void Network::Send(NodeAddr from, NodeAddr to, SharedBytes wire) {
  PAST_CHECK(from < endpoints_.size() && to < endpoints_.size());
  sent_->Inc();
  bytes_sent_->Inc(wire.size());
  msg_bytes_->Observe(static_cast<double>(wire.size()));
  if (++sends_since_depth_sample_ >= kQueueDepthSampleInterval) {
    sends_since_depth_sample_ = 0;
    SampleQueueDepth();
  }
  if (wire.size() > config_.max_message_bytes) {
    // Mirrors the socket backend's frame-size cap so the Transport
    // conformance suite can exercise oversize rejection on both backends.
    // Checked before any RNG draw: with the default (unlimited) cap the
    // branch never fires and the latency/loss stream is untouched.
    dropped_oversize_->Inc();
    return;
  }
  SimTime latency;
  if (to == from) {
    // Loopback: zero distance, so no proximity lookup, no jitter draw, and no
    // loss — the message never touches the wire. Keeping the RNG untouched
    // means loopback traffic cannot perturb the latency/loss stream of real
    // sends.
    self_sends_->Inc();
    latency = config_.base_latency < 1 ? 1 : config_.base_latency;
  } else {
    if (config_.loss_rate > 0.0 && rng_.Bernoulli(config_.loss_rate)) {
      dropped_loss_->Inc();
      return;
    }
    latency = SampleLatency(from, to);
  }
  // Zero-copy: the closure holds a refcounted handle onto the caller's
  // buffer. EventFn stores move-only callables inline, so neither the
  // payload nor the closure is heap-allocated here.
  uint32_t to_epoch = endpoints_[to].epoch;
  auto deliver = [this, from, to, to_epoch, wire = std::move(wire)] {
    Endpoint& dest = endpoints_[to];
    if (!dest.up || dest.epoch != to_epoch) {
      // Down, or the slot was re-let to a new tenant after this message left.
      dropped_down_->Inc();
      return;
    }
    delivered_->Inc();
    dest.receiver->OnMessage(from, wire.span());
  };
  static_assert(sizeof(deliver) <= EventFn::kInlineSize,
                "the delivery closure must fit EventFn's inline storage");
  queue_->After(latency, std::move(deliver));
}

size_t Network::EndpointMemoryUsage() const {
  return endpoints_.capacity() * sizeof(Endpoint) +
         free_endpoints_.capacity() * sizeof(NodeAddr) + wheel_.MemoryUsage();
}

Network::Stats Network::stats() const {
  Stats s;
  s.sent = sent_->value();
  s.delivered = delivered_->value();
  s.dropped_loss = dropped_loss_->value();
  s.dropped_down = dropped_down_->value();
  s.dropped_oversize = dropped_oversize_->value();
  s.bytes_sent = bytes_sent_->value();
  s.self_sends = self_sends_->value();
  return s;
}

void Network::ResetStats() {
  sent_->Reset();
  delivered_->Reset();
  dropped_loss_->Reset();
  dropped_down_->Reset();
  dropped_oversize_->Reset();
  bytes_sent_->Reset();
  self_sends_->Reset();
  msg_bytes_->Reset();
}

double Network::Proximity(NodeAddr a, NodeAddr b) const {
  PAST_CHECK(a < endpoints_.size() && b < endpoints_.size());
  return topology_->Distance(endpoints_[a].topo_index, endpoints_[b].topo_index);
}

}  // namespace past
