// Loopback workloads: eight full PAST stacks (SocketTransport + PastryNode +
// PastNode) in this process, talking over real loopback UDP/TCP with
// disk-backed state. One thread polls every stack in turn and drives the
// client API between polls, so no op pays for a connection or a wakeup in
// another process.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/decorators.h"
#include "src/storage/past_node.h"
#include "src/storage/smartcard.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using past::Bytes;
using past::FileId;
using past::PastNode;
using past::StatusCode;

struct Spec {
  uint64_t min_size;
  uint64_t max_size;
  bool log_uniform_sizes;
  double insert_share;
  double lookup_share;  // the rest are reclaims
  bool zipf_lookups;    // Zipf(0.8) over live files; otherwise uniform
  // Issue each lookup from a node holding neither a replica nor a cached
  // copy, so that it crosses the network.
  bool lookup_from_non_holder;
  uint64_t capacity;      // contributed storage per node
  double preload_fill;    // share of all contributed space the preload fills
  size_t preload_files;   // used when preload_fill is 0
  // Ops per epoch (epochs also end after kEpochCap): bounds how far an
  // epoch's net inserts raise the fill, whatever the machine's speed.
  int epoch_ops;
};

constexpr int kNoOpCap = std::numeric_limits<int>::max();

// small_hot: per-message costs (RSA, codec, syscalls) dominate; every node's
// cache (the free part of its 48 MiB) can hold the whole working set. Fill
// stays low, so its epochs end on time alone.
constexpr Spec kSmallHot = {1 << 10, 16 << 10, false, 0.25, 0.65,
                            true, false, 48ULL << 20, 0.0, 512, kNoOpCap};
// bulk_cold: per-byte costs (SHA-256, TCP frames, disk append, RAM mirror)
// dominate. The preload fills 60% of contributed space, so each node's free
// space (its cache) is about a quarter of the lookup set; an epoch's net
// inserts add about 6% more, well short of where PAST starts refusing
// megabyte files.
constexpr Spec kBulkCold = {64 << 10, 1 << 20, true, 0.30, 0.60,
                            false, true, 80ULL << 20, 0.6, 0, 200};

constexpr int kNodes = 8;
constexpr uint64_t kBrokerSeed = 7;  // one broker key for the whole cluster
constexpr uint64_t kQuota = 1ULL << 40;
constexpr int kSetupRepeats = 5;
constexpr int kReclaimProbes = 8;
constexpr double kZipfExponent = 0.8;
constexpr size_t kPoolBytes = 32u << 20;
constexpr int64_t kSecond = 1'000'000'000;
constexpr int64_t kEpochCap = 2 * kSecond;

// Every file's bytes are a slice of one pool generated before timing,
// stamped with the file's index so that no two files share contents.
class ContentPool {
 public:
  ContentPool(uint64_t seed, size_t bytes) : pool_(bytes) {
    past::Rng rng(seed ^ 0xc0a7e47ULL);
    for (size_t i = 0; i + 8 <= pool_.size(); i += 8) {
      const uint64_t v = rng.NextU64();
      std::memcpy(&pool_[i], &v, 8);
    }
  }
  size_t size() const { return pool_.size(); }

  Bytes Make(uint64_t index, uint64_t offset, uint64_t size) const {
    Bytes out(pool_.begin() + static_cast<ptrdiff_t>(offset),
              pool_.begin() + static_cast<ptrdiff_t>(offset + size));
    std::memcpy(out.data(), &index, std::min<uint64_t>(8, size));
    return out;
  }
  bool Matches(uint64_t index, uint64_t offset, uint64_t size, const Bytes& got) const {
    if (got.size() != size) {
      return false;
    }
    const size_t head = std::min<uint64_t>(8, size);
    return std::memcmp(got.data(), &index, head) == 0 &&
           std::memcmp(got.data() + head, &pool_[offset + head], size - head) == 0;
  }
  const uint8_t* data() const { return pool_.data(); }

 private:
  Bytes pool_;
};

// One node, declared so that members are destroyed top-down: the PastNode
// first, the Env its store writes through last.
struct Stack {
  std::unique_ptr<TimedEnv> env;
  std::unique_ptr<past::SocketTransport> sock;
  std::unique_ptr<TimedTransport> net;
  std::unique_ptr<past::PastryNode> overlay;
  std::unique_ptr<PastNode> node;
};

class Cluster {
 public:
  Cluster(std::string state_dir, uint64_t capacity, SpanLog* spans)
      : state_dir_(std::move(state_dir)), capacity_(capacity), spans_(spans) {}

  ~Cluster() {
    // Tear down nodes before transports (PastNode cancels timers on them).
    for (auto& s : stacks_) {
      s.node.reset();
      s.overlay.reset();
    }
  }

  // Opens every stack on an ephemeral port, configured as `past_cli daemon`
  // configures a node, joins them one by one through node 0, and waits until
  // every node is active, every leaf set holds all other nodes, and every
  // node has run the replica-maintenance pass its last leaf-set change
  // scheduled. (Left pending, that pass would fire under load and send one
  // ReplicaNotify per stored file at once — enough to overflow loopback UDP
  // receive buffers.)
  bool Form(int64_t deadline, std::string* error) {
    past::Broker broker(kBrokerSeed);
    stacks_.resize(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      Stack& s = stacks_[static_cast<size_t>(i)];
      const uint64_t node_seed = static_cast<uint64_t>(i + 1);
      s.env = std::make_unique<TimedEnv>(past::Env::Default(), spans_);
      s.sock = std::make_unique<past::SocketTransport>();
      if (s.sock->Open() != StatusCode::kOk) {
        *error = "cannot open a loopback socket";
        return false;
      }
      s.net = std::make_unique<TimedTransport>(s.sock.get(), spans_);
      s.sock->tracer().Enable();  // only until the cluster has settled
      auto card = broker.IssueCardWithSeed(node_seed, kQuota, capacity_);
      if (!card.ok()) {
        *error = "broker refused a card";
        return false;
      }
      past::PastryConfig pastry;
      pastry.keep_alive_period = 1 * past::kMicrosPerSecond;
      pastry.failure_timeout = 3 * past::kMicrosPerSecond;
      pastry.death_quarantine = 6 * past::kMicrosPerSecond;
      s.overlay = std::make_unique<past::PastryNode>(
          s.net.get(), card.value()->DerivedNodeId(), pastry, node_seed);
      past::PastConfig config;
      config.default_replication = 3;
      config.state_dir = state_dir_;
      config.request_timeout = 10 * past::kMicrosPerSecond;
      config.disk.env = s.env.get();
      s.node = std::make_unique<PastNode>(s.overlay.get(), std::move(card).value(), config,
                                          node_seed ^ 0x5eed);
    }
    stacks_[0].overlay->Bootstrap();
    const past::NodeAddr bootstrap = past::MakeSockAddr(0, stacks_[0].sock->port());
    for (int i = 1; i < kNodes; ++i) {
      stacks_[static_cast<size_t>(i)].overlay->Join(bootstrap);
      while (!stacks_[static_cast<size_t>(i)].overlay->active()) {
        if (NowNs() > deadline) {
          *error = "node " + std::to_string(i) + " never became active";
          return false;
        }
        Pump();
      }
    }
    while (!Ready()) {
      if (NowNs() > deadline) {
        *error = "leaf sets never filled";
        return false;
      }
      Pump();
    }
    for (Stack& s : stacks_) {
      s.sock->tracer().Clear();
    }
    while (!Settled()) {
      if (NowNs() > deadline) {
        *error = "post-join maintenance never ran";
        return false;
      }
      Pump();
    }
    for (Stack& s : stacks_) {
      s.sock->tracer().Enable(false);
      s.sock->tracer().Clear();
    }
    return true;
  }

  // Every node has recorded a maintenance pass since its tracer was cleared.
  bool Settled() const {
    for (const Stack& s : stacks_) {
      const auto& spans = s.sock->tracer().spans();
      if (std::none_of(spans.begin(), spans.end(),
                       [](const past::Span& span) { return span.name == "past.maintenance"; })) {
        return false;
      }
    }
    return true;
  }

  bool Ready() const {
    for (const Stack& s : stacks_) {
      if (!s.overlay->active() ||
          s.overlay->leaf_set().Members().size() != static_cast<size_t>(kNodes - 1)) {
        return false;
      }
    }
    return true;
  }

  void Pump() {
    for (Stack& s : stacks_) {
      (void)s.net->PollOnce(0);
    }
  }

  int size() const { return static_cast<int>(stacks_.size()); }
  Stack& at(int i) { return stacks_[static_cast<size_t>(i)]; }
  PastNode* node(int i) { return stacks_[static_cast<size_t>(i)].node.get(); }

  uint64_t Sum(const char* counter) const {
    uint64_t total = 0;
    for (const Stack& s : stacks_) {
      if (const past::Counter* c = s.sock->metrics().FindCounter(counter)) {
        total += c->value();
      }
    }
    return total;
  }
  // (sum, count) of a histogram across nodes.
  std::pair<double, double> HistogramSum(const char* name) const {
    double sum = 0, count = 0;
    for (const Stack& s : stacks_) {
      if (const past::Histogram* h = s.sock->metrics().FindHistogram(name)) {
        sum += h->sum();
        count += static_cast<double>(h->count());
      }
    }
    return {sum, count};
  }

 private:
  std::string state_dir_;
  uint64_t capacity_;
  SpanLog* spans_;
  std::vector<Stack> stacks_;
};

enum class OpKind { kInsert, kLookup, kReclaim };

struct FileRec {
  FileId id;
  int owner = 0;
  uint64_t index = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t lookup_clients = 0;  // bitmask of nodes with a lookup of it in flight
  bool reclaiming = false;
  size_t live_pos = 0;
};

// Per-phase op accounting.
struct PhaseStats {
  Samples insert_us, lookup_us, reclaim_us;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  int64_t last_completion = 0;
  uint64_t completed_traced = 0;  // completions inside traced windows
  uint64_t completed_untraced = 0;
  uint64_t inserts_traced = 0;
  uint64_t inserted_bytes = 0;  // user bytes of successful inserts
  double traced_s = 0;          // wall time of traced / untraced windows
  double untraced_s = 0;
};

// The closed-loop load generator.
class Generator {
 public:
  Generator(Cluster* cluster, const Spec& spec, const ContentPool* pool, uint64_t seed,
            SpanLog* spans, Report* report)
      : cluster_(cluster), spec_(spec), pool_(pool), rng_(seed), spans_(spans),
        report_(report) {}

  int outstanding() const { return outstanding_; }
  uint64_t live_bytes() const { return live_bytes_; }
  size_t live_files() const { return live_.size(); }
  PhaseStats& stats() { return stats_; }
  void set_recording(bool on) { recording_ = on; }
  void set_traced_window(bool on) { traced_window_ = on; }

  // Sizes follow a golden-ratio sequence from a seeded start, so every
  // stretch of inserts has nearly the exact size mix: seeds change which
  // file gets which size, not how many bytes a run moves.
  uint64_t NextSize() {
    size_phase_ = std::fmod(size_phase_ + 0.6180339887498949, 1.0);
    if (spec_.log_uniform_sizes) {
      const double lo = std::log(static_cast<double>(spec_.min_size));
      const double hi = std::log(static_cast<double>(spec_.max_size));
      return static_cast<uint64_t>(std::exp(lo + (hi - lo) * size_phase_));
    }
    return spec_.min_size +
           static_cast<uint64_t>(size_phase_ * static_cast<double>(spec_.max_size - spec_.min_size));
  }

  // Returns the new file's size.
  uint64_t IssueInsert() {
    uint64_t index, offset, size;
    int client;
    Bytes content;
    {
      SpanLog::Scope gen(spans_, Layer::kHarnessGen);
      index = next_index_++;
      size = NextSize();
      offset = rng_.UniformU64(pool_->size() - size + 1);
      client = static_cast<int>(rng_.UniformU64(kNodes));
      content = pool_->Make(index, offset, size);
    }
    const bool record = recording_;
    ++outstanding_;
    if (record) {
      ++stats_.issued;
    }
    const int64_t t0 = NowNs();
    SpanLog::Scope issue(spans_, Layer::kStorageIssue, index);
    cluster_->node(client)->Insert(
        "pb-" + std::to_string(index), std::move(content), 0,
        [this, index, offset, size, client, t0, record](past::Result<FileId> r) {
          const int64_t t1 = NowNs();
          SpanLog::Scope check(spans_, Layer::kHarnessCheck, index);
          Complete(OpKind::kInsert, record, t0, t1, r.status(), size);
          if (!r.ok()) {
            return;
          }
          FileRec rec;
          rec.id = r.value();
          rec.owner = client;
          rec.index = index;
          rec.offset = offset;
          rec.size = size;
          rec.live_pos = live_.size();
          live_.push_back(files_.size());
          files_.push_back(rec);
          live_bytes_ += size;
        });
    return size;
  }

  // Picks a live file eligible for lookup (no reclaim in flight) and a client
  // with no lookup of it in flight; false when none was found.
  bool PickLookup(size_t* file, int* client) {
    for (int attempt = 0; attempt < 8 && !live_.empty(); ++attempt) {
      const size_t n = live_.size();
      size_t pos;
      if (spec_.zipf_lookups) {
        // Continuous inverse-CDF approximation of Zipf(s) over ranks 1..n.
        const double s = kZipfExponent;
        const double u = rng_.UniformDouble();
        const double x =
            std::pow((std::pow(static_cast<double>(n), 1 - s) - 1) * u + 1, 1 / (1 - s));
        pos = std::min(n - 1, static_cast<size_t>(x) - 1);
      } else {
        pos = rng_.UniformU64(n);
      }
      FileRec& rec = files_[live_[pos]];
      if (rec.reclaiming) {
        continue;
      }
      int candidates[kNodes];
      int count = 0;
      for (int i = 0; i < kNodes; ++i) {
        if ((rec.lookup_clients & (1u << i)) != 0) {
          continue;
        }
        if (spec_.lookup_from_non_holder && (cluster_->node(i)->store().Has(rec.id) ||
                                             cluster_->node(i)->file_cache().Contains(rec.id))) {
          continue;
        }
        candidates[count++] = i;
      }
      if (count == 0) {
        continue;
      }
      *file = live_[pos];
      *client = candidates[rng_.UniformU64(static_cast<uint64_t>(count))];
      return true;
    }
    return false;
  }

  void IssueLookup(size_t file, int client) {
    FileRec& rec = files_[file];
    rec.lookup_clients |= 1u << client;
    const bool record = recording_;
    ++outstanding_;
    if (record) {
      ++stats_.issued;
    }
    const uint64_t op = rec.index;
    const int64_t t0 = NowNs();
    SpanLog::Scope issue(spans_, Layer::kStorageIssue, op);
    cluster_->node(client)->Lookup(
        rec.id, [this, file, client, t0, record, op](past::Result<PastNode::LookupOutcome> r) {
          const int64_t t1 = NowNs();
          SpanLog::Scope check(spans_, Layer::kHarnessCheck, op);
          FileRec& f = files_[file];
          f.lookup_clients &= ~(1u << client);
          if (r.ok() && !pool_->Matches(f.index, f.offset, f.size, r.value().content)) {
            report_->Fail("lookup of file " + std::to_string(f.index) +
                          " returned bytes that differ from the inserted ones");
          }
          Complete(OpKind::kLookup, record, t0, t1, r.status(), 0);
        });
  }

  // A live file with neither a lookup nor a reclaim in flight.
  bool PickReclaim(size_t* file) {
    for (int attempt = 0; attempt < 8 && !live_.empty(); ++attempt) {
      const size_t idx = live_[rng_.UniformU64(live_.size())];
      if (files_[idx].lookup_clients == 0 && !files_[idx].reclaiming) {
        *file = idx;
        return true;
      }
    }
    return false;
  }

  void IssueReclaim(size_t file, std::vector<size_t>* reclaimed = nullptr) {
    FileRec& rec = files_[file];
    rec.reclaiming = true;
    const bool record = recording_;
    ++outstanding_;
    if (record) {
      ++stats_.issued;
    }
    const uint64_t op = rec.index;
    const int64_t t0 = NowNs();
    SpanLog::Scope issue(spans_, Layer::kStorageIssue, op);
    cluster_->node(rec.owner)->Reclaim(
        rec.id, [this, file, t0, record, op, reclaimed](StatusCode code) {
          const int64_t t1 = NowNs();
          SpanLog::Scope check(spans_, Layer::kHarnessCheck, op);
          Complete(OpKind::kReclaim, record, t0, t1, code, 0);
          // A failed reclaim leaves the file's state unknown: retire it either way.
          RemoveLive(file);
          if (code == StatusCode::kOk && reclaimed != nullptr) {
            reclaimed->push_back(file);
          }
        });
  }

  // One op of the workload's mix.
  void IssueNext() {
    double u;
    size_t file = 0;
    int client = 0;
    bool lookup = false, reclaim = false;
    {
      SpanLog::Scope gen(spans_, Layer::kHarnessGen);
      u = rng_.UniformDouble();
      if (u >= spec_.insert_share) {
        if (u < spec_.insert_share + spec_.lookup_share) {
          lookup = PickLookup(&file, &client);
        } else {
          reclaim = PickReclaim(&file);
        }
      }
    }
    if (lookup) {
      IssueLookup(file, client);
    } else if (reclaim) {
      IssueReclaim(file);
    } else {
      // Inserts, plus the rare lookup/reclaim that found no eligible file.
      IssueInsert();
    }
  }

  const FileRec& file(size_t i) const { return files_[i]; }
  // Failed ops by "kind:status", timed or not.
  const std::map<std::string, uint64_t>& failures() const { return failures_; }

 private:
  void Complete(OpKind kind, bool record, int64_t t0, int64_t t1, StatusCode status,
                uint64_t inserted_bytes) {
    --outstanding_;
    const bool ok = status == StatusCode::kOk;
    if (!ok) {
      static const char* const kKinds[] = {"insert", "lookup", "reclaim"};
      failures_[std::string(kKinds[static_cast<int>(kind)]) + ":" +
                past::StatusCodeName(status) + (record ? "" : " (untimed)")]++;
    }
    if (!record) {
      return;
    }
    ++stats_.completed;
    stats_.last_completion = t1;
    (traced_window_ ? stats_.completed_traced : stats_.completed_untraced)++;
    if (!ok) {
      ++stats_.failed;
      return;
    }
    if (kind == OpKind::kInsert) {
      stats_.inserted_bytes += inserted_bytes;
      stats_.inserts_traced += traced_window_ ? 1 : 0;
    }
    const double us = static_cast<double>(t1 - t0) / 1e3;
    (kind == OpKind::kInsert   ? stats_.insert_us
     : kind == OpKind::kLookup ? stats_.lookup_us
                               : stats_.reclaim_us)
        .Add(us);
  }

  void RemoveLive(size_t file) {
    FileRec& rec = files_[file];
    const size_t pos = rec.live_pos;
    live_[pos] = live_.back();
    files_[live_[pos]].live_pos = pos;
    live_.pop_back();
    live_bytes_ -= rec.size;
  }

  Cluster* cluster_;
  const Spec& spec_;
  const ContentPool* pool_;
  past::Rng rng_;
  SpanLog* spans_;
  Report* report_;
  std::vector<FileRec> files_;
  std::vector<size_t> live_;  // indices into files_
  uint64_t live_bytes_ = 0;
  uint64_t next_index_ = 0;
  double size_phase_ = rng_.UniformDouble();
  int outstanding_ = 0;
  bool recording_ = false;
  bool traced_window_ = false;
  PhaseStats stats_;
  std::map<std::string, uint64_t> failures_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

// Registry counters the run reads (summed over nodes).
constexpr const char* kCounters[] = {
    "net.sock.udp_tx",       "net.sock.tcp_tx",          "net.sock.bytes_tx",
    "net.sock.dropped_oversize", "net.sock.dropped_backpressure", "net.sock.dropped_decode",
    "net.sock.dropped_misaddressed", "net.sock.dropped_down", "pastry.msgs_sent",
    "pastry.maintenance_msgs_sent", "pastry.reroutes", "crypto.verify_total",
    "crypto.verify_cache_hit", "crypto.verify_cache_miss", "past.lookups_served_cache",
    "past.lookups_served_store", "past.store_rejects", "past.replicas_stored",
    "past.diverted_accepted", "disk.compactions",
};

// Registry counters, the decorators' counts ("env.*", "net.sends",
// "net.frame_bytes") and the route-hop histogram, now.
Counts Snapshot(Cluster& cluster) {
  Counts c;
  for (const char* name : kCounters) {
    c[name] = static_cast<double>(cluster.Sum(name));
  }
  for (int i = 0; i < cluster.size(); ++i) {
    const Stack& s = cluster.at(i);
    c["env.appended"] += static_cast<double>(s.env->appended_bytes());
    c["env.syncs"] += static_cast<double>(s.env->syncs());
    c["env.reads"] += static_cast<double>(s.env->reads());
    c["net.sends"] += static_cast<double>(s.net->remote_sends());
    c["net.frame_bytes"] += static_cast<double>(s.net->remote_frame_bytes());
  }
  std::tie(c["hops.sum"], c["hops.count"]) = cluster.HistogramSum("pastry.route.hops");
  return c;
}

// Empty when every node's decorators agree with the layers they wrap: the
// Transport decorator's sends and framed bytes with SocketTransport's own
// net.sock.* counters, the Env decorator's appended bytes with
// disk.bytes_written.
std::string DecoratorMismatch(Cluster& cluster) {
  for (int i = 0; i < cluster.size(); ++i) {
    Stack& s = cluster.at(i);
    const past::MetricsRegistry& m = s.sock->metrics();
    auto count = [&m](const char* name) {
      const past::Counter* c = m.FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    const uint64_t send_drops = count("net.sock.dropped_oversize") +
                                count("net.sock.dropped_backpressure") +
                                count("net.sock.dropped_misaddressed") +
                                count("net.sock.dropped_down");
    const uint64_t sock_sends = count("net.sock.udp_tx") + count("net.sock.tcp_tx") + send_drops;
    const std::string node = "node " + std::to_string(i) + ": ";
    if (s.net->remote_sends() != sock_sends) {
      return node + "decorator saw " + std::to_string(s.net->remote_sends()) +
             " sends, socket counted " + std::to_string(sock_sends);
    }
    // A dropped frame or connection never reaches bytes_tx.
    if (send_drops == 0 && count("net.sock.conns_dropped") == 0 &&
        s.net->remote_frame_bytes() != count("net.sock.bytes_tx")) {
      return node + "decorator saw " + std::to_string(s.net->remote_frame_bytes()) +
             " wire bytes, socket wrote " + std::to_string(count("net.sock.bytes_tx"));
    }
    if (s.env->appended_bytes() != count("disk.bytes_written")) {
      return node + "env appended " + std::to_string(s.env->appended_bytes()) +
             " bytes, disk.bytes_written " + std::to_string(count("disk.bytes_written"));
    }
  }
  return "";
}

}  // namespace

Report RunLoopback(const RunOptions& options) {
  const Spec& spec = options.workload == "small_hot" ? kSmallHot : kBulkCold;
  Report report;
  report.workload = options.workload;
  report.seed = options.seed;

  // Wall-clock marks of the run's phases, reported as a note.
  std::string phases = "wall s:";
  int64_t mark = NowNs();
  auto phase_done = [&](const char* name) {
    const int64_t now = NowNs();
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %s %.2f", name, static_cast<double>(now - mark) / 1e9);
    phases += buf;
    mark = now;
  };
  ScratchDir scratch(options.work_dir);
  const std::string state_dir = scratch.path() + "/state";
  AddFingerprint(&report, scratch.path());
  phase_done("fingerprint");
  report.environment.emplace_back(
      "flush_policy", "sync_every=0: fsync only on segment seal; receipts are not durable");
  report.environment.emplace_back("transport", "loopback UDP (<=1200 B) + TCP, one process");

  SpanLog spans;
  const ContentPool pool(options.seed, kPoolBytes);
  const uint64_t rss_base = RssBytes();

  // Set-up: form the cluster several times and report the median; the last
  // formation carries the run.
  Samples setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cluster.reset();
    scratch.Reset();
    std::string error;
    const int64_t t0 = NowNs();
    cluster = std::make_unique<Cluster>(state_dir, spec.capacity, &spans);
    if (!cluster->Form(t0 + 30 * kSecond, &error)) {
      report.Fail("cluster formation: " + error);
      report.Print();
      return report;
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  phase_done("set-up");
  Generator gen(cluster.get(), spec, &pool, options.seed, &spans, &report);
  auto drive_until = [&](auto&& done, int64_t deadline) {
    while (!done()) {
      if (NowNs() > deadline) {
        return false;
      }
      cluster->Pump();
    }
    return true;
  };
  auto drain = [&](const char* what) {
    if (!drive_until([&] { return gen.outstanding() == 0; }, NowNs() + 30 * kSecond)) {
      report.Fail(std::string(what) + " did not finish");
    }
  };

  // Preload (untimed): fill to the workload's level with the same closed loop.
  const int64_t preload_start = NowNs();
  const uint64_t preload_target =
      static_cast<uint64_t>(spec.preload_fill * static_cast<double>(spec.capacity) * kNodes / 3.0);
  uint64_t preload_bytes = 0;
  size_t preload_files = 0;
  auto preload_more = [&] {
    return spec.preload_fill > 0 ? preload_bytes < preload_target
                                 : preload_files < spec.preload_files;
  };
  while (preload_more()) {
    while (gen.outstanding() < kOutstanding && preload_more()) {
      preload_bytes += gen.IssueInsert();
      ++preload_files;
    }
    cluster->Pump();
  }
  drain("preload");

  // Reclaim probes: reclaim a few preloaded files, then look each up from a
  // node holding neither a replica nor a cached copy. Every such lookup must
  // fail; it does so by timing out (request_timeout) while the run goes on.
  std::vector<size_t> reclaimed;
  for (int i = 0; i < kReclaimProbes; ++i) {
    size_t file;
    if (gen.PickReclaim(&file)) {
      gen.IssueReclaim(file, &reclaimed);
    }
  }
  drain("probe reclaims");
  const double preload_s = static_cast<double>(NowNs() - preload_start) / 1e9;
  // Probe only once no node stores a replica of any reclaimed file.
  auto replicas_gone = [&] {
    for (size_t file : reclaimed) {
      for (int i = 0; i < kNodes; ++i) {
        if (cluster->node(i)->store().Has(gen.file(file).id)) {
          return false;
        }
      }
    }
    return true;
  };
  if (!drive_until(replicas_gone, NowNs() + 10 * kSecond)) {
    report.Fail("reclaimed files kept replicas for 10 s");
  }
  int probes_pending = 0;
  int probes_served = 0;
  for (size_t file : reclaimed) {
    const FileRec& rec = gen.file(file);
    int client = -1;
    for (int i = 0; i < kNodes && client < 0; ++i) {
      PastNode* n = cluster->node(i);
      if (!n->store().Has(rec.id) && !n->file_cache().Contains(rec.id)) {
        client = i;
      }
    }
    if (client < 0) {
      report.Fail("reclaimed file " + std::to_string(rec.index) + " is still held by every node");
      continue;
    }
    ++probes_pending;
    cluster->node(client)->Lookup(
        rec.id, [&probes_pending, &probes_served](past::Result<PastNode::LookupOutcome> r) {
          --probes_pending;
          probes_served += r.ok() ? 1 : 0;
        });
  }

  // The load runs in epochs of spec.epoch_ops ops or kEpochCap, whichever
  // ends first. Between epochs, untimed
  // reclaims bring the live bytes back to where the preload left them, so
  // every epoch sees the same fill level and memory stays bounded however
  // long the run. Each epoch's clock runs from its first issue to its last
  // completion.
  const uint64_t steady_bytes = gen.live_bytes();
  auto rebalance = [&] {
    uint64_t reclaiming = 0;
    const int64_t deadline = NowNs() + 30 * kSecond;
    while (gen.live_bytes() > steady_bytes && gen.live_bytes() - steady_bytes > reclaiming &&
           NowNs() < deadline) {
      size_t file;
      if (gen.outstanding() >= kOutstanding || !gen.PickReclaim(&file)) {
        cluster->Pump();
        continue;
      }
      reclaiming += gen.file(file).size;
      gen.IssueReclaim(file);
    }
    drain("rebalancing reclaims");
  };
  auto run_epoch = [&](int64_t time_cap) {
    const int64_t start = NowNs();
    for (int issued = 0; issued < spec.epoch_ops && NowNs() < start + time_cap;) {
      for (; gen.outstanding() < kOutstanding && issued < spec.epoch_ops; ++issued) {
        gen.IssueNext();
      }
      cluster->Pump();
    }
    drain("epoch ops");
    return static_cast<double>(std::max(gen.stats().last_completion, start) - start) / 1e9;
  };
  phase_done("preload+probes");
  run_epoch(kSecond);  // warm-up
  rebalance();
  phase_done("warm-up");

  Counts totals;
  double timed_s = 0;
  const uint64_t kernel_drops_before = UdpRcvbufErrors();
  PhaseStats& st = gen.stats();
  for (int epoch = 0; timed_s < options.seconds; ++epoch) {
    // A traced run alternates traced and untraced epochs, so it also
    // measures its own overhead.
    const bool traced = options.trace && epoch % 2 == 1;
    spans.SetEnabled(traced);
    gen.set_traced_window(traced);
    gen.set_recording(true);
    const Counts before = Snapshot(*cluster);
    const double s = run_epoch(std::min<int64_t>(
        kEpochCap, static_cast<int64_t>((options.seconds - timed_s) * 1e9) + 1));
    for (const auto& [name, value] : Snapshot(*cluster)) {
      totals[name] += value - before.at(name);
    }
    gen.set_recording(false);
    spans.SetEnabled(false);
    gen.set_traced_window(false);
    timed_s += s;
    (traced ? st.traced_s : st.untraced_s) += s;
    rebalance();
  }
  // The kernel's receive-buffer drops happen after SocketTransport counted
  // a send and before it could count a receive; this process is the
  // namespace's only UDP user while it runs.
  const double kernel_drops = static_cast<double>(UdpRcvbufErrors() - kernel_drops_before);
  phase_done("epochs");
  const uint64_t live_bytes = gen.live_bytes();
  const double rss_growth = static_cast<double>(RssBytes()) - static_cast<double>(rss_base);
  const uint64_t disk_bytes = DirBytes(state_dir);

  if (!drive_until([&] { return probes_pending == 0; }, NowNs() + 15 * kSecond)) {
    report.Fail("reclaim probes never resolved");
  }
  if (probes_served > 0) {
    report.Fail(std::to_string(probes_served) + " of " + std::to_string(reclaimed.size()) +
                " lookups of reclaimed files succeeded");
  }
  // Sends are counted synchronously on both sides of the decorator; TCP
  // bytes reach net.sock.bytes_tx only once written, so poll until the
  // queues drain.
  std::string mismatch = DecoratorMismatch(*cluster);
  for (const int64_t deadline = NowNs() + 5 * kSecond; !mismatch.empty() && NowNs() < deadline;
       mismatch = DecoratorMismatch(*cluster)) {
    cluster->Pump();
  }
  if (!mismatch.empty()) {
    report.Fail("decorator self-check: " + mismatch);
  }
  phase_done("checks");
  report.notes.push_back(phases);
  for (const auto& [what, count] : gen.failures()) {
    report.notes.push_back("failed op " + what + " x" + std::to_string(count));
    if (what.find("(untimed)") != std::string::npos) {
      report.Fail("untimed set-up ops must not fail");
    }
  }

  // --- end-to-end metrics ----------------------------------------------------
  const double ops = static_cast<double>(st.completed);
  report.attempted = st.issued;
  report.failed = st.failed;
  report.Add("setup_s", setup_s.Quantile(0.5), "s",
             "median of " + std::to_string(kSetupRepeats) + " cluster formations");
  report.Add("ops_per_s", Ratio(ops, timed_s), "1/s",
             std::to_string(st.completed) + " ops in " + std::to_string(timed_s) + " s, " +
                 std::to_string(kOutstanding) + " outstanding");
  AddLatency(&report, "insert", st.insert_us, "");
  AddLatency(&report, "lookup", st.lookup_us, "");
  AddLatency(&report, "reclaim", st.reclaim_us, "");
  report.Add("failed_share", Ratio(static_cast<double>(st.failed), static_cast<double>(st.issued)),
             "share", "failed or refused / attempted");
  report.Add("msgs_per_op", Ratio(totals["net.sends"], ops), "count",
             "all transport sends to other nodes, maintenance included");
  report.Add("wire_bytes_per_op", Ratio(totals["net.frame_bytes"], ops), "B",
             "framed bytes of those sends");
  report.Add("rss_bytes_per_stored_byte", Ratio(rss_growth, static_cast<double>(live_bytes)),
             "ratio", "RSS growth since before set-up / live user bytes");
  report.Add("disk_bytes_per_stored_byte",
             Ratio(static_cast<double>(disk_bytes), static_cast<double>(live_bytes)), "ratio",
             "state-dir bytes / live user bytes");
  report.Add("preload_s", preload_s, "s", "untimed: preload + probe reclaims");
  report.Add("live_user_bytes", static_cast<double>(live_bytes), "B",
             std::to_string(gen.live_files()) + " live files");

  if (!options.trace) {
    report.Print();
    return report;
  }

  // --- per-layer metrics (traced run) ------------------------------------------
  const double inserts = static_cast<double>(st.insert_us.size());
  const double lookups = static_cast<double>(st.lookup_us.size());
  AddCounterLayers(totals, ops, &report);
  const SpanLog::Totals& issue = spans.totals(Layer::kStorageIssue);
  report.Add("storage.issue_us", Ratio(issue.total_ns / 1e3, static_cast<double>(issue.count)),
             "us", "mean synchronous time inside the client-API call");
  AddCryptoProbes(spec.min_size, spec.max_size, &report);

  const double traced_ops = static_cast<double>(st.completed_traced);
  auto per_traced_op_us = [&](Layer l, bool self) {
    const SpanLog::Totals& t = spans.totals(l);
    return Ratio((self ? t.self_ns : t.total_ns) / 1e3, traced_ops);
  };
  report.Add("net.sends_per_op", Ratio(totals["net.sends"], ops), "count", "");
  const SpanLog::Totals& send = spans.totals(Layer::kNetSend);
  report.Add("net.send_us", Ratio(send.total_ns / 1e3, static_cast<double>(send.count)), "us",
             "mean Transport::Send");
  report.Add("net.poll_self_us_per_op", per_traced_op_us(Layer::kNetPoll, true), "us",
             "PollOnce minus handlers and sends");
  report.Add("net.handler_us_per_op", per_traced_op_us(Layer::kNetHandler, false), "us",
             "OnMessage, inclusive");
  report.Add("net.tcp_frame_share",
             Ratio(totals["net.sock.tcp_tx"], totals["net.sock.tcp_tx"] + totals["net.sock.udp_tx"]),
             "share", "");
  double drops = kernel_drops;
  for (const char* name : {"net.sock.dropped_oversize", "net.sock.dropped_backpressure",
                           "net.sock.dropped_decode", "net.sock.dropped_misaddressed",
                           "net.sock.dropped_down"}) {
    drops += totals[name];
  }
  report.Add("net.drops_per_op", Ratio(drops, ops), "count",
             "net.sock.dropped_* plus " + std::to_string(static_cast<uint64_t>(kernel_drops)) +
                 " kernel UDP receive-buffer drops");
  report.Add("pastry.failures_detected_per_crash", 0, "count", "n/a: no crashes on loopback");
  report.Add("sim.events_per_op", 0, "count", "n/a: no simulator on loopback");
  report.Add("sim.run_us_per_sim_s", 0, "us", "n/a: no simulator on loopback");
  report.Add("diskstore.append_bytes_per_user_byte",
             Ratio(totals["env.appended"], static_cast<double>(st.inserted_bytes)), "ratio",
             "bytes appended to logs / user bytes inserted");
  report.Add("diskstore.append_us_per_insert",
             Ratio(spans.totals(Layer::kDiskAppend).total_ns / 1e3,
                   static_cast<double>(st.inserts_traced)),
             "us", "");
  report.Add("diskstore.syncs_per_insert", Ratio(totals["env.syncs"], inserts), "count", "");
  report.Add("diskstore.reads_per_lookup", Ratio(totals["env.reads"], lookups), "count", "");
  report.Add("diskstore.compactions", totals["disk.compactions"], "count", "");
  AddLayerTimes(spans, traced_ops, &report);
  report.Add("obs.trace_overhead_share",
             1.0 - Ratio(Ratio(traced_ops, st.traced_s),
                         Ratio(static_cast<double>(st.completed_untraced), st.untraced_s)),
             "share", "ops_per_s lost in traced epochs vs untraced epochs");
  if (!spans.WriteJsonl(options.trace_path)) {
    report.Fail("cannot write spans to " + options.trace_path);
  }
  report.Print();
  return report;
}

}  // namespace perfbench
