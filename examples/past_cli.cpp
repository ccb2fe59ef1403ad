// past_cli — command-line driver for PAST networks, simulated and real.
//
// Default mode builds a simulated network from flags, optionally replays a
// trace file (see src/workload/trace.h for the format) or generates a
// synthetic workload, and prints a summary:
//
//   $ ./examples/past_cli --nodes 100 --seed 7 --k 4 --ops 300
//   $ ./examples/past_cli --nodes 50 --trace /tmp/past-demo.trace
//   $ ./examples/past_cli --nodes 80 --cache none --ops 200
//
// `past_cli daemon` runs one real PAST node over the socket transport: it
// bootstraps (or joins an existing daemon with --join host:port) and serves
// insert/lookup/reclaim through a line-based TCP control port. `past_cli
// ctl` is the matching one-shot client:
//
//   $ ./examples/past_cli daemon --port 7001 --ctl-port 8001 --node-seed 1 &
//   $ ./examples/past_cli daemon --port 7002 --ctl-port 8002 --node-seed 2 \
//       --join 127.0.0.1:7001 &
//   $ ./examples/past_cli ctl 127.0.0.1:8001 insert report.pdf 100000 3
//   OK 5f1c... crc=8d2e55aa
//   $ ./examples/past_cli ctl 127.0.0.1:8002 lookup 5f1c...
//   OK size=100000 crc=8d2e55aa
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/crc32c.h"
#include "src/net/socket_transport.h"
#include "src/workload/replay.h"

using namespace past;

namespace {

struct CliOptions {
  int nodes = 50;
  uint64_t seed = 42;
  uint32_t k = 3;
  int ops = 200;
  std::string trace_path;
  std::string cache = "gds";  // gds | lru | none
  std::string state_dir;      // empty: in-memory stores
  bool help = false;
};

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      out->help = true;
    } else if (arg == "--nodes") {
      const char* v = next("--nodes");
      if (v == nullptr || (out->nodes = std::atoi(v)) <= 0) {
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) {
        return false;
      }
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--k") {
      const char* v = next("--k");
      if (v == nullptr || (out->k = static_cast<uint32_t>(std::atoi(v))) == 0) {
        return false;
      }
    } else if (arg == "--ops") {
      const char* v = next("--ops");
      if (v == nullptr || (out->ops = std::atoi(v)) <= 0) {
        return false;
      }
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) {
        return false;
      }
      out->trace_path = v;
    } else if (arg == "--state-dir") {
      const char* v = next("--state-dir");
      if (v == nullptr) {
        return false;
      }
      out->state_dir = v;
    } else if (arg == "--cache") {
      const char* v = next("--cache");
      if (v == nullptr) {
        return false;
      }
      out->cache = v;
      if (out->cache != "gds" && out->cache != "lru" && out->cache != "none") {
        std::fprintf(stderr, "--cache must be gds, lru or none\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "past_cli — run a simulated PAST network\n"
      "  --nodes N     network size (default 50)\n"
      "  --seed S      simulation seed (default 42)\n"
      "  --k K         replication factor for generated workloads (default 3)\n"
      "  --ops N       operations to generate when no trace is given (default 200)\n"
      "  --trace FILE  replay this trace file instead of generating one\n"
      "  --cache P     cache policy: gds | lru | none (default gds)\n"
      "  --state-dir D durable per-node stores under D; a rerun with the same\n"
      "                directory and seed recovers them from disk (exit 1 if\n"
      "                any node's store cannot be opened)\n");
}

// --- real-cluster daemon --------------------------------------------------------

struct DaemonOptions {
  uint16_t port = 0;      // overlay UDP+TCP port (required)
  uint16_t ctl_port = 0;  // control protocol port (required)
  std::string join;       // host:port of a running daemon; empty = bootstrap
  std::string state_dir;
  uint64_t broker_seed = 7;  // must match across the cluster
  uint64_t node_seed = 1;    // must differ across the cluster
  uint64_t quota = 256u << 20;
  uint64_t storage = 256u << 20;
  uint32_t k = 3;
};

// Deterministic file contents for the ctl protocol: insert ships only
// (name, size) over the control connection, and integrity is checked
// end-to-end by comparing the CRC the inserting daemon reports against the
// CRC of the bytes another daemon gets back from lookup — bytes which
// crossed the real transport between daemons.
Bytes MakeCtlContent(const std::string& name, uint64_t size) {
  Bytes out(size);
  Rng rng(Crc32c(ByteSpan(reinterpret_cast<const uint8_t*>(name.data()),
                          name.size())) +
          size * 0x9e3779b97f4a7c15ULL);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  return out;
}

// Line-based control server embedded in the transport's poll loop. One
// command per connection; the reply line closes it.
//
//   status                  -> OK active=<0|1> files=<n>
//   insert <name> <size> <k> -> OK <fileid-hex> crc=<hex>
//   lookup <fileid-hex>      -> OK size=<n> crc=<hex> [cache]
//   reclaim <fileid-hex>     -> OK reclaimed   (only on the inserting daemon)
//   quit                     -> OK bye, and the daemon exits
class CtlServer {
 public:
  CtlServer(SocketTransport* net, PastNode* node) : net_(net), node_(node) {}

  ~CtlServer() {
    for (auto& [fd, buf] : clients_) {
      (void)buf;
      net_->UnwatchFd(fd);
      ::close(fd);
    }
    if (listen_fd_ >= 0) {
      net_->UnwatchFd(listen_fd_);
      ::close(listen_fd_);
    }
  }

  bool Open(uint16_t port) {
    Result<int> fd = TcpListen("127.0.0.1", port, nullptr);
    if (!fd.ok()) {
      return false;
    }
    listen_fd_ = fd.value();
    net_->WatchFd(listen_fd_, POLLIN, [this](int, short) { Accept(); });
    return true;
  }

 private:
  void Accept() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      if (SetNonBlocking(fd) != StatusCode::kOk) {
        ::close(fd);
        continue;
      }
      clients_[fd];
      net_->WatchFd(fd, POLLIN, [this](int cfd, short) { Readable(cfd); });
    }
  }

  void Readable(int fd) {
    auto it = clients_.find(fd);
    if (it == clients_.end()) {
      return;
    }
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        it->second.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n == 0 && it->second.find('\n') != std::string::npos) {
        break;  // client sent the command then shut down its write side
      }
      Drop(fd);
      return;
    }
    size_t eol = it->second.find('\n');
    if (eol == std::string::npos) {
      return;
    }
    std::string line = it->second.substr(0, eol);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    net_->UnwatchFd(fd);  // command received; only the async reply remains
    Handle(fd, line);
  }

  // The command fd stays open (tracked in clients_) until its operation's
  // callback produces the reply.
  void Handle(int fd, const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "status") {
      Reply(fd, "OK active=" + std::to_string(node_->overlay()->active() ? 1 : 0) +
                    " files=" + std::to_string(node_->store().file_count()));
    } else if (cmd == "insert") {
      std::string name;
      uint64_t size = 0;
      uint32_t k = 0;
      in >> name >> size >> k;
      if (name.empty() || size == 0) {
        Reply(fd, "ERR usage: insert <name> <size> <k>");
        return;
      }
      Bytes content = MakeCtlContent(name, size);
      char crc[16];
      std::snprintf(crc, sizeof(crc), "%08x", Crc32c(content));
      std::string crc_text = crc;
      node_->Insert(name, std::move(content), k,
                    [this, fd, crc_text](Result<FileId> r) {
                      if (r.ok()) {
                        Reply(fd, "OK " + r.value().ToHex() + " crc=" + crc_text);
                      } else {
                        Reply(fd, std::string("ERR ") + StatusCodeName(r.status()));
                      }
                    });
    } else if (cmd == "lookup") {
      std::string hex;
      in >> hex;
      FileId id;
      if (!U160::FromHex(hex, &id)) {
        Reply(fd, "ERR bad fileid");
        return;
      }
      node_->Lookup(id, [this, fd](Result<PastNode::LookupOutcome> r) {
        if (!r.ok()) {
          Reply(fd, std::string("ERR ") + StatusCodeName(r.status()));
          return;
        }
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", Crc32c(r.value().content));
        Reply(fd, "OK size=" + std::to_string(r.value().content.size()) +
                      " crc=" + crc + (r.value().from_cache ? " cache" : ""));
      });
    } else if (cmd == "reclaim") {
      std::string hex;
      in >> hex;
      FileId id;
      if (!U160::FromHex(hex, &id)) {
        Reply(fd, "ERR bad fileid");
        return;
      }
      node_->Reclaim(id, [this, fd](StatusCode code) {
        Reply(fd, code == StatusCode::kOk
                      ? "OK reclaimed"
                      : std::string("ERR ") + StatusCodeName(code));
      });
    } else if (cmd == "quit") {
      Reply(fd, "OK bye");
      net_->Stop();
    } else {
      Reply(fd, "ERR unknown command");
    }
  }

  void Reply(int fd, const std::string& text) {
    auto it = clients_.find(fd);
    if (it == clients_.end()) {
      return;  // client vanished before the operation completed
    }
    // Replies are small; flip the fd to blocking so one write drains it.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
      (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    }
    std::string line = text + "\n";
    size_t off = 0;
    while (off < line.size()) {
      ssize_t n = ::write(fd, line.data() + off, line.size() - off);
      if (n <= 0) {
        break;
      }
      off += static_cast<size_t>(n);
    }
    Drop(fd);
  }

  void Drop(int fd) {
    net_->UnwatchFd(fd);
    ::close(fd);
    clients_.erase(fd);
  }

  SocketTransport* net_;
  PastNode* node_;
  int listen_fd_ = -1;
  std::unordered_map<int, std::string> clients_;  // fd -> buffered input
};

bool ParseDaemonArgs(int argc, char** argv, DaemonOptions* out) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--port" && (v = next()) != nullptr) {
      out->port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--ctl-port" && (v = next()) != nullptr) {
      out->ctl_port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--join" && (v = next()) != nullptr) {
      out->join = v;
    } else if (arg == "--state-dir" && (v = next()) != nullptr) {
      out->state_dir = v;
    } else if (arg == "--broker-seed" && (v = next()) != nullptr) {
      out->broker_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--node-seed" && (v = next()) != nullptr) {
      out->node_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--quota" && (v = next()) != nullptr) {
      out->quota = std::strtoull(v, nullptr, 10);
    } else if (arg == "--storage" && (v = next()) != nullptr) {
      out->storage = std::strtoull(v, nullptr, 10);
    } else if (arg == "--k" && (v = next()) != nullptr) {
      out->k = static_cast<uint32_t>(std::atoi(v));
    } else {
      std::fprintf(stderr, "daemon: bad flag %s\n", arg.c_str());
      return false;
    }
  }
  if (out->port == 0 || out->ctl_port == 0) {
    std::fprintf(stderr, "daemon: --port and --ctl-port are required\n");
    return false;
  }
  return true;
}

int RunDaemon(int argc, char** argv) {
  DaemonOptions opt;
  if (!ParseDaemonArgs(argc, argv, &opt)) {
    return 2;
  }

  SocketTransportOptions topt;
  topt.port = opt.port;
  SocketTransport transport(topt);
  if (transport.Open() != StatusCode::kOk) {
    std::fprintf(stderr, "daemon: cannot bind port %u\n", opt.port);
    return 1;
  }

  // Every daemon rebuilds the same broker from the shared seed, then derives
  // its own card from its node seed — identical broker key everywhere (so
  // certificates verify across processes), distinct card per daemon.
  Broker broker(opt.broker_seed);
  Result<std::unique_ptr<Smartcard>> card =
      broker.IssueCardWithSeed(opt.node_seed, opt.quota, opt.storage);
  if (!card.ok()) {
    std::fprintf(stderr, "daemon: card issue failed\n");
    return 1;
  }
  NodeId id = card.value()->DerivedNodeId();

  PastryConfig pastry;
  pastry.keep_alive_period = 1 * kMicrosPerSecond;
  pastry.failure_timeout = 3 * kMicrosPerSecond;
  pastry.death_quarantine = 6 * kMicrosPerSecond;

  PastryNode overlay(&transport, id, pastry, opt.node_seed);

  PastConfig past;
  past.default_replication = opt.k;
  past.state_dir = opt.state_dir;
  past.request_timeout = 10 * kMicrosPerSecond;
  PastNode node(&overlay, std::move(card).value(), past, opt.node_seed ^ 0x5eed);
  if (node.store_status() != StatusCode::kOk) {
    // Serving without the durable store would hand out receipts for
    // replicas that live only in RAM.
    std::fprintf(stderr, "daemon: cannot open the durable store under %s: %s\n",
                 opt.state_dir.c_str(), StatusCodeName(node.store_status()));
    return 1;
  }

  if (opt.join.empty()) {
    overlay.Bootstrap();
  } else {
    Result<HostPort> hp = ParseHostPort(opt.join);
    if (!hp.ok()) {
      std::fprintf(stderr, "daemon: bad --join %s\n", opt.join.c_str());
      return 2;
    }
    // Single-host table: host_index 0 is 127.0.0.1, so the address is the
    // peer's port.
    overlay.Join(MakeSockAddr(0, hp.value().port));
  }

  CtlServer ctl(&transport, &node);
  if (!ctl.Open(opt.ctl_port)) {
    std::fprintf(stderr, "daemon: cannot bind ctl port %u\n", opt.ctl_port);
    return 1;
  }

  std::printf("past_daemon: id=%s port=%u ctl=%u %s\n", id.ToHex().c_str(),
              transport.port(), opt.ctl_port,
              opt.join.empty() ? "(bootstrap)" : opt.join.c_str());
  std::fflush(stdout);
  transport.Run();
  return 0;
}

// One-shot control client: connect, send the command line, print the reply.
int RunCtl(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: past_cli ctl <host:port> <command...>\n");
    return 2;
  }
  Result<HostPort> hp = ParseHostPort(argv[0]);
  if (!hp.ok()) {
    std::fprintf(stderr, "ctl: bad target %s\n", argv[0]);
    return 2;
  }
  std::string line;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) {
      line += ' ';
    }
    line += argv[i];
  }
  line += '\n';

  Result<int> fd = TcpConnect(hp.value().host, hp.value().port);
  if (!fd.ok()) {
    std::fprintf(stderr, "ctl: connect failed\n");
    return 1;
  }
  pollfd pfd = {fd.value(), POLLOUT, 0};
  if (::poll(&pfd, 1, 5000) <= 0 || ConnectResult(fd.value()) != StatusCode::kOk) {
    std::fprintf(stderr, "ctl: connect failed\n");
    ::close(fd.value());
    return 1;
  }
  int flags = ::fcntl(fd.value(), F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd.value(), F_SETFL, flags & ~O_NONBLOCK);
  }
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::write(fd.value(), line.data() + off, line.size() - off);
    if (n <= 0) {
      std::fprintf(stderr, "ctl: write failed\n");
      ::close(fd.value());
      return 1;
    }
    off += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd.value(), buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd.value());
  std::fputs(reply.c_str(), stdout);
  return reply.rfind("OK", 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "daemon") == 0) {
    return RunDaemon(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "ctl") == 0) {
    return RunCtl(argc - 2, argv + 2);
  }
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage();
    return 2;
  }
  if (cli.help) {
    PrintUsage();
    return 0;
  }

  PastNetworkOptions options;
  options.overlay.seed = cli.seed;
  options.broker.modulus_pool = 8;
  options.overlay.pastry.keep_alive_period = 1 * kMicrosPerSecond;
  options.overlay.pastry.failure_timeout = 3 * kMicrosPerSecond;
  options.overlay.pastry.death_quarantine = 6 * kMicrosPerSecond;
  options.past.default_replication = cli.k;
  options.past.cache_policy = cli.cache == "gds"   ? CachePolicy::kGreedyDualSize
                              : cli.cache == "lru" ? CachePolicy::kLru
                                                   : CachePolicy::kNone;
  options.past.cache_on_insert_path = options.past.cache_policy != CachePolicy::kNone;
  options.past.cache_push_on_lookup = options.past.cache_policy != CachePolicy::kNone;
  options.past.state_dir = cli.state_dir;

  PastNetwork net(options);
  net.Build(cli.nodes);
  std::printf("network: %d nodes, k=%u, cache=%s, seed=%llu\n", cli.nodes, cli.k,
              cli.cache.c_str(), static_cast<unsigned long long>(cli.seed));
  if (!cli.state_dir.empty()) {
    // Same seed => same node ids => same per-node state directories, so a
    // rerun reopens the previous run's logs and starts with its files.
    size_t recovered_files = 0, recovered_nodes = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      if (StatusCode status = net.node(i)->store_status(); status != StatusCode::kOk) {
        std::fprintf(stderr, "state: cannot open the durable store of node %s under %s: %s\n",
                     net.node(i)->overlay()->id().ToHex().c_str(), cli.state_dir.c_str(),
                     StatusCodeName(status));
        return 1;
      }
      const size_t n = net.node(i)->store().file_count();
      recovered_files += n;
      recovered_nodes += n > 0 ? 1 : 0;
    }
    std::printf("state: %s — recovered %zu replicas on %zu nodes\n",
                cli.state_dir.c_str(), recovered_files, recovered_nodes);
  }

  Trace trace;
  if (!cli.trace_path.empty()) {
    std::ifstream in(cli.trace_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", cli.trace_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<Trace> parsed = Trace::Parse(buffer.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "trace parse error: %s\n", StatusCodeName(parsed.status()));
      return 1;
    }
    trace = std::move(parsed).value();
    std::printf("trace: %s (%zu ops, %zu inserts)\n", cli.trace_path.c_str(),
                trace.size(), trace.InsertCount());
  } else {
    Rng rng(cli.seed ^ 0xbeef);
    TraceWorkloadOptions workload;
    workload.operations = static_cast<size_t>(cli.ops);
    workload.clients = cli.nodes;
    workload.replication = cli.k;
    workload.sizes.max_size = 64 << 10;
    trace = GenerateTrace(workload, &rng);
    std::printf("workload: %zu generated ops (%zu inserts)\n", trace.size(),
                trace.InsertCount());
  }

  ReplayResult result = ReplayTrace(trace, &net);

  uint64_t cache_hits = 0, cache_entries = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    cache_hits += net.node(i)->file_cache().stats().hits;
    cache_entries += net.node(i)->file_cache().entry_count();
  }
  auto summary = net.Summary();
  const auto& nstats = net.overlay().network().stats();
  std::printf(
      "\nresults:\n"
      "  inserts      %d ok, %d failed\n"
      "  lookups      %d ok, %d failed, %d skipped\n"
      "  reclaims     %d ok\n"
      "  churn        %d crashes, %d joins\n"
      "  storage      %.1f%% utilization, %zu files, %zu pointers\n"
      "  caches       %llu entries, %llu hits\n"
      "  network      %llu messages, %llu bytes, sim time %.1f s\n",
      result.inserts_ok, result.inserts_failed, result.lookups_ok,
      result.lookups_failed, result.lookups_skipped, result.reclaims_ok,
      result.crashes, result.joins, 100.0 * summary.utilization(), summary.files,
      summary.pointers, static_cast<unsigned long long>(cache_entries),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(nstats.sent),
      static_cast<unsigned long long>(nstats.bytes_sent),
      static_cast<double>(net.queue().Now()) / kMicrosPerSecond);
  return result.lookups_failed == 0 ? 0 : 1;
}
