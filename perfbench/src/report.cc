#include "src/report.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/diskstore/env.h"
#include "src/net/socket_transport.h"
#include "src/storage/smartcard.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

uint64_t UdpRcvbufErrors() {
  std::ifstream snmp("/proc/net/snmp");
  std::string line;
  std::vector<std::string> names;
  while (std::getline(snmp, line)) {
    if (line.rfind("Udp: ", 0) != 0) {
      continue;
    }
    std::istringstream fields(line.substr(5));
    std::vector<std::string> row{std::istream_iterator<std::string>(fields), {}};
    if (names.empty()) {
      names = row;
      continue;
    }
    for (size_t i = 0; i < names.size() && i < row.size(); ++i) {
      if (names[i] == "RcvbufErrors") {
        return std::strtoull(row[i].c_str(), nullptr, 10);
      }
    }
  }
  return 0;
}

double Samples::Quantile(double q) {
  if (values_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values_.size())));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::TailPercent() const {
  const double n = static_cast<double>(values_.size());
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

namespace {

void JsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  out->push_back('"');
}

std::string FsTypeName(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

// Median time of a 4 KiB append + Sync through the engine's own Env, over
// at most 21 samples or one second.
double FsyncP50Us(const std::string& dir) {
  past::Env* env = past::Env::Default();
  const std::string path = dir + "/fsync-probe";
  std::unique_ptr<past::WritableFile> file;
  if (env->NewWritableFile(path, &file) != past::StatusCode::kOk) {
    return -1.0;
  }
  past::Bytes block(4096, 0xa5);
  Samples samples;
  const int64_t deadline = NowNs() + 1'000'000'000;
  for (int i = 0; i < 21 && (i < 3 || NowNs() < deadline); ++i) {
    const int64_t t0 = NowNs();
    if (file->Append(past::ByteSpan(block.data(), block.size())) != past::StatusCode::kOk ||
        file->Sync() != past::StatusCode::kOk) {
      return -1.0;
    }
    samples.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  past::IgnoreStatus(file->Close());
  past::IgnoreStatus(env->RemoveFile(path));
  return samples.Quantile(0.5);
}

// Median round trip of a 64-byte UDP frame between two SocketTransports.
double LoopbackRttP50Us() {
  struct Echo : past::NetReceiver {
    past::SocketTransport* self = nullptr;
    bool reply = false;
    int received = 0;
    void OnMessage(past::NodeAddr from, past::ByteSpan wire) override {
      ++received;
      if (reply) {
        self->Send(self->local_addr(), from, past::Bytes(wire.begin(), wire.end()));
      }
    }
  };
  past::SocketTransport a, b;
  if (a.Open() != past::StatusCode::kOk || b.Open() != past::StatusCode::kOk) {
    return -1.0;
  }
  Echo ea, eb;
  ea.self = &a;
  eb.self = &b;
  eb.reply = true;
  a.Register(&ea);
  b.Register(&eb);
  Samples samples;
  for (int i = 0; i < 51; ++i) {
    const int before = ea.received;
    const int64_t t0 = NowNs();
    a.Send(a.local_addr(), b.local_addr(), past::Bytes(64, 0x5a));
    while (ea.received == before && NowNs() - t0 < 1'000'000'000) {
      (void)b.PollOnce(0);
      (void)a.PollOnce(0);
    }
    if (ea.received == before) {
      return -1.0;
    }
    samples.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return samples.Quantile(0.5);
}

template <typename F>
double MedianUs(int reps, F&& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    s.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return s.Quantile(0.5);
}

}  // namespace

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) { Reset(); }

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void ScratchDir::Reset() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

void AddLatency(Report* report, const std::string& name, Samples& samples,
                const std::string& clock) {
  report->Add(name + "_p50_us", samples.Quantile(0.5), "us",
              clock + std::to_string(samples.size()) + " samples");
  char pct[32];
  std::snprintf(pct, sizeof(pct), "p%.0f of ", samples.TailPercent());
  report->Add(name + "_p99_us", samples.Tail(), "us",
              clock + pct + std::to_string(samples.size()) + " samples");
}

void AddCounterLayers(const Counts& delta, double ops, Report* report) {
  auto get = [&delta](const char* name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  };
  report->Add("storage.cache_hit_ratio",
              Ratio(get("past.lookups_served_cache"),
                    get("past.lookups_served_cache") + get("past.lookups_served_store")),
              "ratio", "lookups served from a cache / lookups served");
  report->Add("storage.reject_ratio",
              Ratio(get("past.store_rejects"), get("past.store_rejects") +
                                                   get("past.replicas_stored") +
                                                   get("past.diverted_accepted")),
              "ratio", "replica store refusals / replica store attempts");
  report->Add("storage.verify_cache_hit_ratio",
              Ratio(get("crypto.verify_cache_hit"), get("crypto.verify_total")), "ratio", "");
  report->Add("crypto.verifies_per_op", Ratio(get("crypto.verify_cache_miss"), ops), "count",
              "RSA verifications (verify-cache misses) per op");
  report->Add("pastry.hops_per_route", Ratio(get("hops.sum"), get("hops.count")), "count", "");
  report->Add("pastry.maintenance_share",
              Ratio(get("pastry.maintenance_msgs_sent"), get("pastry.msgs_sent")), "share", "");
  report->Add("pastry.reroutes_per_op", Ratio(get("pastry.reroutes"), ops), "count", "");
}

void AddCryptoProbes(uint64_t min_size, uint64_t max_size, Report* report) {
  past::Broker broker(7);
  auto card = broker.IssueCardWithSeed(1000, 1ULL << 40, 0);
  if (!card.ok()) {
    report->Fail("crypto probe: broker refused a card");
    return;
  }
  past::Smartcard& c = *card.value();
  past::Rng rng(99);
  const past::Bytes data = rng.RandomBytes(max_size);
  const auto hash = past::Sha256::Hash(past::ByteSpan(data.data(), min_size));
  const past::ByteSpan digest(hash.data(), hash.size());
  uint64_t salt = 0;
  past::Result<past::FileCertificate> cert =
      c.IssueFileCertificate("probe", min_size, digest, 3, salt, 0);
  const double sign_us = MedianUs(201, [&] {
    cert = c.IssueFileCertificate("probe", min_size, digest, 3, ++salt, 0);
  });
  bool verified = cert.ok();
  const double verify_us = MedianUs(201, [&] {
    verified = verified && c.VerifyFileCertificate(cert.value());
  });
  if (!verified) {
    report->Fail("crypto probe: a fresh certificate did not verify");
  }
  uint64_t bytes = 0;
  int64_t ns = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t size = min_size + rng.UniformU64(max_size - min_size + 1);
    const int64_t t0 = NowNs();
    (void)past::Sha256::Hash(past::ByteSpan(data.data(), size));
    ns += NowNs() - t0;
    bytes += size;
  }
  report->Add("crypto.verify_us", verify_us, "us", "probe: file-certificate verify, p50");
  report->Add("crypto.sign_us", sign_us, "us", "probe: file-certificate sign, p50");
  report->Add("crypto.sha256_us_per_kib",
              static_cast<double>(ns) / 1e3 / (static_cast<double>(bytes) / 1024.0), "us/KiB",
              "probe over the workload's file sizes");
}

void AddFingerprint(Report* report, const std::string& state_dir) {
  char buf[64];
  auto& env = report->environment;
  env.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  env.emplace_back("compiler", std::string("gcc ") + __VERSION__);
  env.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  env.emplace_back("state_fs", FsTypeName(state_dir));
  std::snprintf(buf, sizeof(buf), "%.1f", FsyncP50Us(state_dir));
  env.emplace_back("fsync_p50_us", buf);
  std::snprintf(buf, sizeof(buf), "%.1f", LoopbackRttP50Us());
  env.emplace_back("loopback_rtt_p50_us", buf);
}

void Report::Print() const {
  std::printf("perfbench %s seed=%llu\n", workload.c_str(),
              static_cast<unsigned long long>(seed));
  for (const auto& [key, value] : environment) {
    std::printf("  env %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("  attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), correct ? "true" : "false");
  for (const std::string& n : notes) {
    std::printf("  note: %s\n", n.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::string out = "PERFBENCH_RESULT {\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"environment\":{";
  for (size_t i = 0; i < environment.size(); ++i) {
    out += i == 0 ? "" : ",";
    JsonString(&out, environment[i].first);
    out += ":";
    JsonString(&out, environment[i].second);
  }
  out += "},\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ",";
    JsonString(&out, metrics[i].name);
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    JsonString(&out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
