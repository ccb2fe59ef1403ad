// Result collection for the benchmark: wall clock, RSS, percentiles, and the
// named metrics one run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds.
int64_t NowNs();

// Resident set size of this process, in bytes.
uint64_t RssBytes();

// The kernel's count of UDP datagrams dropped because a receive buffer was
// full (RcvbufErrors in /proc/net/snmp), for this network namespace.
uint64_t UdpRcvbufErrors();

// Latency samples of one operation kind; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Quantile(double q);
  // The highest of the percentiles 99, 98, 95, 90, 75, 50 that keeps at
  // least ten samples above it (the tail statistic the sample supports).
  double TailPercent() const;
  double Tail() { return Quantile(TailPercent() / 100.0); }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human-readable context, e.g. the percentile used
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // every failed check, one line each
  std::vector<std::string> notes;   // context, e.g. failed ops by status
  std::vector<std::pair<std::string, std::string>> environment;

  void Add(std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  // Human-readable table, then one machine-readable line:
  //   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  void Print() const;
};

// Adds the environment fingerprint: cores, compiler, build type, the state
// directory's filesystem, an fsync p50 probe and a loopback RTT probe.
void AddFingerprint(Report* report, const std::string& state_dir);

// Adds <name>_p50_us and <name>_p99_us; the latter is the tail the sample
// supports (see Samples::TailPercent), which the note names.
void AddLatency(Report* report, const std::string& name, Samples& samples,
                const std::string& clock);

// Counter deltas over a run's timed phase, keyed by registry name (summed
// over nodes), plus "hops.sum" / "hops.count" of pastry.route.hops.
using Counts = std::map<std::string, double>;

// Adds the per-layer ratios both back ends read from their registries:
// storage.{cache_hit,reject,verify_cache_hit}_ratio, crypto.verifies_per_op,
// pastry.{hops_per_route,maintenance_share,reroutes_per_op}.
void AddCounterLayers(const Counts& delta, double ops, Report* report);

// Crypto probes on the run's own key size (the broker's default) and file
// size range: file-certificate sign and verify p50, SHA-256 time per KiB.
void AddCryptoProbes(uint64_t min_size, uint64_t max_size, Report* report);

// A run's scratch directory: wiped when constructed, on Reset(), and when
// destroyed, so a run leaves nothing behind on any exit path that unwinds.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  void Reset();
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace perfbench
