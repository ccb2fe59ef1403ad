// sim_churn: a simulated PAST network of about a thousand nodes, grown by
// real joins, with in-memory stores. Ops arrive open-loop (Poisson) on the
// simulated clock and one node crashes at a fixed simulated interval, so
// multi-hop routing, keep-alives and replica repair do most of the work.
//
// One run plays the scenario at least three times: once with a derived seed
// (the outcome must differ) and otherwise with the run's seed (the outcomes
// must be identical), adding plays until --seconds have passed.
// Simulated-clock metrics come from the first play; ops_per_s covers the
// ops and engine time of every play.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/spans.h"
#include "src/storage/past_network.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using past::FileId;
using past::PastNode;
using past::SimTime;
using past::StatusCode;

constexpr int kNodes = 1000;
constexpr uint32_t kReplicas = 3;
constexpr uint64_t kMinSize = 1 << 10;
constexpr uint64_t kMaxSize = 4 << 10;
constexpr int kPreloadFiles = 300;
constexpr double kInsertShare = 0.25;
constexpr double kLookupShare = 0.65;  // the rest are reclaims
constexpr double kOpsPerSimSecond = 40.0;
constexpr SimTime kTimedSim = 90 * past::kMicrosPerSecond;
constexpr SimTime kCrashEvery = 10 * past::kMicrosPerSecond;
constexpr SimTime kStep = 100 * past::kMicrosPerMilli;  // oracle check period
constexpr int kMinPlays = 3;
constexpr int kMaxPlays = 6;

// Everything one play of the scenario produced.
struct Play {
  double setup_s = 0;
  double engine_s = 0;  // wall time inside RunUntil and the client API
  double sim_s = 0;     // simulated seconds of the timed phase
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;
  Samples insert_us, lookup_us, reclaim_us;  // simulated clock
  uint64_t events = 0;
  int crashes = 0;
  int repairs = 0;
  Samples repair_s;
  double rss_growth = 0;
  uint64_t live_bytes = 0;
  Counts counters;  // deltas over the timed phase
  std::vector<std::string> mismatches;
  std::vector<double> sim_latencies;  // every op's, in completion order

  double Delta(const char* name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

constexpr const char* kCounters[] = {
    "net.sent",          "net.bytes_sent",          "pastry.msgs_sent",
    "pastry.maintenance_msgs_sent", "pastry.reroutes", "pastry.failures_detected",
    "pastry.forwarded",  "crypto.verify_total",     "crypto.verify_cache_hit",
    "crypto.verify_cache_miss", "past.lookups_served_cache", "past.lookups_served_store",
    "past.store_rejects", "past.replicas_stored",   "past.diverted_accepted",
    "past.maintenance_fetches",
};

struct FileRec {
  FileId id;
  size_t owner = 0;
  size_t content = 0;  // index into the pre-generated contents
  int lookups_in_flight = 0;
  bool reclaiming = false;
  bool gone = false;
};

Play RunPlay(uint64_t seed, bool trace, SpanLog* spans) {
  Play play;
  const uint64_t rss_before = RssBytes();
  past::PastNetworkOptions options;
  options.overlay.seed = seed;
  // The churn experiment's (bench/exp_churn) maintenance periods: half the
  // daemon's keep-alive rate keeps a thousand-node build by joins affordable.
  options.overlay.pastry.keep_alive_period = 2 * past::kMicrosPerSecond;
  options.overlay.pastry.failure_timeout = 6 * past::kMicrosPerSecond;
  options.overlay.pastry.death_quarantine = 12 * past::kMicrosPerSecond;
  options.overlay.network.expected_endpoints = kNodes;
  options.broker.modulus_pool = 8;
  options.past.default_replication = kReplicas;
  options.past.request_timeout = 10 * past::kMicrosPerSecond;
  options.default_user_quota = 1ULL << 40;

  int64_t t0 = NowNs();
  past::PastNetwork net(options);
  net.Build(kNodes);
  play.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  past::EventQueue& queue = net.queue();
  past::MetricsRegistry& metrics = net.overlay().network().metrics();
  past::Rng rng(seed ^ 0x51c4u);

  // Inputs, all drawn before timing: the arrival schedule, and one file's
  // contents per preload insert and per arrival (any arrival may turn into
  // an insert).
  std::vector<SimTime> arrivals;
  for (SimTime t = 0;;) {
    t += static_cast<SimTime>(rng.Exponential(kOpsPerSimSecond) * past::kMicrosPerSecond) + 1;
    if (t >= kTimedSim) {
      break;
    }
    arrivals.push_back(t);
  }
  std::vector<past::Bytes> contents;
  for (size_t i = 0; i < kPreloadFiles + arrivals.size(); ++i) {
    contents.push_back(rng.RandomBytes(kMinSize + rng.UniformU64(kMaxSize - kMinSize + 1)));
  }
  size_t next_content = 0;
  std::vector<FileRec> files;
  std::vector<bool> crashed(kNodes, false);
  std::vector<int> client_ops(kNodes, 0);
  int outstanding = 0;
  bool recording = false;

  auto random_client = [&]() -> size_t {
    for (;;) {
      const size_t i = rng.UniformU64(kNodes);
      if (!crashed[i]) {
        return i;
      }
    }
  };
  auto complete = [&](const char* kind, SimTime start, StatusCode status, bool record,
                      Samples* samples) {
    --outstanding;
    if (status != StatusCode::kOk) {
      play.failures[std::string(kind) + ":" + past::StatusCodeName(status) +
                    (record ? "" : " (untimed)")]++;
    }
    if (!record) {
      return;
    }
    ++play.completed;
    const double us = static_cast<double>(queue.Now() - start);
    play.sim_latencies.push_back(us);
    if (status != StatusCode::kOk) {
      ++play.failed;
      return;
    }
    samples->Add(us);
  };
  auto issue_insert = [&] {
    size_t client, c;
    past::Bytes content;
    {
      SpanLog::Scope gen(spans, Layer::kHarnessGen);
      client = random_client();
      c = next_content++;
      content = contents[c];
    }
    const bool record = recording;
    play.attempted += record ? 1 : 0;
    ++outstanding;
    ++client_ops[client];
    const SimTime start = queue.Now();
    SpanLog::Scope issue(spans, Layer::kStorageIssue);
    net.node(client)->Insert(
        "sim-" + std::to_string(c), std::move(content), 0,
        [&, client, c, start, record](past::Result<FileId> r) {
          --client_ops[client];
          complete("insert", start, r.status(), record, &play.insert_us);
          if (r.ok()) {
            files.push_back({r.value(), client, c, 0, false, false});
            play.live_bytes += contents[c].size();
          }
        });
  };
  auto issue_lookup = [&](size_t f) {
    const size_t client = random_client();
    const bool record = recording;
    play.attempted += record ? 1 : 0;
    ++outstanding;
    ++client_ops[client];
    ++files[f].lookups_in_flight;
    const SimTime start = queue.Now();
    SpanLog::Scope issue(spans, Layer::kStorageIssue);
    net.node(client)->Lookup(
        files[f].id,
        [&, f, client, start, record](past::Result<PastNode::LookupOutcome> r) {
          SpanLog::Scope check(spans, Layer::kHarnessCheck);
          --client_ops[client];
          --files[f].lookups_in_flight;
          if (r.ok() && r.value().content != contents[files[f].content]) {
            play.mismatches.push_back("lookup of a simulated file returned other bytes");
          }
          complete("lookup", start, r.status(), record, &play.lookup_us);
        });
  };
  auto issue_reclaim = [&](size_t f) {
    const size_t client = files[f].owner;
    const bool record = recording;
    play.attempted += record ? 1 : 0;
    ++outstanding;
    ++client_ops[client];
    files[f].reclaiming = true;
    const SimTime start = queue.Now();
    SpanLog::Scope issue(spans, Layer::kStorageIssue);
    net.node(client)->Reclaim(files[f].id, [&, f, client, start, record](StatusCode code) {
      --client_ops[client];
      files[f].gone = true;
      play.live_bytes -= contents[files[f].content].size();
      complete("reclaim", start, code, record, &play.reclaim_us);
    });
  };
  // A live file with no reclaim in flight (for a reclaim: no lookup either,
  // and an owner that is still up).
  auto pick = [&](bool for_reclaim, size_t* out) {
    for (int attempt = 0; attempt < 16 && !files.empty(); ++attempt) {
      const size_t f = rng.UniformU64(files.size());
      const FileRec& rec = files[f];
      if (rec.gone || rec.reclaiming ||
          (for_reclaim && (rec.lookups_in_flight > 0 || crashed[rec.owner]))) {
        continue;
      }
      *out = f;
      return true;
    }
    return false;
  };
  auto run_until = [&](SimTime when) {
    SpanLog::Scope run(spans, Layer::kSimRun);
    const int64_t w0 = NowNs();
    play.events += queue.RunUntil(when);
    play.engine_s += static_cast<double>(NowNs() - w0) / 1e9;
  };

  // Preload (untimed).
  for (int i = 0; i < kPreloadFiles; ++i) {
    issue_insert();
  }
  run_until(queue.Now() + 15 * past::kMicrosPerSecond);
  if (outstanding != 0) {
    play.mismatches.push_back("preload did not finish");
  }
  play.events = 0;
  play.engine_s = 0;

  std::map<std::string, uint64_t> before;
  for (const char* name : kCounters) {
    before[name] = metrics.GetCounter(name)->value();
  }
  const past::Histogram* hops = metrics.FindHistogram("pastry.route.hops");
  const double hop_sum0 = hops != nullptr ? hops->sum() : 0;
  const double hop_count0 = hops != nullptr ? static_cast<double>(hops->count()) : 0;

  // Timed phase: Poisson arrivals, a crash every kCrashEvery, and a repair
  // oracle checked every kStep (outside the engine time).
  recording = true;
  spans->SetEnabled(trace);
  const SimTime start = queue.Now();
  const SimTime end = start + kTimedSim;
  size_t arrival = 0;
  auto arrival_time = [&] {
    return arrival < arrivals.size() ? start + arrivals[arrival] : SimTime(INT64_MAX / 4);
  };
  SimTime next_arrival = arrival_time();
  SimTime next_crash = start + kCrashEvery / 2;
  SimTime next_check = start + kStep;
  struct Repair {
    SimTime crashed_at;
    std::vector<size_t> files;  // indices into `files`
  };
  std::vector<Repair> repairs;
  auto busy = [&] {
    if (queue.Now() < end || outstanding > 0) {
      return true;
    }
    // Wait (up to a minute) for the last crashes' repairs.
    return play.repairs < play.crashes && queue.Now() < end + 60 * past::kMicrosPerSecond;
  };
  while (busy()) {
    const SimTime next = std::min({next_arrival, next_crash, next_check});
    run_until(next);
    if (next == next_arrival) {
      const int64_t w0 = NowNs();
      const double u = rng.UniformDouble();
      size_t f = 0;
      if (u < kInsertShare) {
        issue_insert();
      } else if (u < kInsertShare + kLookupShare && pick(false, &f)) {
        issue_lookup(f);
      } else if (u >= kInsertShare + kLookupShare && pick(true, &f)) {
        issue_reclaim(f);
      } else {
        issue_insert();  // also when no file was eligible
      }
      play.engine_s += static_cast<double>(NowNs() - w0) / 1e9;
      ++arrival;
      next_arrival = arrival_time();
    } else if (next == next_crash) {
      // Crash a random node that is no op's client, recording what it held.
      size_t victim;
      do {
        victim = rng.UniformU64(kNodes);
      } while (crashed[victim] || client_ops[victim] > 0);
      Repair r;
      r.crashed_at = queue.Now();
      for (size_t f = 0; f < files.size(); ++f) {
        if (!files[f].gone && !files[f].reclaiming && net.node(victim)->store().Has(files[f].id)) {
          r.files.push_back(f);
        }
      }
      net.CrashNode(victim);
      crashed[victim] = true;
      ++play.crashes;
      repairs.push_back(std::move(r));
      next_crash = next_crash + kCrashEvery < end ? next_crash + kCrashEvery
                                                  : SimTime(INT64_MAX / 4);
    } else {
      next_check += kStep;
      for (Repair& r : repairs) {
        if (r.crashed_at < 0) {
          continue;
        }
        bool done = true;
        for (size_t f : r.files) {
          // A file reclaimed since the crash needs no repair.
          if (!files[f].reclaiming &&
              net.CountReplicas(files[f].id) < static_cast<int>(kReplicas)) {
            done = false;
            break;
          }
        }
        if (done) {
          play.repair_s.Add(static_cast<double>(queue.Now() - r.crashed_at) / 1e6);
          ++play.repairs;
          r.crashed_at = -1;
        }
      }
    }
  }
  recording = false;
  spans->SetEnabled(false);
  play.sim_s = static_cast<double>(queue.Now() - start) / past::kMicrosPerSecond;

  for (const char* name : kCounters) {
    play.counters[name] = static_cast<double>(metrics.GetCounter(name)->value() - before[name]);
  }
  if (hops != nullptr) {
    play.counters["hops.sum"] = hops->sum() - hop_sum0;
    play.counters["hops.count"] = static_cast<double>(hops->count()) - hop_count0;
  }
  play.rss_growth = static_cast<double>(RssBytes()) - static_cast<double>(rss_before);
  if (play.repairs != play.crashes) {
    play.mismatches.push_back(std::to_string(play.crashes - play.repairs) +
                              " crashes never got all their files back to k replicas");
  }
  return play;
}

// What the determinism self-check compares: every simulated-clock latency,
// every counter delta (messages, bytes, Pastry counts), repair times.
std::string Fingerprint(const Play& p) {
  std::string out;
  char buf[64];
  for (double v : p.sim_latencies) {
    std::snprintf(buf, sizeof(buf), "%.0f,", v);
    out += buf;
  }
  out += "|";
  for (const auto& [name, value] : p.counters) {
    out += name + "=" + std::to_string(value) + ",";
  }
  Samples repair = p.repair_s;
  std::snprintf(buf, sizeof(buf), "|%.6f|%.6f", repair.Quantile(0.5), repair.Quantile(1.0));
  return out + buf;
}

}  // namespace

Report RunSimChurn(const RunOptions& options) {
  Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  ScratchDir scratch(options.work_dir);
  AddFingerprint(&report, scratch.path());
  report.environment.emplace_back("flush_policy", "n/a: in-memory stores");
  report.environment.emplace_back("transport", "simulator (sim::Network), virtual time");

  SpanLog spans;
  // Play 2 has a derived seed, every other play the run's seed. In a traced
  // run only play 1 records spans, so 0 vs 1 is the tracing overhead on
  // identical work.
  std::vector<Play> plays;
  double engine_s = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < kMaxPlays && (i < kMinPlays || NowNs() - start < options.seconds * 1e9);
       ++i) {
    const uint64_t seed = i == 2 ? options.seed ^ 0x9e3779b97f4a7c15ULL : options.seed;
    plays.push_back(RunPlay(seed, options.trace && i == 1, &spans));
    engine_s += plays.back().engine_s;
  }
  const Play& p = plays[0];
  for (const Play& q : plays) {
    for (const std::string& m : q.mismatches) {
      report.Fail(m);
    }
    for (const auto& [what, count] : q.failures) {
      report.notes.push_back("failed op " + what + " x" + std::to_string(count));
      if (what.find("(untimed)") != std::string::npos) {
        report.Fail("untimed set-up ops must not fail");
      }
    }
  }
  const std::string fp0 = Fingerprint(plays[0]);
  for (size_t i = 1; i < plays.size(); ++i) {
    if (i != 2 && Fingerprint(plays[i]) != fp0) {
      report.Fail("determinism self-check: play " + std::to_string(i) +
                  " differs from play 0 under the same seed");
    }
  }
  if (Fingerprint(plays[2]) == fp0) {
    report.Fail("determinism self-check: a different seed gave the same outcome");
  }

  Samples setup;
  double all_ops = 0;
  for (const Play& q : plays) {
    setup.Add(q.setup_s);
    all_ops += static_cast<double>(q.completed);
  }
  const double ops = static_cast<double>(p.completed);
  report.attempted = p.attempted;
  report.failed = p.failed;
  report.Add("setup_s", setup.Quantile(0.5), "s",
             "median of " + std::to_string(plays.size()) + " builds of " +
                 std::to_string(kNodes) + " nodes by joins");
  report.Add("ops_per_s", Ratio(all_ops, engine_s), "1/s",
             "simulation speed: ops completed per wall second inside the engine, " +
                 std::to_string(plays.size()) + " plays");
  Samples ins = p.insert_us, look = p.lookup_us, rec = p.reclaim_us;
  AddLatency(&report, "insert", ins, "simulated clock, ");
  AddLatency(&report, "lookup", look, "simulated clock, ");
  AddLatency(&report, "reclaim", rec, "simulated clock, ");
  report.Add("failed_share", Ratio(static_cast<double>(p.failed), static_cast<double>(p.attempted)),
             "share", "failed or refused / attempted");
  report.Add("msgs_per_op", Ratio(p.Delta("net.sent"), ops), "count",
             "all simulated sends, maintenance included");
  report.Add("wire_bytes_per_op", Ratio(p.Delta("net.bytes_sent"), ops), "B", "");
  report.Add("rss_bytes_per_stored_byte", Ratio(p.rss_growth, static_cast<double>(p.live_bytes)),
             "ratio", "RSS growth of the first play / live user bytes");
  Samples repair = p.repair_s;
  report.Add("repair_s", repair.Quantile(0.5), "s",
             "simulated, crash to k live replicas of every file it held, median of " +
                 std::to_string(repair.size()) + " crashes");

  if (!options.trace) {
    report.Print();
    return report;
  }
  const Play& t = plays[1];
  AddCounterLayers(t.counters, ops, &report);
  const SpanLog::Totals& issue = spans.totals(Layer::kStorageIssue);
  report.Add("storage.issue_us", Ratio(issue.total_ns / 1e3, static_cast<double>(issue.count)),
             "us", "mean synchronous time inside the client-API call");
  AddCryptoProbes(kMinSize, kMaxSize, &report);
  report.Add("net.sends_per_op", Ratio(t.Delta("net.sent"), ops), "count", "");
  for (const auto& [name, unit] : {std::pair{"net.send_us", "us"},
                                   {"net.poll_self_us_per_op", "us"},
                                   {"net.handler_us_per_op", "us"},
                                   {"net.tcp_frame_share", "share"},
                                   {"net.drops_per_op", "count"}}) {
    report.Add(name, 0, unit, "n/a: no socket transport in the simulator");
  }
  report.Add("pastry.failures_detected_per_crash",
             Ratio(t.Delta("pastry.failures_detected"), static_cast<double>(t.crashes)), "count",
             "detections by all nodes per crash");
  report.Add("sim.events_per_op", Ratio(static_cast<double>(t.events), ops), "count",
             "sum of RunUntil return values");
  report.Add("sim.run_us_per_sim_s", Ratio(spans.totals(Layer::kSimRun).total_ns / 1e3, t.sim_s),
             "us", "wall time in RunUntil per simulated second");
  for (const auto& [name, unit] : {std::pair{"diskstore.append_bytes_per_user_byte", "ratio"},
                                   {"diskstore.append_us_per_insert", "us"},
                                   {"diskstore.syncs_per_insert", "count"},
                                   {"diskstore.reads_per_lookup", "count"},
                                   {"diskstore.compactions", "count"}}) {
    report.Add(name, 0, unit, "n/a: in-memory stores");
  }
  AddLayerTimes(spans, ops, &report);
  report.Add("obs.trace_overhead_share",
             1.0 - Ratio(Ratio(static_cast<double>(t.completed), t.engine_s),
                         Ratio(static_cast<double>(p.completed), p.engine_s)),
             "share", "play with spans vs the identical play without");
  if (!spans.WriteJsonl(options.trace_path)) {
    report.Fail("cannot write spans to " + options.trace_path);
  }
  report.Print();
  return report;
}

}  // namespace perfbench
