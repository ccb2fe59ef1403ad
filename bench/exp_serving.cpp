// exp_serving — open-loop serving benchmark for the sharded group-commit
// storage engine: sustained ops/sec against a fixed p99 latency SLO.
//
// The driver is open-loop: every operation has a Poisson-scheduled arrival
// time (src/workload/serving.h) and its latency is measured from that
// scheduled arrival to completion, so queueing delay under overload lands in
// the percentiles instead of throttling the offered load. The sweep raises
// the offered rate and reports, per rate, achieved throughput and
// p50/p99/p999 insert/lookup latency out of the LogHistogram registry; the
// summary row is the highest offered rate whose insert p99 still meets the
// SLO — the "ops/sec at fixed p99" number BENCH_serving.json records.
//
// Flags beyond the shared exp_* set (--json/--smoke/--threads):
//   --shards <n>    shard count for the engine, 1..64 (default 4)
//   --slo-us <n>    insert p99 SLO in microseconds (default 50000 — wide
//                   enough that environment fsync jitter does not hide the
//                   saturation knee, tight enough that overload fails it)
//   --rate <r>      benchmark a single offered rate instead of the sweep
//   --seed <n>      workload seed (default 1)
//   --check         determinism mode: apply the schedule's logical ops (no
//                   pacing) through the full concurrent engine, then print a
//                   digest of the recovered store state. Output is
//                   byte-identical for any shard/thread combination —
//                   the serving_determinism ctest pins that.
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench/exp_util.h"
#include "src/common/check.h"
#include "src/common/crc32c.h"
#include "src/diskstore/sharded_store.h"
#include "src/workload/serving.h"

namespace past {
namespace {

struct ServingArgs {
  std::string json_path;
  bool smoke = false;
  bool check = false;
  int threads = 4;    // serving worker threads
  uint32_t shards = 4;
  double slo_us = 50000.0;
  double rate = 0.0;  // 0 = sweep
  uint64_t seed = 1;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json <path>] [--smoke] [--threads <n>]"
               " [--shards <n>] [--slo-us <n>] [--rate <r>] [--seed <n>]"
               " [--check]\n",
               argv0);
  std::exit(2);
}

ServingArgs ParseArgs(int argc, char** argv) {
  ServingArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args.check = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
      if (args.threads < 1) {
        Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[++i]);
      if (n < 1 || n > static_cast<int>(ShardedDiskStore::kMaxShards)) {
        Usage(argv[0]);
      }
      args.shards = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--slo-us") == 0 && i + 1 < argc) {
      args.slo_us = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      args.rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      Usage(argv[0]);
    }
  }
  return args;
}

// Self-cleaning mkdtemp directory, one per engine instance.
struct ScratchDir {
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "past-serving-XXXXXX")
            .string();
    PAST_CHECK_MSG(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed");
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

DiskStoreOptions EngineOptions(const ServingArgs& args,
                               MetricsRegistry* metrics) {
  DiskStoreOptions options;
  options.shard_count = args.shards;
  options.group_commit = true;
  options.background_compaction = true;
  options.cache_bytes = 8ULL << 20;
  options.metrics = metrics;
  return options;
}

ServingWorkloadOptions WorkloadOptions(const ServingArgs& args) {
  ServingWorkloadOptions options;
  options.seed = args.seed;
  options.prepopulate = args.smoke ? 256 : 2048;
  options.op_count = args.smoke ? 600 : 8000;
  options.insert_fraction = 0.2;
  options.zipf_s = 0.8;
  options.max_value_bytes = 16ULL << 10;
  return options;
}

struct RateResult {
  double offered = 0.0;
  double achieved = 0.0;
  uint64_t inserts = 0;
  uint64_t lookups = 0;
  uint64_t errors = 0;
  double insert_p50 = 0.0, insert_p99 = 0.0, insert_p999 = 0.0;
  double lookup_p50 = 0.0, lookup_p99 = 0.0, lookup_p999 = 0.0;
  JsonValue metrics = JsonValue::Object();
};

// Runs one offered rate against a fresh engine and returns the latency
// percentiles from the run's LogHistogram registry.
RateResult RunRate(const ServingArgs& args, double rate) {
  ScratchDir scratch;
  MetricsRegistry metrics;
  Result<std::unique_ptr<ShardedDiskStore>> opened =
      ShardedDiskStore::Open(scratch.path + "/store",
                             EngineOptions(args, &metrics));
  PAST_CHECK(opened.ok());
  ShardedDiskStore* store = opened.value().get();

  ServingWorkloadOptions wopts = WorkloadOptions(args);
  wopts.arrival_rate = rate;
  const ServingSchedule schedule = GenerateServingSchedule(wopts);
  for (const ServingOp& op : schedule.prepopulate) {
    Bytes value = ServingValue(op.value_seed, op.value_size);
    PAST_CHECK(store->Put(op.key, ByteSpan(value.data(), value.size())) ==
               StatusCode::kOk);
  }
  PAST_CHECK(store->Sync() == StatusCode::kOk);

  const int threads = args.threads;
  std::vector<std::vector<double>> insert_lat(threads);
  std::vector<std::vector<double>> lookup_lat(threads);
  std::vector<uint64_t> errors(threads, 0);
  std::vector<std::chrono::steady_clock::time_point> last_done(threads);

  const auto start = std::chrono::steady_clock::now();
  auto worker = [&](int t) {
    for (size_t i = static_cast<size_t>(t); i < schedule.ops.size();
         i += static_cast<size_t>(threads)) {
      const ServingOp& op = schedule.ops[i];
      const auto target = start + std::chrono::microseconds(op.arrival_us);
      std::this_thread::sleep_until(target);
      if (op.type == ServingOp::Type::kInsert) {
        Bytes value = ServingValue(op.value_seed, op.value_size);
        if (store->Put(op.key, ByteSpan(value.data(), value.size())) !=
            StatusCode::kOk) {
          ++errors[t];
        }
      } else {
        Result<Bytes> got = store->Get(op.key);
        if (!got.ok()) {
          ++errors[t];
        }
      }
      const auto done = std::chrono::steady_clock::now();
      last_done[t] = done;
      // Open-loop latency: completion minus *scheduled* arrival, so time
      // spent queued behind a saturated engine counts against the SLO.
      const double latency_us =
          std::chrono::duration<double, std::micro>(done - target).count();
      (op.type == ServingOp::Type::kInsert ? insert_lat : lookup_lat)[t]
          .push_back(latency_us);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  for (auto& t : pool) {
    t.join();
  }

  auto end = start;
  for (const auto& done : last_done) {
    end = std::max(end, done);
  }
  const double elapsed_s =
      std::chrono::duration<double>(end - start).count();

  // Merge worker-local samples into the shared registry on this thread —
  // the registry's instruments are not thread-safe.
  LogHistogram* h_insert =
      metrics.GetLogHistogram("serving.insert.latency_us");
  LogHistogram* h_lookup =
      metrics.GetLogHistogram("serving.lookup.latency_us");
  RateResult result;
  result.offered = rate;
  for (int t = 0; t < threads; ++t) {
    for (double v : insert_lat[t]) {
      h_insert->Observe(v);
    }
    for (double v : lookup_lat[t]) {
      h_lookup->Observe(v);
    }
    result.inserts += insert_lat[t].size();
    result.lookups += lookup_lat[t].size();
    result.errors += errors[t];
  }
  result.achieved =
      elapsed_s > 0.0
          ? static_cast<double>(schedule.ops.size()) / elapsed_s
          : 0.0;
  result.insert_p50 = h_insert->p50();
  result.insert_p99 = h_insert->p99();
  result.insert_p999 = h_insert->p999();
  result.lookup_p50 = h_lookup->p50();
  result.lookup_p99 = h_lookup->p99();
  result.lookup_p999 = h_lookup->p999();
  // Flush acknowledged state and snapshot the registry after the engine's
  // worker threads quiesce (destructor joins them).
  PAST_CHECK(store->Sync() == StatusCode::kOk);
  opened.value().reset();
  result.metrics = metrics.ToJson();
  return result;
}

// --check: apply the schedule's logical operations through the concurrent
// engine, reopen, and print a digest of the durable state plus
// order-independent lookup aggregates. Everything printed is a deterministic
// function of (seed, op_count) alone — not of shard count, thread count, or
// timing — which is exactly what the determinism gate diffs.
int RunCheck(const ServingArgs& args) {
  ScratchDir scratch;
  const std::string dir = scratch.path + "/store";
  const ServingSchedule schedule = GenerateServingSchedule(WorkloadOptions(args));
  uint64_t lookups_found = 0;
  uint64_t lookup_crc_sum = 0;
  {
    MetricsRegistry metrics;
    Result<std::unique_ptr<ShardedDiskStore>> opened =
        ShardedDiskStore::Open(dir, EngineOptions(args, &metrics));
    PAST_CHECK(opened.ok());
    ShardedDiskStore* store = opened.value().get();
    for (const ServingOp& op : schedule.prepopulate) {
      Bytes value = ServingValue(op.value_seed, op.value_size);
      PAST_CHECK(store->Put(op.key, ByteSpan(value.data(), value.size())) ==
                 StatusCode::kOk);
    }
    const int threads = args.threads;
    std::vector<uint64_t> found(threads, 0);
    std::vector<uint64_t> crc_sum(threads, 0);
    auto worker = [&](int t) {
      for (size_t i = static_cast<size_t>(t); i < schedule.ops.size();
           i += static_cast<size_t>(threads)) {
        const ServingOp& op = schedule.ops[i];
        if (op.type == ServingOp::Type::kInsert) {
          Bytes value = ServingValue(op.value_seed, op.value_size);
          PAST_CHECK(store->Put(op.key, ByteSpan(value.data(), value.size())) ==
                     StatusCode::kOk);
        } else {
          Result<Bytes> got = store->Get(op.key);
          if (got.ok()) {
            ++found[t];
            // Wrapping sum: commutative, so thread partitioning cannot
            // change the aggregate.
            crc_sum[t] += Crc32c(
                ByteSpan(got.value().data(), got.value().size()));
          }
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (auto& t : pool) {
      t.join();
    }
    for (int t = 0; t < threads; ++t) {
      lookups_found += found[t];
      lookup_crc_sum += crc_sum[t];
    }
    PAST_CHECK(store->Sync() == StatusCode::kOk);
  }

  // Reopen cold (no worker threads) and digest the recovered state in key
  // order.
  DiskStoreOptions reopen;
  reopen.shard_count = args.shards;
  Result<std::unique_ptr<ShardedDiskStore>> opened =
      ShardedDiskStore::Open(dir, reopen);
  PAST_CHECK(opened.ok());
  ShardedDiskStore* store = opened.value().get();
  std::vector<U160> keys = store->Keys();
  std::sort(keys.begin(), keys.end());
  uint32_t digest = 0;
  for (const U160& key : keys) {
    digest = Crc32cExtend(digest,
                          ByteSpan(key.bytes().data(), key.bytes().size()));
    Result<Bytes> value = store->Get(key);
    PAST_CHECK(value.ok());
    const uint32_t vcrc =
        Crc32c(ByteSpan(value.value().data(), value.value().size()));
    const uint8_t vcrc_bytes[4] = {
        static_cast<uint8_t>(vcrc), static_cast<uint8_t>(vcrc >> 8),
        static_cast<uint8_t>(vcrc >> 16), static_cast<uint8_t>(vcrc >> 24)};
    digest = Crc32cExtend(digest, ByteSpan(vcrc_bytes, 4));
  }
  std::printf("ops=%zu prepopulate=%zu\n", schedule.ops.size(),
              schedule.prepopulate.size());
  std::printf("lookups_found=%" PRIu64 " lookup_crc=%016" PRIx64 "\n",
              lookups_found, lookup_crc_sum);
  std::printf("state: keys=%zu digest=%08x\n", keys.size(), digest);
  return 0;
}

int Main(int argc, char** argv) {
  const ServingArgs args = ParseArgs(argc, argv);
  if (args.check) {
    return RunCheck(args);
  }

  PrintHeader("PAST serving path: open-loop load sweep (sharded group-commit engine)",
              "a storage utility must sustain heavy serving traffic; ops/sec "
              "is meaningful only at a latency SLO");
  std::printf("engine: %u shards, group commit (batch<=%" PRIu64
              ", window %" PRId64 "us), background compaction, 8 MiB cache;"
              " %d serving threads\n",
              args.shards, ShardedDiskStore::kCommitBatchMax,
              ShardedDiskStore::kCommitDelayUs, args.threads);

  std::vector<double> rates;
  if (args.rate > 0.0) {
    rates.push_back(args.rate);
  } else if (args.smoke) {
    rates = {400.0, 800.0};
  } else {
    rates = {1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0};
  }

  ExpArgs exp_args;
  exp_args.json_path = args.json_path;
  exp_args.smoke = args.smoke;
  ExpJson json(exp_args, "serving");

  std::printf("\n%10s %10s %8s %8s %7s  %27s  %27s\n", "offered/s", "achieved/s",
              "inserts", "lookups", "errors", "insert p50/p99/p999 (us)",
              "lookup p50/p99/p999 (us)");
  double slo_rate = 0.0;
  double slo_achieved = 0.0;
  JsonValue final_metrics = JsonValue::Object();
  for (double rate : rates) {
    RateResult r = RunRate(args, rate);
    std::printf("%10.0f %10.0f %8" PRIu64 " %8" PRIu64 " %7" PRIu64
                "  %8.0f /%8.0f /%8.0f  %8.0f /%8.0f /%8.0f\n",
                r.offered, r.achieved, r.inserts, r.lookups, r.errors,
                r.insert_p50, r.insert_p99, r.insert_p999, r.lookup_p50,
                r.lookup_p99, r.lookup_p999);
    JsonValue row = JsonValue::Object();
    row.Set("offered_per_sec", r.offered);
    row.Set("achieved_per_sec", r.achieved);
    row.Set("inserts", static_cast<double>(r.inserts));
    row.Set("lookups", static_cast<double>(r.lookups));
    row.Set("errors", static_cast<double>(r.errors));
    row.Set("insert_p50_us", r.insert_p50);
    row.Set("insert_p99_us", r.insert_p99);
    row.Set("insert_p999_us", r.insert_p999);
    row.Set("lookup_p50_us", r.lookup_p50);
    row.Set("lookup_p99_us", r.lookup_p99);
    row.Set("lookup_p999_us", r.lookup_p999);
    json.AddRow("sweep", std::move(row));
    if (r.errors == 0 && r.insert_p99 <= args.slo_us &&
        r.achieved > slo_achieved) {
      slo_rate = r.offered;
      slo_achieved = r.achieved;
    }
    final_metrics = std::move(r.metrics);
  }

  std::printf("\nSLO: insert p99 <= %.0f us -> max sustained %.0f ops/sec "
              "(offered %.0f/s)\n",
              args.slo_us, slo_achieved, slo_rate);
  JsonValue slo = JsonValue::Object();
  slo.Set("slo_p99_us", args.slo_us);
  slo.Set("max_ops_per_sec", slo_achieved);
  slo.Set("offered_per_sec", slo_rate);
  slo.Set("shards", static_cast<double>(args.shards));
  slo.Set("threads", static_cast<double>(args.threads));
  json.Set("slo", std::move(slo));
  // The metrics snapshot travels from the last (highest-rate) engine run:
  // serving.* latency histograms plus the engine's disk.commit.*,
  // disk.compact.*, and disk.cache.* instruments.
  json.SetMetricsJson(std::move(final_metrics));
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace past

int main(int argc, char** argv) { return past::Main(argc, argv); }
