// perfbench — the single-process PAST benchmark.
//
//   perfbench --workload small_hot|bulk_cold|sim_churn --seed N --seconds S
//             --trace 0|1 --work-dir DIR --trace-out FILE
//
// Prints a metric table and, last, one `PERFBENCH_RESULT {...}` line. Exits
// 1 when any output check, decorator self-check or determinism self-check
// failed, 2 on bad arguments. perfbench/run.py wraps it for the benchmark
// contract.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 || options.work_dir.empty() ||
      options.trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR --trace-out FILE\n");
    return 2;
  }
  perfbench::Report report;
  if (options.workload == "small_hot" || options.workload == "bulk_cold") {
    report = perfbench::RunLoopback(options);
  } else if (options.workload == "sim_churn") {
    report = perfbench::RunSimChurn(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  return report.correct ? 0 : 1;
}
