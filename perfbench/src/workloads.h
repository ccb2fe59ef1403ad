// The benchmark's workloads. Each runs in this one process on this one
// thread, drives PAST only through PastNode::Insert/Lookup/Reclaim, checks
// every result, and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "src/report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch directory for node state; wiped before the run and at exit.
  std::string work_dir;
  // Where the traced run writes its spans (JSON lines).
  std::string trace_path;
};

// Closed-loop operations kept in flight (= the cores of the reference box).
inline constexpr int kOutstanding = 4;

// small_hot / bulk_cold: 8 SocketTransport+PastryNode+PastNode stacks on
// loopback, disk-backed state.
Report RunLoopback(const RunOptions& options);

// sim_churn: a ~1000-node simulated PastNetwork with crashes.
Report RunSimChurn(const RunOptions& options);

}  // namespace perfbench
