// SpanLog — the benchmark's own tracer.
//
// Spans are recorded only around calls the benchmark makes into a layer (or
// the layer makes into a benchmark-owned decorator), never inside the PAST
// sources. Calls nest on the one benchmark thread, so a stack gives every
// span its parent, and a span's self time is its duration minus the time its
// direct children cover. Spans stay in memory (up to a cap; aggregates keep
// counting past it) and are written out once, at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/report.h"

namespace perfbench {

enum class Layer : uint8_t {
  kHarnessGen,    // choosing the next op and its inputs
  kHarnessCheck,  // verifying an op's result against the generator's copy
  kStorageIssue,  // synchronous part of PastNode::Insert/Lookup/Reclaim
  kNetPoll,       // SocketTransport::PollOnce (includes timer dispatch)
  kNetHandler,    // NetReceiver::OnMessage (Pastry + PAST message handling)
  kNetSend,       // Transport::Send
  kDiskAppend,    // WritableFile::Append
  kDiskSync,      // WritableFile::Sync
  kDiskRead,      // Env::ReadFile / Env::ReadRange
  kSimRun,        // EventQueue::RunUntil (the whole simulated network)
  kCount,
};

const char* LayerName(Layer layer);

class SpanLog {
 public:
  static constexpr size_t kMaxKeptSpans = 1 << 20;

  bool enabled() const { return enabled_; }
  // Turning tracing off with spans open is not allowed; callers toggle only
  // between operations, when the stack is empty.
  void SetEnabled(bool on);

  void Begin(Layer layer, uint64_t op = 0);
  void End();

  // RAII wrapper; a no-op while tracing is off.
  class Scope {
   public:
    Scope(SpanLog* log, Layer layer, uint64_t op = 0)
        : log_(log != nullptr && log->enabled() ? log : nullptr) {
      if (log_ != nullptr) {
        log_->Begin(layer, op);
      }
    }
    ~Scope() {
      if (log_ != nullptr) {
        log_->End();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const Totals& totals(Layer layer) const { return totals_[static_cast<int>(layer)]; }
  int64_t self_ns_all() const;

  // Writes the kept spans as JSON lines: {"name","op","parent","start_ns","end_ns"}.
  bool WriteJsonl(const std::string& path) const;
  size_t kept() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    Layer layer;
    uint64_t op;
    int64_t start;
    int64_t child_ns;
    int64_t index;  // into spans_, -1 when not kept
  };
  struct Span {
    Layer layer;
    uint64_t op;
    int64_t parent;  // index into spans_, -1 for a root
    int64_t start;
    int64_t end;
  };

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  Totals totals_[static_cast<int>(Layer::kCount)];
};

// Adds harness.gen_us_per_op and every other layer's self time per op
// (self.<layer>_us_per_op), over `ops` ops completed while tracing.
// harness.gen has no child spans, so its self time is its total.
void AddLayerTimes(const SpanLog& spans, double ops, Report* report);

}  // namespace perfbench
