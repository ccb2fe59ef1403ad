#include "src/spans.h"

#include <cstdio>

#include "src/common/check.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarnessGen:
      return "harness.gen";
    case Layer::kHarnessCheck:
      return "harness.check";
    case Layer::kStorageIssue:
      return "storage.issue";
    case Layer::kNetPoll:
      return "net.poll";
    case Layer::kNetHandler:
      return "net.handler";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kDiskAppend:
      return "diskstore.append";
    case Layer::kDiskSync:
      return "diskstore.sync";
    case Layer::kDiskRead:
      return "diskstore.read";
    case Layer::kSimRun:
      return "sim.run";
    case Layer::kCount:
      break;
  }
  return "?";
}

void SpanLog::SetEnabled(bool on) {
  PAST_CHECK_MSG(stack_.empty(), "tracing toggled inside an open span");
  enabled_ = on;
}

void SpanLog::Begin(Layer layer, uint64_t op) {
  int64_t index = -1;
  if (spans_.size() < kMaxKeptSpans) {
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back({layer, op, stack_.empty() ? -1 : stack_.back().index, 0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back({layer, op, NowNs(), 0, index});
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].start = stack_.back().start;
  }
}

void SpanLog::End() {
  PAST_CHECK(!stack_.empty());
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start;
  Totals& t = totals_[static_cast<int>(open.layer)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.index >= 0) {
    spans_[static_cast<size_t>(open.index)].end = end;
  }
}

int64_t SpanLog::self_ns_all() const {
  int64_t sum = 0;
  for (const Totals& t : totals_) {
    sum += t.self_ns;
  }
  return sum;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 LayerName(s.layer), static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent), static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

void AddLayerTimes(const SpanLog& spans, double ops, Report* report) {
  report->Add("harness.gen_us_per_op",
              Ratio(spans.totals(Layer::kHarnessGen).total_ns / 1e3, ops), "us",
              "outside every op's latency");
  for (int i = static_cast<int>(Layer::kHarnessGen) + 1; i < static_cast<int>(Layer::kCount);
       ++i) {
    const Layer layer = static_cast<Layer>(i);
    report->Add(std::string("self.") + LayerName(layer) + "_us_per_op",
                Ratio(spans.totals(layer).self_ns / 1e3, ops), "us",
                std::to_string(spans.totals(layer).count) + " spans");
  }
}

}  // namespace perfbench
