// Benchmark-owned decorators that measure the net and diskstore layers from
// outside: TimedTransport wraps a SocketTransport (and the NetReceiver the
// overlay registers with it), TimedEnv wraps the engine's Env. Both always
// count calls and bytes, so a run can check them against the wrapped layer's
// own counters; they record spans only while the SpanLog is enabled.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/diskstore/env.h"
#include "src/net/frame.h"
#include "src/net/socket_transport.h"
#include "src/spans.h"

namespace perfbench {

class TimedTransport : public past::Transport, private past::NetReceiver {
 public:
  TimedTransport(past::SocketTransport* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  past::StatusCode PollOnce(int timeout_ms) {
    SpanLog::Scope scope(spans_, Layer::kNetPoll);
    return inner_->PollOnce(timeout_ms);
  }

  past::NodeAddr Register(past::NetReceiver* receiver) override {
    receiver_ = receiver;
    return inner_->Register(this);
  }
  void Send(past::NodeAddr from, past::NodeAddr to, past::SharedBytes wire) override {
    if (to != inner_->local_addr()) {
      ++remote_sends_;
      remote_frame_bytes_ += past::kFrameHeaderSize + wire.size();
    }
    SpanLog::Scope scope(spans_, Layer::kNetSend);
    inner_->Send(from, to, std::move(wire));
  }
  using past::Transport::Send;
  double Proximity(past::NodeAddr a, past::NodeAddr b) const override {
    return inner_->Proximity(a, b);
  }
  void SetUp(past::NodeAddr addr, bool up) override { inner_->SetUp(addr, up); }
  bool IsUp(past::NodeAddr addr) const override { return inner_->IsUp(addr); }
  past::EventQueue* queue() override { return inner_->queue(); }
  past::TimerWheel* wheel() override { return inner_->wheel(); }
  past::MetricsRegistry& metrics() override { return inner_->metrics(); }
  past::Tracer& tracer() override { return inner_->tracer(); }

  // Sends addressed to another endpoint, and their framed size (header +
  // payload) — what the socket layer should have put on the wire.
  uint64_t remote_sends() const { return remote_sends_; }
  uint64_t remote_frame_bytes() const { return remote_frame_bytes_; }

 private:
  void OnMessage(past::NodeAddr from, past::ByteSpan wire) override {
    SpanLog::Scope scope(spans_, Layer::kNetHandler);
    receiver_->OnMessage(from, wire);
  }

  past::SocketTransport* inner_;
  SpanLog* spans_;
  past::NetReceiver* receiver_ = nullptr;
  uint64_t remote_sends_ = 0;
  uint64_t remote_frame_bytes_ = 0;
};

class TimedEnv : public past::Env {
 public:
  TimedEnv(past::Env* inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  past::StatusCode CreateDirs(const std::string& dir) override {
    return inner_->CreateDirs(dir);
  }
  past::StatusCode ListDir(const std::string& dir, std::vector<std::string>* names) override {
    return inner_->ListDir(dir, names);
  }
  past::StatusCode NewWritableFile(const std::string& path,
                                   std::unique_ptr<past::WritableFile>* out) override;
  past::StatusCode ReadFile(const std::string& path, past::Bytes* out) override {
    ++reads_;
    SpanLog::Scope scope(spans_, Layer::kDiskRead);
    return inner_->ReadFile(path, out);
  }
  past::StatusCode ReadRange(const std::string& path, uint64_t offset, size_t length,
                             past::Bytes* out) override {
    ++reads_;
    SpanLog::Scope scope(spans_, Layer::kDiskRead);
    return inner_->ReadRange(path, offset, length, out);
  }
  past::StatusCode FileSize(const std::string& path, uint64_t* size) override {
    return inner_->FileSize(path, size);
  }
  past::StatusCode RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  past::StatusCode TruncateFile(const std::string& path, uint64_t size) override {
    return inner_->TruncateFile(path, size);
  }
  bool FileExists(const std::string& path) override { return inner_->FileExists(path); }

  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t reads() const { return reads_; }

 private:
  friend class TimedFile;

  past::Env* inner_;
  SpanLog* spans_;
  uint64_t appended_bytes_ = 0;
  uint64_t syncs_ = 0;
  uint64_t reads_ = 0;
};

}  // namespace perfbench
