#include "src/decorators.h"

namespace perfbench {

class TimedFile : public past::WritableFile {
 public:
  TimedFile(std::unique_ptr<past::WritableFile> inner, TimedEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  past::StatusCode Append(past::ByteSpan data) override {
    SpanLog::Scope scope(env_->spans_, Layer::kDiskAppend);
    past::StatusCode status = inner_->Append(data);
    if (status == past::StatusCode::kOk) {
      env_->appended_bytes_ += data.size();
    }
    return status;
  }
  past::StatusCode Sync() override {
    ++env_->syncs_;
    SpanLog::Scope scope(env_->spans_, Layer::kDiskSync);
    return inner_->Sync();
  }
  past::StatusCode Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<past::WritableFile> inner_;
  TimedEnv* env_;
};

past::StatusCode TimedEnv::NewWritableFile(const std::string& path,
                                           std::unique_ptr<past::WritableFile>* out) {
  std::unique_ptr<past::WritableFile> file;
  past::StatusCode status = inner_->NewWritableFile(path, &file);
  if (status == past::StatusCode::kOk) {
    *out = std::make_unique<TimedFile>(std::move(file), this);
  }
  return status;
}

}  // namespace perfbench
