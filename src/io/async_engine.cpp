#include "io/async_engine.hpp"

namespace pdc::io {

AsyncEngine::~AsyncEngine() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::shared_ptr<AsyncSlot> AsyncEngine::submit(const DiskRequest& req) {
  auto slot = std::make_shared<AsyncSlot>();
  {
    LockGuard lock(mu_);
    if (!worker_.joinable()) {
      worker_ = std::thread([this] { run(); });
    }
    queue_.emplace_back(req, slot);
  }
  cv_.notify_one();
  return slot;
}

void AsyncEngine::run() {
  for (;;) {
    std::pair<DiskRequest, std::shared_ptr<AsyncSlot>> item;
    {
      LockGuard lock(mu_);
      while (!stop_ && queue_.empty()) {
        cv_.wait(lock);
      }
      if (queue_.empty()) {
        // stop_ with a drained queue: outstanding slots have all been
        // published; nothing can be enqueued after the destructor ran.
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    item.second->complete(execute(item.first));
  }
}

DiskOutcome execute(const DiskRequest& req) {
  // pdc: io-wrapper(runs one request's attempts and transfer; the issuing rank books it on the modeled clock at LocalDisk::settle)
  DiskOutcome out;
  if (req.poison && req.poison->load(std::memory_order_acquire)) {
    out.status = DiskStatus::kSkipped;
    return out;
  }
  const auto die = [&](DiskStatus status) {
    if (req.poison) req.poison->store(true, std::memory_order_release);
    out.status = status;
    return out;
  };

  bool tear = false;
  if (req.fault != nullptr && req.fault->enabled()) {
    double slept = 0.0;
    for (int attempt = 1;; ++attempt) {
      const auto action =
          req.fault->on_disk(req.is_write, req.issue_time_s + slept);
      if (action == fault::DiskAction::kProceed) break;
      if (action == fault::DiskAction::kTear) {
        tear = true;
        break;
      }
      ++out.failures;
      if (attempt >= req.retry.max_attempts) return die(DiskStatus::kFailed);
      slept += req.retry.delay(out.backoffs++);
    }
  }

  FilePtr owned;
  std::FILE* file = req.file;
  if (file == nullptr) {
    owned = req.is_write ? req.pool->open_empty(req.path)
                         : FilePtr(std::fopen(req.path, "rb"));
    file = owned.get();
    if (file == nullptr) return die(DiskStatus::kIoError);
  }
  if (tear) {
    // A crash mid-write: half the payload's bytes land on disk (the cut
    // need not fall on a record boundary), then the request dies.
    out.torn_bytes = req.bytes / 2;
    if (out.torn_bytes != 0) std::fwrite(req.src, 1, out.torn_bytes, file);
    std::fflush(file);  // make the partial prefix durable
    return die(DiskStatus::kTorn);
  }
  if (req.bytes != 0) {
    const std::size_t done =
        req.is_write ? std::fwrite(req.src, 1, req.bytes, file)
                     : std::fread(req.dst, 1, req.bytes, file);
    if (done != req.bytes) return die(DiskStatus::kIoError);
  }
  return out;
}

}  // namespace pdc::io
