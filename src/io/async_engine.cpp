#include "io/async_engine.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>

namespace pdc::io {

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd open_kept(const char* path, bool is_write) {
  if (!is_write) return UniqueFd(::open(path, O_RDONLY | O_CLOEXEC));
  ::unlink(path);
  return UniqueFd(
      ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
}

namespace {

/// Moves the first `limit` bytes of the request along its runs; false if a
/// pread/pwrite fails or a read meets the end of the file.
bool transfer(const DiskRequest& req, int fd, std::size_t limit) {
  // pdc: io-wrapper(the real transfer of one request; the issuing rank books it on the modeled clock at LocalDisk::settle)
  std::size_t at = 0;
  for (const ByteRun& run : req.runs) {
    std::size_t done = 0;
    const std::size_t want = std::min(run.bytes, limit - at);
    while (done < want) {
      const auto off = static_cast<off_t>(run.offset + done);
      const ssize_t n =
          req.is_write
              ? ::pwrite(fd, static_cast<const std::byte*>(req.src) + at + done,
                         want - done, off)
              : ::pread(fd, static_cast<std::byte*>(req.dst) + at + done,
                        want - done, off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    at += want;
    if (at == limit) break;
  }
  return at == limit;
}

}  // namespace

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

  UniqueFd owned;
  int fd = req.fd;
  if (fd < 0) {
    owned = open_kept(req.path, req.is_write);
    fd = owned.get();
    if (fd < 0) return die(DiskStatus::kIoError);
  }
  if (tear) {
    // A crash mid-write: half the payload's bytes land on disk (the cut
    // need not fall on a record boundary), then the request dies.
    out.torn_bytes = req.bytes / 2;
    transfer(req, fd, out.torn_bytes);
    return die(DiskStatus::kTorn);
  }
  if (!transfer(req, fd, req.bytes)) return die(DiskStatus::kIoError);
  return out;
}

}  // namespace pdc::io
