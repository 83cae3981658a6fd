#pragma once

// The one disk request path, and the background worker it may run on.
//
// Every disk request -- one block of a record stream, or a whole file -- is
// a DiskRequest run by execute(): the fault loop (consult the injector
// attempt by attempt, back off on a transient failure, tear, or give up
// once the retry budget is spent) and then the real transfer.  A request
// has one shape whatever file it moves: a descriptor plus the byte runs of
// that file to move with pread/pwrite, in memory order.  A kept file's
// stream request is one run at the stream's offset; a scratch file's
// request (io/scratch_file.hpp) is the runs of the pages it covers, which
// the rank thread maps before it issues the request.
// LocalDisk runs it inline on the rank thread for whole-file requests and
// for streams at queue depth 0; a deeper stream queues it on AsyncEngine,
// the disk's single worker thread.  execute() never touches the rank's
// modeled clock or tracer: it records every attempt's verdict, backoff and
// tear in the DiskOutcome, and the rank thread books the modeled time when
// it settles the request (LocalDisk::settle).
//
// The worker runs requests FIFO in the order the rank thread queued them,
// so the per-site fault-injection counters see the program-order sequence
// of disk requests at every queue depth, and scenarios replay
// deterministically even though the real I/O happens off-thread.
//
// A torn, failed or short request poisons its stream: the stream's later
// requests are skipped (no real I/O, no injector consult), so nothing is
// read or written behind a request that died.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "fault/fault.hpp"

namespace pdc::io {

/// Owns one file descriptor (-1 = none) and closes it.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    reset(std::exchange(other.fd_, -1));
    return *this;
  }
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Opens a kept file (a real file of the rank directory) at `path`: as it
/// is for reading, or for writing as a new, empty file that replaces the
/// old one.  The old inode is unlinked, not truncated: ext4 writes a file
/// truncated to zero out to the device when it is closed.  No descriptor
/// if it will not open.
UniqueFd open_kept(const char* path, bool is_write);

/// `bytes` bytes at byte `offset` of a file.
struct ByteRun {
  std::uint64_t offset = 0;
  std::size_t bytes = 0;
};

/// How LocalDisk rides through transient disk faults: up to `max_attempts`
/// tries per request, sleeping (on the modeled clock) `backoff_s` before
/// the first retry and `multiplier`× more before each further one.
struct RetryPolicy {
  int max_attempts = 4;
  double backoff_s = 8e-3;  ///< ~ one disk positioning delay
  double multiplier = 2.0;

  /// The sleep before retry `i` (0-based), the one backoff schedule:
  /// execute() arms `after_s` faults by it and LocalDisk::settle charges
  /// the modeled clock by it.
  double delay(int i) const {
    double d = backoff_s;
    for (int k = 0; k < i; ++k) d *= multiplier;
    return d;
  }
};

enum class DiskStatus {
  kOk,       ///< real I/O performed (possibly after absorbed retries)
  kFailed,   ///< injected failures exhausted the retry budget
  kTorn,     ///< injected torn write: partial prefix on disk, stream dead
  kSkipped,  ///< stream already dead: nothing touched the disk or injector
  kIoError,  ///< the file would not open or a pread/pwrite came up short
};

/// Everything the rank thread needs to settle one executed request: its
/// status plus the fault-retry ledger to replay onto the modeled clock.
struct DiskOutcome {
  DiskStatus status = DiskStatus::kOk;
  int failures = 0;            ///< injected transient failures observed
  int backoffs = 0;            ///< RetryPolicy::delay(0..backoffs-1) slept
  std::size_t torn_bytes = 0;  ///< bytes left on disk by a torn write

  /// Whether the request put bytes on disk: all of them, or a torn prefix.
  bool landed() const {
    return status == DiskStatus::kOk || status == DiskStatus::kTorn;
  }
  /// The bytes a landed request of `bytes` bytes put on disk.
  std::size_t landed_bytes(std::size_t bytes) const {
    return status == DiskStatus::kOk ? bytes : torn_bytes;
  }
};

struct DiskRequest {
  /// The file's descriptor: a stream's kept file, or the disk's scratch
  /// file.  -1 for a whole kept file, which execute() opens by `path` only
  /// once the fault loop lets the request through, so a write that gives
  /// up leaves the old file as it was.
  int fd = -1;
  const char* path = nullptr;
  /// Where the `bytes` bytes lie in the file, in memory order; their
  /// lengths sum to `bytes`.  The issuer owns them until the request is
  /// settled.
  std::span<const ByteRun> runs{};
  bool is_write = false;
  void* dst = nullptr;        ///< read destination (owned by the caller)
  const void* src = nullptr;  ///< write source (owned by the caller)
  std::size_t bytes = 0;
  /// Modeled clock at issue; `after_s` fault arming reads it plus the
  /// backoff slept so far, never the live clock (which the rank thread
  /// keeps moving while the worker runs the request).
  double issue_time_s = 0.0;
  fault::RankFault* fault = nullptr;
  RetryPolicy retry{};
  /// The stream's poison flag (null for a whole-file request): set by the
  /// request that dies, checked first by every later one.  The stream owns
  /// it and outlives its requests.
  std::atomic<bool>* poison = nullptr;
};

/// Runs one request: the fault loop, then the transfer (or the torn
/// prefix).  Thread-safe for requests of distinct streams.
DiskOutcome execute(const DiskRequest& req);

/// Completion slot for one queued request; the caller blocks in wait()
/// until the worker publishes the outcome.
class AsyncSlot {
 public:
  /// Blocks until the worker publishes the outcome.  The returned
  /// reference stays valid without the lock: complete() runs exactly once,
  /// and the worker never touches the slot again after setting done_.
  const DiskOutcome& wait() {
    LockGuard lock(mu_);
    while (!done_) {
      cv_.wait(lock);
    }
    return out_;
  }

 private:
  friend class AsyncEngine;

  void complete(const DiskOutcome& out) {
    {
      LockGuard lock(mu_);
      out_ = out;
      done_ = true;
    }
    cv_.notify_all();
  }

  Mutex mu_;
  CondVar cv_;
  bool done_ PDC_GUARDED_BY(mu_) = false;
  DiskOutcome out_ PDC_GUARDED_BY(mu_);
};

/// One background worker per LocalDisk, running execute() on the requests
/// of streams deeper than queue depth 0.
class AsyncEngine {
 public:
  AsyncEngine() = default;
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueue one request; lazily starts the worker thread on first use
  /// (a run whose streams all have queue depth 0 never spawns it).
  std::shared_ptr<AsyncSlot> submit(const DiskRequest& req);

 private:
  void run();

  // pdc: unshared(only the owning rank thread touches the handle -- in
  // submit to lazily spawn and in the destructor to join; the worker
  // never accesses its own std::thread object)
  std::thread worker_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::pair<DiskRequest, std::shared_ptr<AsyncSlot>>> queue_
      PDC_GUARDED_BY(mu_);
  bool stop_ PDC_GUARDED_BY(mu_) = false;
};

}  // namespace pdc::io
