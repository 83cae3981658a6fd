#pragma once

// Double-buffered asynchronous block streams over LocalDisk.
//
// BlockReader prefetches up to `queue_depth` blocks ahead on the disk's
// background worker while the rank consumes the current one; BlockWriter
// buffers a block and hands it to the worker (write-behind), reaping the
// oldest outstanding request when the window is full.  Modeled-time
// accounting is overlap-aware: at reap the rank is charged only the stall
// past the request's scheduled completion on the single modeled disk arm
// (LocalDisk::plan_async / settle_async), so per block the charge is
// max(compute-between-reaps, io) instead of the sum — the paper's
// compute-independent parallel I/O.  io_hidden_s records what was hidden.
//
// With PipelineConfig.enabled == false both classes delegate verbatim to
// the synchronous RecordReader/RecordWriter, which makes the synchronous
// path the oracle for differential tests: identical bytes, identical
// modeled charges, no worker thread.

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/local_disk.hpp"

namespace pdc::io {

/// Tuning for the async pipeline; default-constructed = synchronous.
struct PipelineConfig {
  bool enabled = false;
  /// Outstanding async requests per stream (2 = classic double buffering).
  std::size_t queue_depth = 2;
};

/// Streams fixed-size records with background read-ahead.
template <mp::Wireable T>
class BlockReader {
 public:
  BlockReader(LocalDisk& disk, const std::string& name,
              std::size_t block_records, const PipelineConfig& cfg = {})
      : disk_(&disk),
        name_(name),
        block_records_(std::max<std::size_t>(1, block_records)) {
    // pdc: io-wrapper(opens the stream only; each block request is charged at LocalDisk::settle_async)
    if (!cfg.enabled) {
      sync_.emplace(disk, name, block_records_);
      return;
    }
    depth_ = std::max<std::size_t>(1, cfg.queue_depth);
    file_ = LocalDisk::FilePtr(std::fopen(disk.path_of(name).c_str(), "rb"));
    if (!file_) throw std::runtime_error("BlockReader: cannot open " + name);
    remaining_ = disk.file_records<T>(name);
    unrequested_ = remaining_;
    poison_ = std::make_shared<std::atomic<bool>>(false);
    refill();
  }

  /// The worker may still be filling our buffers: wait out every pending
  /// request (without charging — settlement is the success path's job)
  /// before the buffers and the FILE* die.
  ~BlockReader() {
    for (auto& p : pending_) p.slot->wait();
  }

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  /// Reads the next block into `out` (replacing its contents).  Returns
  /// false when the file is exhausted; ignoring it loses EOF (PDC003).
  [[nodiscard]] bool next_block(std::vector<T>& out) {
    if (sync_) return sync_->next_block(out);
    out.clear();
    if (pending_.empty()) return false;
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    const auto& res = p.slot->wait();
    disk_->settle_async(res, p.plan, p.bytes, /*is_write=*/false, name_);
    out = std::move(p.buf);
    remaining_ -= out.size();
    refill();
    return true;
  }

  std::size_t remaining() const {
    return sync_ ? sync_->remaining() : remaining_;
  }

 private:
  struct Pending {
    std::vector<T> buf;
    std::size_t bytes = 0;
    LocalDisk::AsyncPlan plan;
    std::shared_ptr<AsyncSlot> slot;
  };

  void refill() {
    while (pending_.size() < depth_ && unrequested_ > 0) {
      const std::size_t n = std::min(block_records_, unrequested_);
      unrequested_ -= n;
      Pending p;
      p.buf.resize(n);
      p.bytes = n * sizeof(T);
      p.plan = disk_->plan_async(p.bytes, /*is_write=*/false);
      AsyncRequest req;
      req.file = file_.get();
      req.is_write = false;
      req.dst = p.buf.data();
      req.bytes = p.bytes;
      req.issue_time_s = disk_->clock().total();
      req.name = name_;
      req.fault = disk_->fault_;
      req.retry = disk_->retry_;
      req.poison = poison_;
      p.slot = disk_->engine_.submit(std::move(req));
      pending_.push_back(std::move(p));
    }
  }

  LocalDisk* disk_;
  std::string name_;
  std::size_t block_records_;
  std::optional<RecordReader<T>> sync_;  ///< engaged when pipeline is off

  LocalDisk::FilePtr file_;
  std::size_t depth_ = 1;
  std::size_t remaining_ = 0;    ///< records not yet returned
  std::size_t unrequested_ = 0;  ///< records not yet submitted to the worker
  /// Shared with the disk worker thread, which stores true (release) on a
  /// torn/failed/short request; the rank thread and later worker requests
  /// load it with acquire.  The atomic is the only cross-thread field of
  /// this class -- everything else is confined to the owning rank thread.
  std::shared_ptr<std::atomic<bool>> poison_;
  std::deque<Pending> pending_;
};

/// One sequential pass over a node's records, the library's only spelling
/// of it: calls the visitor once per record, in stream order.  In-memory
/// nodes wrap a span in a lambda; file_scan() streams a file.
template <class T>
using Scan = std::function<void(const std::function<void(const T&)>&)>;

/// Each call streams file `name` from the start through a fresh reader.
template <mp::Wireable T>
Scan<T> file_scan(LocalDisk& disk, std::string name, std::size_t block_records,
                  const PipelineConfig& cfg = {}) {
  return [&disk, name = std::move(name), block_records,
          cfg](const std::function<void(const T&)>& visit) {
    BlockReader<T> reader(disk, name, block_records, cfg);
    std::vector<T> block;
    while (reader.next_block(block)) {
      for (const auto& r : block) visit(r);
    }
  };
}

/// Appends fixed-size records with background write-behind.  Close (or
/// destroy) to flush; faults surface on close()/append(), never in the
/// destructor (parity with RecordWriter).
template <mp::Wireable T>
class BlockWriter {
 public:
  BlockWriter(LocalDisk& disk, const std::string& name,
              std::size_t block_records, const PipelineConfig& cfg = {},
              bool append = false)
      : disk_(&disk),
        name_(name),
        block_records_(std::max<std::size_t>(1, block_records)) {
    // pdc: io-wrapper(opens the stream only; each block request is charged at LocalDisk::settle_async)
    if (!cfg.enabled) {
      sync_.emplace(disk, name, block_records_, append);
      return;
    }
    depth_ = std::max<std::size_t>(1, cfg.queue_depth);
    file_ = LocalDisk::FilePtr(
        std::fopen(disk.path_of(name).c_str(), append ? "ab" : "wb"));
    if (!file_) throw std::runtime_error("BlockWriter: cannot open " + name);
    poison_ = std::make_shared<std::atomic<bool>>(false);
    buffer_.reserve(block_records_);
  }

  ~BlockWriter() {
    try {
      close();
    } catch (...) {
    }
    // A close() abandoned by a fault leaves later requests outstanding:
    // wait them out so the worker stops touching our buffers.
    for (auto& p : pending_) p.slot->wait();
  }

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  void append(const T& rec) {
    if (sync_) {
      sync_->append(rec);
      return;
    }
    buffer_.push_back(rec);
    ++count_;
    if (buffer_.size() >= block_records_) enqueue();
  }

  void append(std::span<const T> recs) {
    for (const auto& r : recs) append(r);
  }

  void close() {
    if (sync_) {
      sync_->close();
      return;
    }
    if (!file_) return;
    enqueue();
    while (!pending_.empty()) reap_front();
    file_.reset();
  }

  /// Records appended so far (flushed or not).
  std::size_t count() const { return sync_ ? sync_->count() : count_; }

 private:
  struct Pending {
    std::vector<T> buf;
    std::size_t bytes = 0;
    LocalDisk::AsyncPlan plan;
    std::shared_ptr<AsyncSlot> slot;
  };

  void enqueue() {
    if (buffer_.empty()) return;
    if (pending_.size() >= depth_) reap_front();
    Pending p;
    p.buf = std::move(buffer_);
    buffer_.clear();
    buffer_.reserve(block_records_);
    p.bytes = p.buf.size() * sizeof(T);
    p.plan = disk_->plan_async(p.bytes, /*is_write=*/true);
    AsyncRequest req;
    req.file = file_.get();
    req.is_write = true;
    req.src = p.buf.data();
    req.bytes = p.bytes;
    req.issue_time_s = disk_->clock().total();
    req.name = name_;
    req.fault = disk_->fault_;
    req.retry = disk_->retry_;
    req.poison = poison_;
    p.slot = disk_->engine_.submit(std::move(req));
    pending_.push_back(std::move(p));
  }

  void reap_front() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    const auto& res = p.slot->wait();
    disk_->settle_async(res, p.plan, p.bytes, /*is_write=*/true, name_);
  }

  LocalDisk* disk_;
  std::string name_;
  std::size_t block_records_;
  std::optional<RecordWriter<T>> sync_;  ///< engaged when pipeline is off

  LocalDisk::FilePtr file_;
  std::size_t depth_ = 1;
  std::vector<T> buffer_;
  std::size_t count_ = 0;
  /// Cross-thread tear/fail flag; same acquire/release contract as
  /// BlockReader::poison_.
  std::shared_ptr<std::atomic<bool>> poison_;
  std::deque<Pending> pending_;
};

}  // namespace pdc::io
