#pragma once

// Record streams over LocalDisk: BlockReader and BlockWriter move
// fixed-size records `block_records` at a time, one disk request per block,
// and are the library's only record streams.
//
// PipelineConfig::queue_depth picks where each request runs.  At depth 0
// (the default) the stream runs it inline on the rank thread and is
// charged its full modeled cost: the synchronous stream, and the oracle
// every differential test compares against.  The reader then fills the
// caller's vector and the writer keeps one buffer, so a block costs no
// allocation.  At depth N >= 1 the reader keeps up to N blocks in flight on
// the disk's worker (read-ahead) and the writer hands each full block to it
// (write-behind), reaping the oldest outstanding request when the window is
// full.  Modeled time is then overlap-aware: at reap the rank is charged
// only the stall past the request's scheduled completion on the single
// modeled disk arm (LocalDisk::submit / reap), so per block the charge is
// max(compute-between-reaps, io) instead of the sum -- the paper's
// compute-independent parallel I/O.  io_hidden_s records what was hidden.
// Every depth runs the same executor (io::execute), so faults retry, tear
// and give up alike.  A request that dies kills its stream: the worker
// skips the requests queued behind it, and every later next_block(),
// append() that flushes, or close() throws fault::DiskFault
// (LocalDisk::stream_failed) instead of reporting data never moved.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/local_disk.hpp"

namespace pdc::io {

/// Tuning for the block streams: requests each stream keeps in flight on
/// the disk's worker (2 = classic double buffering).  0, the default, is
/// the synchronous stream.
struct PipelineConfig {
  std::size_t queue_depth = 0;
};

/// Streams fixed-size records, with read-ahead at queue depth >= 1.
template <mp::Wireable T>
class BlockReader {
 public:
  BlockReader(LocalDisk& disk, const std::string& name,
              std::size_t block_records, const PipelineConfig& cfg = {})
      : disk_(&disk),
        name_(name),
        block_records_(std::max<std::size_t>(1, block_records)),
        depth_(cfg.queue_depth),
        file_(disk.open_stream(name)),
        remaining_(file_.bytes / sizeof(T)),
        unrequested_(remaining_) {
    refill();
  }

  /// The worker may still be filling our buffers: wait out every pending
  /// request (without charging -- settlement is the success path's job)
  /// before the buffers, the poison flag and the descriptor die.
  ~BlockReader() {
    for (auto& p : pending_) p.queued.slot->wait();
  }

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  /// Reads the next block into `out` (replacing its contents).  Returns
  /// false, with `out` empty, when the file is exhausted; ignoring it
  /// loses EOF (PDC003).  After a throw, `out`'s contents are unspecified
  /// and the stream is dead: every later call throws too.
  [[nodiscard]] bool next_block(std::vector<T>& out) {
    if (remaining_ == 0) {
      out.clear();
      return false;
    }
    if (failed_) throw LocalDisk::stream_failed(/*is_write=*/false, name_);
    failed_ = true;  // until this block has settled
    if (depth_ == 0) {
      // Same-size blocks reuse `out` as it is: the read overwrites every
      // record, so nothing is value-initialised first.
      out.resize(std::min(block_records_, remaining_));
      disk_->run_inline(request(out, runs_), name_);
    } else {
      Pending p = std::move(pending_.front());
      pending_.pop_front();
      disk_->reap(p.queued, p.buf.size() * sizeof(T), /*is_write=*/false,
                  name_);
      out = std::move(p.buf);
      refill();
    }
    failed_ = false;
    remaining_ -= out.size();
    return true;
  }

  std::size_t remaining() const { return remaining_; }

 private:
  struct Pending {
    std::vector<T> buf;
    std::vector<ByteRun> runs;
    LocalDisk::Queued queued;
  };

  /// The request for the next `buf.size()` records, runs kept in `runs`.
  DiskRequest request(std::vector<T>& buf, std::vector<ByteRun>& runs) {
    const std::size_t bytes = buf.size() * sizeof(T);
    DiskRequest req = disk_->stream_request(file_, offset_, bytes, runs);
    req.dst = buf.data();
    req.poison = &poison_;
    offset_ += bytes;
    return req;
  }

  /// Keeps `depth_` blocks queued on the worker (none at depth 0).
  void refill() {
    while (pending_.size() < depth_ && unrequested_ > 0) {
      const std::size_t n = std::min(block_records_, unrequested_);
      unrequested_ -= n;
      Pending p;
      p.buf.resize(n);
      p.queued = disk_->submit(request(p.buf, p.runs));
      pending_.push_back(std::move(p));
    }
  }

  LocalDisk* disk_;
  std::string name_;
  std::size_t block_records_;
  std::size_t depth_;
  LocalDisk::StreamFile file_;
  std::size_t remaining_ = 0;    ///< records not yet returned
  std::size_t unrequested_ = 0;  ///< records not yet queued on the worker
  std::uint64_t offset_ = 0;     ///< bytes requested so far
  std::vector<ByteRun> runs_;    ///< the depth-0 request's runs
  /// Set by the rank thread when a call throws: the stream is dead.  Unlike
  /// poison_, it changes only in program order, so every depth fails the
  /// same later calls.
  bool failed_ = false;
  /// Set by io::execute when one of this stream's requests dies, so the
  /// requests queued behind it are skipped.  At depth >= 1 the worker
  /// stores it (release) and later requests load it (acquire).  It is the
  /// only field the worker touches; the blocks it fills are read by the
  /// rank thread only after their reap.
  std::atomic<bool> poison_{false};
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

/// Appends fixed-size records, with write-behind at queue depth >= 1.
/// Close (or destroy) to flush; faults surface on append() or close(),
/// never in the destructor.  After a fault the stream is dead: every later
/// append() that flushes a block, and close(), throws too.
template <mp::Wireable T>
class BlockWriter {
 public:
  /// Writes `name` from empty, as a file of `kind`.
  BlockWriter(LocalDisk& disk, const std::string& name,
              std::size_t block_records, const PipelineConfig& cfg = {},
              FileKind kind = FileKind::kKept)
      : disk_(&disk),
        name_(name),
        block_records_(std::max<std::size_t>(1, block_records)),
        depth_(cfg.queue_depth),
        file_(disk.create_stream(name, kind)) {
    buffer_.reserve(block_records_);
  }

  /// Destruction flushes, but swallows disk faults: the destructor may be
  /// running during unwinding from another fault, and the writing code is
  /// expected to close() explicitly on its success path (where faults DO
  /// propagate).  A close() abandoned by a fault leaves later requests
  /// outstanding: wait them out so the worker stops touching our buffers.
  ~BlockWriter() {
    try {
      close();
    } catch (...) {
    }
    for (auto& p : pending_) p.queued.slot->wait();
  }

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  void append(const T& rec) {
    buffer_.push_back(rec);
    ++count_;
    if (buffer_.size() >= block_records_) flush();
  }

  void append(std::span<const T> recs) {
    for (const auto& r : recs) append(r);
  }

  void close() {
    if (closed_) return;
    flush();
    while (!pending_.empty()) reap_front();
    file_.kept.reset();
    closed_ = true;
  }

  /// Records appended so far (flushed or not).
  std::size_t count() const { return count_; }

 private:
  struct Pending {
    std::vector<T> buf;
    std::vector<ByteRun> runs;
    LocalDisk::Queued queued;
  };

  /// The request for `buf`, runs kept in `runs`, and where it lands.
  std::pair<DiskRequest, Landing> request(
      const std::vector<T>& buf, std::vector<ByteRun>& runs) {
    const std::size_t bytes = buf.size() * sizeof(T);
    DiskRequest req = disk_->stream_request(file_, offset_, bytes, runs);
    req.is_write = true;
    req.src = buf.data();
    req.poison = &poison_;
    const Landing landing{file_.pages, offset_};
    offset_ += bytes;
    return {req, landing};
  }

  /// One request for the buffered block: written inline from the one
  /// buffer at depth 0, else handed to the worker with the buffer.
  void flush() {
    if (failed_) throw LocalDisk::stream_failed(/*is_write=*/true, name_);
    if (buffer_.empty() || closed_) return;
    if (depth_ == 0) {
      failed_ = true;  // until the block has settled
      const auto [req, landing] = request(buffer_, runs_);
      disk_->run_inline(req, name_, landing);
      failed_ = false;
      buffer_.clear();
      return;
    }
    if (pending_.size() >= depth_) reap_front();
    Pending p;
    p.buf = std::move(buffer_);
    buffer_.clear();
    buffer_.reserve(block_records_);
    const auto [req, landing] = request(p.buf, p.runs);
    p.queued = disk_->submit(req, landing);
    pending_.push_back(std::move(p));
  }

  void reap_front() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    failed_ = true;  // until the block has settled
    disk_->reap(p.queued, p.buf.size() * sizeof(T), /*is_write=*/true, name_);
    failed_ = false;
  }

  LocalDisk* disk_;
  std::string name_;
  std::size_t block_records_;
  std::size_t depth_;
  LocalDisk::StreamFile file_;
  bool closed_ = false;
  std::uint64_t offset_ = 0;   ///< bytes requested so far
  std::vector<ByteRun> runs_;  ///< the depth-0 request's runs
  std::vector<T> buffer_;
  std::size_t count_ = 0;
  /// Same contracts as BlockReader::failed_ and BlockReader::poison_.
  bool failed_ = false;
  std::atomic<bool> poison_{false};
  std::deque<Pending> pending_;
};

}  // namespace pdc::io
