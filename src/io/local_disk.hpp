#pragma once

// LocalDisk: a rank's private disk.
//
// Every access is a real file operation under the rank's scratch directory
// and simultaneously charges the rank's modeled clock with the disk cost
// model (positioning latency + bytes / bandwidth) and bumps IoStats.  Block
// granularity matters: one streaming block = one disk request, so algorithms
// that read a node's data in few large blocks are cheaper than ones that
// dribble — exactly the effect the paper's out-of-core analysis hinges on.
//
// Every request takes one path, whether it is a whole file (write_file,
// read_file) or one block of a BlockReader/BlockWriter stream
// (io/pipeline.hpp): io::execute() runs it -- inline on the rank thread, or
// on the disk's worker for a stream deeper than queue depth 0 -- and
// settle() books it on the rank thread.
//
// When constructed with a fault::RankFault, every disk request first asks
// the injector for a verdict.  Transient failures are retried with
// exponential backoff charged to the modeled clock; when the retry budget
// runs out, fault::DiskFault propagates.  An injected torn write puts a
// partial prefix of the payload on disk and then throws — modeling a crash
// mid-write, the case a checkpoint manifest exists to detect.
//
// Files are recycled, not unlinked (io/inode_pool.hpp): remove() keeps the
// emptied file as a free `.free.<k>` entry of the directory, and every file
// written from empty -- a BlockWriter stream or a write_file -- opens
// through open_empty(), which hands a new name a free file.  None of this
// is a disk request: the modeled clock, IoStats and the bytes on disk are
// the same as with fresh files.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "io/async_engine.hpp"
#include "io/inode_pool.hpp"
#include "io/iostats.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/serialize.hpp"
#include "obs/trace.hpp"

namespace pdc::io {

class LocalDisk {
 public:
  LocalDisk(std::filesystem::path dir, const mp::CostModel* cost,
            mp::Clock* clock, obs::RankTracer tracer = {},
            fault::RankFault* fault = nullptr, RetryPolicy retry = {})
      : dir_(std::move(dir)),
        pool_(dir_),
        cost_(cost),
        clock_(clock),
        tracer_(tracer),
        fault_(fault),
        retry_(retry) {}

  const std::filesystem::path& dir() const { return dir_; }
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  const mp::CostModel& cost() const { return *cost_; }
  mp::Clock& clock() { return *clock_; }

  std::filesystem::path path_of(const std::string& name) const {
    return dir_ / name;
  }

  [[nodiscard]] bool exists(const std::string& name) const {
    return std::filesystem::exists(path_of(name));
  }

  [[nodiscard]] std::size_t file_bytes(const std::string& name) const {
    std::error_code ec;
    const auto n = std::filesystem::file_size(path_of(name), ec);
    return ec ? 0 : static_cast<std::size_t>(n);
  }

  template <mp::Wireable T>
  [[nodiscard]] std::size_t file_records(const std::string& name) const {
    return file_bytes(name) / sizeof(T);
  }

  /// Drops `name` (a no-op if it is missing); its emptied file is kept
  /// for the next new name (InodePool::release).
  void remove(const std::string& name) { pool_.release(path_of(name)); }

  /// Opens `name` for writing from empty; null if it will not open
  /// (InodePool::open_empty).
  FilePtr open_empty(const std::string& name) {
    return pool_.open_empty(path_of(name));
  }

  /// Emptied files kept for reuse in this disk's directory.
  std::size_t free_files() const { return pool_.size(); }

  /// Write a whole typed file in one request (overwrites).  The file is
  /// opened only once the request's fault loop lets it through, so a write
  /// that gives up leaves the old file's bytes as they were.
  template <mp::Wireable T>
  void write_file(const std::string& name, std::span<const T> data) {
    const auto path = path_of(name);
    run_inline({.path = path.c_str(),
                .pool = &pool_,
                .is_write = true,
                .src = data.data(),
                .bytes = data.size_bytes()},
               name);
  }

  /// Read a whole typed file in one request.  The result must be consumed
  /// (pdc-lint PDC003): a discarded read still pays modeled I/O, which
  /// silently skews every downstream cost figure.
  template <mp::Wireable T>
  [[nodiscard]] std::vector<T> read_file(const std::string& name) {
    std::vector<T> out(file_records<T>(name));
    const auto path = path_of(name);
    run_inline({.path = path.c_str(),
                .dst = out.data(),
                .bytes = out.size() * sizeof(T)},
               name);
    return out;
  }

  // ------------------------------------------------- the request path ---
  // Every disk request goes through execute() (io/async_engine.hpp) and is
  // then settled here, on the rank thread: run_inline() for whole files
  // and queue-depth-0 streams, submit() + reap() for deeper streams.

  /// Runs `req` on the rank thread and settles it, charging the transfer's
  /// full modeled cost.  `name` is for error messages.
  void run_inline(DiskRequest req, const std::string& name) {
    req.issue_time_s = clock_->total();
    req.fault = fault_;
    req.retry = retry_;
    settle(execute(req), nullptr, req.bytes, req.is_write, name);
  }

  /// A request queued on the worker: its modeled schedule on the single
  /// disk arm (device-service cost and the absolute modeled time the arm
  /// finishes it) and its completion slot.
  struct Queued {
    double cost_s = 0.0;
    double done_at_s = 0.0;
    std::shared_ptr<AsyncSlot> slot;
  };

  /// Reserves the device timeline for `req`, issued now, and queues it on
  /// the worker.  The arm serves requests in issue order.
  Queued submit(DiskRequest req) {
    const double now = clock_->total();
    if (now < device_seen_now_) {
      // The rank clock moved backwards (e.g. a bench harness reset between
      // materialization and training): restart the device timeline.
      device_busy_until_ = now;
    }
    device_seen_now_ = now;
    Queued q;
    q.cost_s = req.is_write ? cost_->disk_write(req.bytes)
                            : cost_->disk_read(req.bytes);
    q.done_at_s = std::max(device_busy_until_, now) + q.cost_s;
    device_busy_until_ = q.done_at_s;
    req.issue_time_s = now;
    req.fault = fault_;
    req.retry = retry_;
    q.slot = engine_.submit(req);
    return q;
  }

  /// Waits for a queued request and settles it overlap-aware: only the
  /// stall past its `done_at_s` advances the timeline; the hidden
  /// remainder lands in io_hidden_s.
  void reap(const Queued& q, std::size_t bytes, bool is_write,
            const std::string& name) {
    settle(q.slot->wait(), &q, bytes, is_write, name);
  }

  /// The error a dead stream -- one whose earlier request died -- reports
  /// on every later call.
  static fault::DiskFault stream_failed(bool is_write,
                                        const std::string& name) {
    return fault::DiskFault(std::string("LocalDisk: ") +
                            (is_write ? "write" : "read") + " of " + name +
                            " after the stream failed");
  }

 private:
  /// Books one executed request on the rank thread: replays the retry
  /// ledger onto the modeled clock (one backoff span per sleep), throws
  /// fault::DiskFault for a request that gave up, tore or was skipped
  /// behind a dead one, and charges the transfer -- in full for an inline
  /// request, overlap-aware for a queued one.
  void settle(const DiskOutcome& out, const Queued* queued, std::size_t bytes,
              bool is_write, const std::string& name) {
    for (int i = 0; i < out.backoffs; ++i) {
      const double t0 = clock_->total();
      clock_->add_io(retry_.delay(i));
      tracer_.complete("disk_retry_backoff", "fault", t0, clock_->total());
    }
    if (out.backoffs > 0) {
      tracer_.count("fault.disk_retries",
                    static_cast<std::uint64_t>(out.backoffs));
    }
    if (out.failures > 0) {
      tracer_.count("fault.disk_injected",
                    static_cast<std::uint64_t>(out.failures));
    }
    const char* op = is_write ? "write" : "read";
    switch (out.status) {
      case DiskStatus::kFailed:
        throw fault::DiskFault(std::string("LocalDisk: ") + op + " of " + name +
                               " failed after " + std::to_string(out.failures) +
                               " attempts");
      case DiskStatus::kTorn:
        tracer_.count("fault.disk_torn");
        charge(/*is_write=*/true, out.torn_bytes);
        throw fault::DiskFault("LocalDisk: torn write to " + name + " (" +
                               std::to_string(out.torn_bytes) + "/" +
                               std::to_string(bytes) + " bytes)");
      case DiskStatus::kIoError:
        throw std::runtime_error(std::string("LocalDisk: cannot ") + op + " " +
                                 name);
      case DiskStatus::kSkipped:
        throw stream_failed(is_write, name);
      case DiskStatus::kOk:
        break;
    }
    if (out.failures > 0) tracer_.count("fault.disk_recovered");
    if (queued == nullptr) {
      charge(is_write, bytes);
      return;
    }
    count_request(is_write, bytes);
    const double t0 = clock_->total();
    clock_->charge_io_overlapped(queued->cost_s,
                                 std::max(0.0, queued->done_at_s - t0));
    tracer_.complete(is_write ? "disk_write_async" : "disk_read_async", "io",
                     t0, clock_->total(), bytes);
    tracer_.counter("io.hidden_s", clock_->snapshot().io_hidden_s);
  }

  /// Charges one transfer's full modeled cost (positioning + bytes /
  /// bandwidth) to the rank's clock.
  void charge(bool is_write, std::size_t bytes) {
    count_request(is_write, bytes);
    const double t0 = clock_->total();
    clock_->add_io(is_write ? cost_->disk_write(bytes)
                            : cost_->disk_read(bytes));
    tracer_.complete(is_write ? "disk_write" : "disk_read", "io", t0,
                     clock_->total(), bytes);
    device_busy_until_ = device_seen_now_ = clock_->total();
  }

  void count_request(bool is_write, std::size_t bytes) {
    if (is_write) {
      ++stats_.write_ops;
      stats_.bytes_written += bytes;
    } else {
      ++stats_.read_ops;
      stats_.bytes_read += bytes;
    }
  }

  std::filesystem::path dir_;
  InodePool pool_;
  const mp::CostModel* cost_;
  mp::Clock* clock_;
  /// Op-level trace events (disabled/no-op by default).
  obs::RankTracer tracer_;
  /// Fault injector (null = faults disabled).
  fault::RankFault* fault_ = nullptr;
  RetryPolicy retry_;
  IoStats stats_;
  /// Background worker for queued requests (thread lazily started; a run
  /// whose streams all have queue depth 0 never spawns it).
  AsyncEngine engine_;
  /// Modeled single-disk-arm timeline for queued requests.
  double device_busy_until_ = 0.0;
  double device_seen_now_ = 0.0;
};

}  // namespace pdc::io
