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
// A file is one of two kinds, named by the call that creates it
// (BlockWriter, write_file).  A kept file -- the dataset, a checkpoint file
// -- is a real file of the rank directory, and a new one replaces the old
// inode of its name.  A task file (FileKind::kScratch) -- the driver's,
// the out-of-core builder's and SPRINT's node files, spills -- lives in
// the disk's scratch file (io/scratch_file.hpp) and vanishes with the
// disk.  Every lookup (BlockReader, read_file, file_bytes, exists, remove)
// checks the task files first, so a task file hides a kept file of the
// same name.  Both kinds move bytes by the same requests: the modeled
// clock, IoStats and fault verdicts do not depend on the kind.

#include <sys/stat.h>

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
#include "io/iostats.hpp"
#include "io/scratch_file.hpp"
#include "mp/clock.hpp"
#include "mp/cost_model.hpp"
#include "mp/serialize.hpp"
#include "obs/trace.hpp"

namespace pdc::io {

/// What a created file is.
enum class FileKind {
  kKept,     ///< a real file of the rank directory
  kScratch,  ///< a task file: pages of the disk's scratch file
};

/// A stream write into a task file at `offset`: once the request settles,
/// the file's length becomes the end of the bytes that landed.  Null
/// `pages` (a kept file, whose length the file system keeps) or a read
/// does nothing.
struct Landing {
  ScratchFile::Pages* pages = nullptr;
  std::uint64_t offset = 0;
};

class LocalDisk {
 public:
  LocalDisk(std::filesystem::path dir, const mp::CostModel* cost,
            mp::Clock* clock, obs::RankTracer tracer = {},
            fault::RankFault* fault = nullptr, RetryPolicy retry = {})
      : dir_(std::move(dir)),
        scratch_(dir_),
        cost_(cost),
        clock_(clock),
        tracer_(tracer),
        fault_(fault),
        retry_(retry) {
    std::filesystem::create_directories(dir_);
  }

  const std::filesystem::path& dir() const { return dir_; }
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  const mp::CostModel& cost() const { return *cost_; }
  mp::Clock& clock() { return *clock_; }

  std::filesystem::path path_of(const std::string& name) const {
    return dir_ / name;
  }

  [[nodiscard]] bool exists(const std::string& name) const {
    return scratch_.find(name) != nullptr ||
           std::filesystem::exists(path_of(name));
  }

  [[nodiscard]] std::size_t file_bytes(const std::string& name) const {
    if (const auto* file = scratch_.find(name)) return file->bytes;
    std::error_code ec;
    const auto n = std::filesystem::file_size(path_of(name), ec);
    return ec ? 0 : static_cast<std::size_t>(n);
  }

  template <mp::Wireable T>
  [[nodiscard]] std::size_t file_records(const std::string& name) const {
    return file_bytes(name) / sizeof(T);
  }

  /// Drops `name` (a no-op if it is missing): a task file's pages are
  /// freed, a kept file is unlinked.  No stream may be open on a task file
  /// that is removed or written again.
  void remove(const std::string& name) {
    if (scratch_.remove(name)) return;
    std::error_code ec;
    std::filesystem::remove(path_of(name), ec);
  }

  /// The disk's task files (tests and benches read its page counts).
  const ScratchFile& scratch() const { return scratch_; }

  /// Write a whole typed file in one request, replacing any old `name`.
  /// The old file is dropped only once the request's fault loop lets it
  /// through (a task file is written into new pages), so a write that
  /// gives up leaves the old file's bytes as they were.
  template <mp::Wireable T>
  void write_file(const std::string& name, std::span<const T> data,
                  FileKind kind = FileKind::kKept) {
    DiskRequest req{.is_write = true,
                    .src = data.data(),
                    .bytes = data.size_bytes()};
    if (kind == FileKind::kKept) {
      scratch_.remove(name);
      const auto path = path_of(name);
      const ByteRun run{0, req.bytes};
      req.path = path.c_str();
      req.runs = {&run, 1};
      run_inline(req, name);
      return;
    }
    ScratchFile::Pages fresh;
    std::vector<ByteRun> runs;
    scratch_.map(fresh, 0, req.bytes, runs);
    req.fd = scratch_.fd();
    req.runs = runs;
    const DiskOutcome out = execute(stamp(req));
    if (out.landed()) {
      fresh.bytes = out.landed_bytes(req.bytes);
      scratch_.install(name, std::move(fresh));
    } else {
      scratch_.release(fresh);
    }
    settle(out, nullptr, req.bytes, /*is_write=*/true, name);
  }

  /// Read a whole typed file in one request.  The result must be consumed
  /// (pdc-lint PDC003): a discarded read still pays modeled I/O, which
  /// silently skews every downstream cost figure.
  template <mp::Wireable T>
  [[nodiscard]] std::vector<T> read_file(const std::string& name) {
    std::vector<T> out(file_records<T>(name));
    const auto path = path_of(name);
    std::vector<ByteRun> runs;
    DiskRequest req{.dst = out.data(), .bytes = out.size() * sizeof(T)};
    if (auto* file = scratch_.find(name)) {
      scratch_.map(*file, 0, req.bytes, runs);
      req.fd = scratch_.fd();
    } else {
      runs.push_back({0, req.bytes});
      req.path = path.c_str();
    }
    req.runs = runs;
    run_inline(req, name);
    return out;
  }

  // ------------------------------------------------------- the streams ---
  // A BlockReader or BlockWriter holds a StreamFile and builds each block's
  // request with stream_request().

  /// A stream's file: a kept file's own descriptor, or a task file's pages.
  struct StreamFile {
    UniqueFd kept;
    ScratchFile::Pages* pages = nullptr;
    std::uint64_t bytes = 0;  ///< the file's length when it was opened
  };

  /// Opens `name` to read it; throws std::runtime_error if it is missing.
  StreamFile open_stream(const std::string& name) {
    StreamFile file;
    file.pages = scratch_.find(name);
    if (file.pages != nullptr) {
      file.bytes = file.pages->bytes;
      return file;
    }
    file.kept = open_kept(path_of(name).c_str(), /*is_write=*/false);
    struct stat st {};
    if (!file.kept || ::fstat(file.kept.get(), &st) != 0) {
      throw std::runtime_error("BlockReader: cannot open " + name);
    }
    file.bytes = static_cast<std::uint64_t>(st.st_size);
    return file;
  }

  /// Creates `name` from empty to write it, replacing any old `name`.
  StreamFile create_stream(const std::string& name, FileKind kind) {
    StreamFile file;
    if (kind == FileKind::kScratch) {
      file.pages = &scratch_.create(name);
      return file;
    }
    scratch_.remove(name);
    file.kept = open_kept(path_of(name).c_str(), /*is_write=*/true);
    if (!file.kept) {
      throw std::runtime_error("BlockWriter: cannot open " + name);
    }
    return file;
  }

  /// The request for bytes [offset, offset + bytes) of `file`, whose byte
  /// runs it puts in `runs` (a write takes the task-file pages it reaches).
  /// The caller fills in the direction, the buffer and the poison flag.
  DiskRequest stream_request(StreamFile& file, std::uint64_t offset,
                             std::size_t bytes, std::vector<ByteRun>& runs) {
    runs.clear();
    DiskRequest req{.bytes = bytes};
    if (file.pages != nullptr) {
      scratch_.map(*file.pages, offset, bytes, runs);
      req.fd = scratch_.fd();
    } else {
      runs.push_back({offset, bytes});
      req.fd = file.kept.get();
    }
    req.runs = runs;
    return req;
  }

  // ------------------------------------------------- the request path ---
  // Every disk request goes through execute() (io/async_engine.hpp) and is
  // then settled here, on the rank thread: run_inline() for whole files
  // and queue-depth-0 streams, submit() + reap() for deeper streams.

  /// Runs `req` on the rank thread and settles it, charging the transfer's
  /// full modeled cost.  `name` is for error messages.
  void run_inline(const DiskRequest& req, const std::string& name,
                  Landing landing = {}) {
    settle(execute(stamp(req)), nullptr, req.bytes, req.is_write, name,
           landing);
  }

  /// A request queued on the worker: its modeled schedule on the single
  /// disk arm (device-service cost and the absolute modeled time the arm
  /// finishes it) and its completion slot.
  struct Queued {
    double cost_s = 0.0;
    double done_at_s = 0.0;
    Landing landing;
    std::shared_ptr<AsyncSlot> slot;
  };

  /// Reserves the device timeline for `req`, issued now, and queues it on
  /// the worker.  The arm serves requests in issue order.
  Queued submit(const DiskRequest& req, Landing landing = {}) {
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
    q.landing = landing;
    q.slot = engine_.submit(stamp(req));
    return q;
  }

  /// Waits for a queued request and settles it overlap-aware: only the
  /// stall past its `done_at_s` advances the timeline; the hidden
  /// remainder lands in io_hidden_s.
  void reap(const Queued& q, std::size_t bytes, bool is_write,
            const std::string& name) {
    settle(q.slot->wait(), &q, bytes, is_write, name, q.landing);
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
  /// `req` issued now, under this disk's fault injector and retry policy.
  DiskRequest stamp(DiskRequest req) const {
    req.issue_time_s = clock_->total();
    req.fault = fault_;
    req.retry = retry_;
    return req;
  }

  /// Books one executed request on the rank thread: grows the task file a
  /// stream write landed in, replays the retry ledger onto the modeled
  /// clock (one backoff span per sleep), throws fault::DiskFault for a
  /// request that gave up, tore or was skipped behind a dead one, and
  /// charges the transfer -- in full for an inline request, overlap-aware
  /// for a queued one.
  void settle(const DiskOutcome& out, const Queued* queued, std::size_t bytes,
              bool is_write, const std::string& name, Landing landing = {}) {
    if (landing.pages != nullptr && is_write && out.landed()) {
      landing.pages->bytes = landing.offset + out.landed_bytes(bytes);
    }
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
  /// Declared before engine_, so the worker is joined before the scratch
  /// file's descriptor closes.
  ScratchFile scratch_;
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
