#pragma once

// Deterministic fault injection for the modeled shared-nothing machine.
//
// A FaultPlan is a seeded, replayable description of where the machine
// breaks: the Nth disk read/write on a chosen rank fails (or tears, leaving
// partial bytes on disk), or the Nth message-passing primitive on a chosen
// rank throws once the rank's modeled clock passes a threshold.  Because
// the runtime is deterministic, every failure scenario is fully identified
// by a (seed, site) pair and replays bit-identically — which is what makes
// recovery code testable at all.
//
// Per-rank state lives in RankFault (thread-confined, like Clock and
// RankTracer): operation counters advance as the rank issues disk requests
// and communication primitives, and a spec fires when its counter, rank and
// modeled-time conditions are all met.  Disk faults are reported to the
// caller (io::execute, the one disk request executor, implements
// retry-with-backoff and torn writes on top of them); communication faults
// throw CommFault directly, which the SPMD runtime turns into a whole-run
// abort — the "rank died" scenario that checkpoint/restart recovers from.

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "mp/clock.hpp"

namespace pdc::fault {

/// Where a fault strikes.  Disk sites are per-request; the comm site is
/// per collective primitive.
enum class FaultSite : int {
  kDiskRead = 0,
  kDiskWrite = 1,
  kCommCollective = 2,
};

std::string_view site_name(FaultSite site);

struct FaultSpec {
  FaultSite site = FaultSite::kDiskWrite;
  /// Rank the fault strikes on; -1 matches every rank (each keeps its own
  /// operation counter, so "-1, op=5" fails the 5th matching op everywhere).
  /// A plan naming a rank the run does not have is refused (check_ranks).
  int rank = -1;
  /// 1-based index of the matching operation that triggers the fault.
  std::uint64_t op = 1;
  /// Disk only: how many consecutive attempts fail once triggered.  Below
  /// the disk's retry budget the fault is transient (absorbed by
  /// retry-with-backoff); at or above it the operation throws DiskFault.
  int times = 1;
  /// Disk writes only: tear instead of failing cleanly — partial bytes hit
  /// the platter and the process dies mid-write (throws immediately, no
  /// retry).  Models the torn-write crash a checkpoint manifest must detect.
  bool torn = false;
  /// Arm only at or after this modeled time (seconds).
  double after_s = 0.0;
};

/// An immutable, shareable set of fault specs.  Thread-safe to read.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(const FaultSpec& spec) {
    specs_.push_back(spec);
    return *this;
  }

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  /// Parses the CLI grammar: specs separated by ';', each
  ///   site[:key=value]...
  /// with site in {disk_read, disk_write, comm_coll} and keys
  ///   rank=N  op=N  times=N  after=SECONDS  torn
  /// (-1 <= rank <= INT_MAX), e.g.
  /// "disk_write:rank=1:op=5:times=2;comm_coll:op=40".
  /// Throws std::invalid_argument on malformed input.
  static FaultPlan parse(const std::string& text);

  /// Round-trips through parse().
  std::string to_string() const;

  /// Throws std::invalid_argument, naming the spec, when a spec targets a
  /// rank >= nranks: such a fault could never fire.  Runtime::run calls it
  /// before any rank starts.
  void check_ranks(int nranks) const;

  /// A replayable scenario derived from a (seed, site-class) pair:
  /// `site_class` is "disk" (read/write/torn faults with varying
  /// transience) or "comm" (a collective primitive throwing on one rank).
  /// Identical inputs produce identical plans.
  static FaultPlan seeded(std::uint64_t seed, std::string_view site_class,
                          int nranks);

 private:
  std::vector<FaultSpec> specs_;
};

/// A disk request failed permanently (retries exhausted or torn write).
struct DiskFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A message-passing primitive failed (the rank "dies"; the runtime aborts
/// every other rank).  Not retryable — recovery is checkpoint/restart.
struct CommFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What the disk layer should do with the current request attempt.
enum class DiskAction {
  kProceed,        ///< no fault: perform the real I/O
  kFailTransient,  ///< the attempt fails; caller may back off and retry
  kTear,           ///< write partial bytes, then die (throw, no retry)
};

/// Per-rank injector: mutable counters over a shared FaultPlan.  State is
/// guarded by an internal mutex because a rank's async I/O worker consults
/// disk sites concurrently with the rank thread consulting comm sites (the
/// per-site counters stay deterministic: each site class is only ever
/// advanced from one thread, in program order).  A default-constructed
/// RankFault is disabled and free.
class RankFault {
 public:
  RankFault() = default;
  RankFault(const FaultPlan* plan, int rank, const mp::Clock* clock);

  /// (Re)arm a default-constructed injector in place — RankFault owns a
  /// mutex and is neither movable nor copyable, so containers hold it
  /// default-constructed and arm it afterwards.
  void init(const FaultPlan* plan, int rank, const mp::Clock* clock) {
    plan_ = plan;
    rank_ = rank;
    clock_ = clock;
    LockGuard lock(mu_);
    ops_ = {};
    remaining_.assign(plan != nullptr ? plan->specs().size() : 0, -1);
    injected_ = 0;
  }

  bool enabled() const { return plan_ != nullptr && !plan_->specs().empty(); }
  int rank() const { return rank_; }

  /// Consult before a disk request attempt.  Triggered specs drain their
  /// remaining failure count first, so the retries of one logical request
  /// keep failing until the spec is spent.  `now_s` arms `after_s` specs:
  /// the request's modeled issue time plus the backoff it has slept so
  /// far, never the rank's live clock, which the rank thread keeps moving
  /// while the disk worker runs a queued request.
  DiskAction on_disk(bool is_write, double now_s);

  /// Consult at the entry of a collective primitive; throws CommFault when
  /// an armed spec fires.
  void on_comm(std::string_view prim);

  /// Failures injected on this rank so far (all sites).
  std::uint64_t injected() const {
    LockGuard lock(mu_);
    return injected_;
  }

 private:
  double now() const { return clock_ ? clock_->total() : 0.0; }
  bool matches(const FaultSpec& spec, FaultSite site, double now_s) const
      PDC_REQUIRES(mu_);

  // pdc: unshared(armed by init and the constructor before any
  // concurrent use and read-only thereafter; both threads only read it)
  const FaultPlan* plan_ = nullptr;
  // pdc: unshared(armed before concurrent use, read-only thereafter)
  int rank_ = 0;
  // pdc: unshared(armed before concurrent use, read-only thereafter)
  const mp::Clock* clock_ = nullptr;
  mutable Mutex mu_;
  /// Per-site operation counters.
  std::array<std::uint64_t, 3> ops_ PDC_GUARDED_BY(mu_) = {};
  /// Per spec: -1 = not yet triggered, otherwise failing attempts left.
  std::vector<int> remaining_ PDC_GUARDED_BY(mu_);
  std::uint64_t injected_ PDC_GUARDED_BY(mu_) = 0;
};

}  // namespace pdc::fault
