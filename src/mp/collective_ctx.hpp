#pragma once

// Shared rendezvous state for collective operations — the runtime's only
// way to move data between ranks.
//
// Collectives move their data through shared slots guarded by a central
// sense-reversing barrier (fine for the tens of virtual processors this
// runtime targets) and charge modeled time via the Table-1 cost formulas,
// so the modeled cost is exactly the paper's analysis.  Every collective
// runs the same three phases (Comm::rendezvous): publish (payload, modeled
// time, lockstep claim), read every slot, then release the slots for the
// next collective.  These barriers are the only blocking calls of an SPMD
// run, and abort() wakes all of them with AbortError.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

#include "mp/lockstep.hpp"

namespace pdc::mp {

/// Thrown out of a blocked collective when the runtime aborts the program
/// because some rank raised an exception.
struct AbortError : std::runtime_error {
  AbortError() : std::runtime_error("pdc::mp program aborted") {}
};

/// Central sense-reversing barrier over `n` participants, abortable.
class CentralBarrier {
 public:
  explicit CentralBarrier(int n) : n_(n) {}

  void arrive_and_wait() {
    LockGuard lock(mu_);
    if (aborted_) throw AbortError{};
    const std::size_t my_gen = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      while (generation_ == my_gen && !aborted_) {
        cv_.wait(lock);
      }
      if (generation_ == my_gen && aborted_) throw AbortError{};
    }
  }

  void abort() {
    {
      LockGuard lock(mu_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

 private:
  const int n_;
  int arrived_ PDC_GUARDED_BY(mu_) = 0;
  std::size_t generation_ PDC_GUARDED_BY(mu_) = 0;
  bool aborted_ PDC_GUARDED_BY(mu_) = false;
  Mutex mu_;
  CondVar cv_;
};

/// Per-collective shared scratch: one byte-vector slot and one double slot
/// per rank, plus phase barriers so one collective's epilogue cannot race
/// the next collective's prologue.
class CollectiveContext {
 public:
  explicit CollectiveContext(int nprocs)
      : nprocs_(nprocs),
        slots_(static_cast<std::size_t>(nprocs)),
        times_(static_cast<std::size_t>(nprocs), 0.0),
        audits_(static_cast<std::size_t>(nprocs)),
        enter_(nprocs),
        mid_(nprocs),
        exit_(nprocs) {}

  int nprocs() const { return nprocs_; }

  std::vector<std::byte>& slot(int rank) {
    return slots_[static_cast<std::size_t>(rank)];
  }
  double& time_slot(int rank) { return times_[static_cast<std::size_t>(rank)]; }
  /// The rank's lockstep claim for the collective in flight (written before
  /// publish_barrier, cross-checked by every rank after it).
  LockstepRecord& audit_slot(int rank) {
    return audits_[static_cast<std::size_t>(rank)];
  }

  /// Phase 1: everyone has published local data + local modeled time.
  void publish_barrier() { enter_.arrive_and_wait(); }
  /// Phase 2: everyone has read everyone's slots.
  void read_barrier() { mid_.arrive_and_wait(); }
  /// Phase 3: slots may be reused by the next collective.
  void reuse_barrier() { exit_.arrive_and_wait(); }

  void abort() {
    enter_.abort();
    mid_.abort();
    exit_.abort();
  }

 private:
  const int nprocs_;
  // pdc: unshared(barrier-phased rendezvous data, not mutex-guarded: a
  // rank writes only its own slot before publish_barrier and everyone
  // reads between publish_barrier and reuse_barrier; the three-phase
  // barrier sequence is the synchronization)
  std::vector<std::vector<std::byte>> slots_;
  // pdc: unshared(barrier-phased, same discipline as slots_)
  std::vector<double> times_;
  // pdc: unshared(barrier-phased, same discipline as slots_)
  std::vector<LockstepRecord> audits_;
  CentralBarrier enter_;
  CentralBarrier mid_;
  CentralBarrier exit_;
};

/// Registry of subgroup collective contexts created by Comm::split().
/// Keyed by (parent context, split generation, color) so that every member
/// of a new subgroup — and only they — shares one context.  Owned by the
/// Runtime for the duration of one run.
class SplitArena {
 public:
  std::shared_ptr<CollectiveContext> get_or_create(
      const CollectiveContext* parent, std::uint64_t generation, int color,
      int size) {
    LockGuard lock(mu_);
    auto& slot = contexts_[Key{parent, generation, color}];
    if (!slot) slot = std::make_shared<CollectiveContext>(size);
    return slot;
  }

  void abort_all() {
    LockGuard lock(mu_);
    for (auto& [key, ctx] : contexts_) ctx->abort();
  }

 private:
  struct Key {
    const CollectiveContext* parent;
    std::uint64_t generation;
    int color;
    auto operator<=>(const Key&) const = default;
  };

  Mutex mu_;
  std::map<Key, std::shared_ptr<CollectiveContext>> contexts_
      PDC_GUARDED_BY(mu_);
};

}  // namespace pdc::mp
