#pragma once

// Collective lockstep auditor.
//
// pCLOUDS correctness rests on the SPMD contract that every rank of a
// communicator enters the same collective sequence in the same order (the
// replication method's combine step assumes it outright).  A violation —
// one rank calling all_reduce while another calls barrier — silently
// exchanges mismatched payloads, or deadlocks at scale (the mismatched-
// collective failure mode SPRINT hit on real machines).
//
// The auditor piggybacks on the rendezvous every collective already makes:
// before publishing its payload, each rank also publishes a LockstepRecord
// (stable site-id hashed from file:line + primitive, plus this rank's
// collective sequence number).  After the publish barrier — when every
// rank's claim is visible but before any payload is interpreted — each rank
// cross-checks all records and, on mismatch, throws LockstepError carrying
// a per-rank divergence report (also routed to the rank's tracer, so an
// observed run lands the divergence in trace + run report).
//
// Cost when enabled: one ~128-byte record write and a p-way compare per
// collective — no modeled-clock effect, so audited and unaudited runs
// produce bit-identical trees and costs.  Disabled, it is one branch.
// Default: on in debug builds (NDEBUG unset), off in release; the
// PDC_LOCKSTEP=0|1 environment variable or Runtime::set_lockstep overrides.
//
// Every blocking call of the runtime is a collective, so every rendezvous
// is audited.  Limits: the auditor detects *divergent* collectives, where
// every rank still reaches a collective rendezvous.  A rank that never
// reaches one (it loops, or returns while the others enter a collective)
// is a deadlock the auditor cannot turn into a report.

#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pdc::mp {

/// One rank's claim about the collective it is entering.  Fixed-size POD:
/// written into the shared audit slot before the publish barrier, read by
/// every rank after it (the barrier's mutex orders the accesses).
struct LockstepRecord {
  std::uint64_t site = 0;  ///< stable hash of basename:line:primitive
  std::uint64_t seq = 0;   ///< collectives entered on this communicator
  char prim[24] = {};      ///< primitive name ("all_reduce", ...)
  char where[96] = {};     ///< call site, "basename.cpp:line"

  bool matches(const LockstepRecord& o) const {
    return site == o.site && seq == o.seq;
  }
};

/// Stable FNV-1a site hash; identical across ranks of one binary.
std::uint64_t lockstep_site_hash(std::string_view file, std::uint32_t line,
                                 std::string_view prim);

/// Builds the record for one collective entry at `loc`.
LockstepRecord make_lockstep_record(std::string_view prim, std::uint64_t seq,
                                    const std::source_location& loc);

/// Per-rank row of a divergence report.
struct LockstepEntry {
  int rank = 0;         ///< rank within the divergent communicator
  int global_rank = 0;  ///< world rank (differs under Comm::split)
  std::uint64_t site = 0;
  std::uint64_t seq = 0;
  std::string prim;
  std::string where;
};

/// What every rank was doing when the cross-check failed.
struct LockstepReport {
  std::vector<LockstepEntry> ranks;

  /// Human-readable per-rank listing (one line per rank).
  std::string to_string() const;
};

/// Thrown by every rank of a divergent collective; the Runtime rethrows
/// the first one on the caller's thread.
class LockstepError : public std::runtime_error {
 public:
  explicit LockstepError(LockstepReport report);

  const LockstepReport& report() const { return report_; }

 private:
  LockstepReport report_;
};

}  // namespace pdc::mp
