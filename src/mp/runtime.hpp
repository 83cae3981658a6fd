#pragma once

// SPMD runtime: runs a rank-function on p virtual processors (one thread
// each) and reports the per-rank modeled clocks.
//
// Typical use:
//
//   pdc::mp::Runtime rt(8);                      // 8 virtual processors
//   auto report = rt.run([&](pdc::mp::Comm& comm) {
//     ... SPMD code; comm.rank(), comm.all_reduce(...), ... ;
//   });
//   double t = report.parallel_time();           // modeled seconds
//
// If any rank throws, the runtime aborts every rank blocked in a collective
// (AbortError) and rethrows the first non-abort exception on the caller's
// thread.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "mp/clock.hpp"
#include "mp/collective_ctx.hpp"
#include "mp/comm.hpp"
#include "mp/cost_model.hpp"
#include "mp/machine.hpp"
#include "obs/trace.hpp"

namespace pdc::mp {

/// Per-run result: the final modeled clock of every rank.
struct SpmdReport {
  std::vector<ClockSnapshot> clocks;

  /// Modeled parallel runtime: the slowest rank's timeline position.
  double parallel_time() const;
  double max_compute() const;
  double max_comm() const;
  double max_io() const;
  double max_idle() const;
  /// Modeled I/O hidden behind compute by the async pipeline, summed over
  /// ranks.  Zero when the pipeline is off (every byte stalls the rank).
  double total_io_hidden() const;

  /// Load-balance indicator in [0,1]: mean busy time / max busy time,
  /// where busy = compute + comm + io.
  double balance() const;
};

class Runtime {
 public:
  explicit Runtime(int nprocs, Machine machine = Machine::sp2_like());

  int nprocs() const { return nprocs_; }
  const Machine& machine() const { return cost_.machine(); }
  const CostModel& cost() const { return cost_; }

  /// Collective lockstep auditing (mp/lockstep.hpp): every collective
  /// cross-checks that all ranks entered the same call site before any
  /// payload is read, and a divergence aborts the run with a LockstepError
  /// carrying a per-rank report.  Defaults to on in debug builds (NDEBUG
  /// unset) and off in release; the PDC_LOCKSTEP=0|1 environment variable
  /// overrides the build default, and this setter overrides both.
  void set_lockstep(bool on) { lockstep_ = on; }
  bool lockstep() const { return lockstep_; }
  /// The build/environment default described above.
  static bool lockstep_default();

  /// Run `body` on every rank.  Blocking; returns when all ranks finish.
  /// When `tracer` is non-null (it must have been built with the same
  /// nprocs), every rank records spans/metrics onto its track; the tracer
  /// outlives the run and can then be exported with chrome_json().
  /// When `faults` is non-null each rank gets a fault injector over the
  /// plan, reachable via Comm::fault(); an injected comm fault aborts the
  /// whole run and rethrows here, like any other rank failure.  A plan
  /// that targets a rank >= nprocs is refused (std::invalid_argument)
  /// before any rank starts.
  SpmdReport run(const std::function<void(Comm&)>& body,
                 obs::Tracer* tracer = nullptr,
                 const fault::FaultPlan* faults = nullptr);

 private:
  int nprocs_;
  CostModel cost_;
  bool lockstep_ = lockstep_default();
};

}  // namespace pdc::mp
