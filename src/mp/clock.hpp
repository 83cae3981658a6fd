#pragma once

// Per-rank modeled clock.
//
// Each virtual processor accumulates modeled seconds in four buckets:
// compute, communication, I/O, and idle (time spent waiting for slower
// ranks at synchronization points).  total() is the rank's position on the
// modeled timeline; a blocking collective aligns all participants to
// max(total()) before charging the primitive's cost.

namespace pdc::mp {

struct ClockSnapshot {
  double compute_s = 0.0;
  double comm_s = 0.0;
  double io_s = 0.0;
  double idle_s = 0.0;
  /// Modeled I/O seconds that overlapped with other work and therefore did
  /// NOT advance the timeline (async pipeline accounting).  Bookkeeping
  /// only — excluded from total() by construction.
  double io_hidden_s = 0.0;

  double total() const { return compute_s + comm_s + io_s + idle_s; }
};

class Clock {
 public:
  void add_compute(double s) { snap_.compute_s += s; }
  void add_comm(double s) { snap_.comm_s += s; }
  void add_io(double s) { snap_.io_s += s; }

  /// Overlap-aware charge for one asynchronously-executed disk request of
  /// modeled cost `io_cost_s` whose completion the rank had to wait
  /// `stall_s` for (0 when the transfer finished under concurrent work).
  /// Only the stall advances the timeline; the hidden remainder is booked
  /// to io_hidden_s.  Per block this yields the max(compute, io) rule:
  /// work charged between issue and reap plus the residual stall equals
  /// max(work, io_cost).  Returns the hidden seconds.
  double charge_io_overlapped(double io_cost_s, double stall_s) {
    snap_.io_s += stall_s;
    const double hidden = io_cost_s > stall_s ? io_cost_s - stall_s : 0.0;
    snap_.io_hidden_s += hidden;
    return hidden;
  }

  /// Advance this clock to modeled time `t` (if in the future), booking the
  /// gap as idle time.  Used when a rank waits for a message or a barrier.
  void wait_until(double t) {
    const double now = snap_.total();
    if (t > now) snap_.idle_s += t - now;
  }

  double total() const { return snap_.total(); }
  const ClockSnapshot& snapshot() const { return snap_; }
  void reset() { snap_ = ClockSnapshot{}; }

 private:
  ClockSnapshot snap_;
};

}  // namespace pdc::mp
