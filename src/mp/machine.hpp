#pragma once

// Machine model for the modeled-time substrate.
//
// The paper analyses its algorithms on a coarse-grained machine (CGM) with a
// cut-through-routed hypercube interconnect and one local disk per processor
// (shared-nothing).  Sending a message of m bytes costs tau + mu*m, where tau
// is the handshaking/startup cost and mu the inverse bandwidth (paper, Sec. 2).
//
// Because this environment has neither MPI nor multiple cores, time is
// *modeled*: every virtual processor carries a Clock that is advanced by the
// cost formulas below while the algorithms themselves run for real (real data
// movement between ranks, real files on per-rank scratch disks).  DESIGN.md
// Sec. 2 documents this substitution.

#include <cstddef>

namespace pdc::mp {

/// Parameters of the modeled machine.  All times in seconds.
struct Machine {
  // --- interconnect (cut-through routed hypercube) ---
  double tau = 40e-6;            ///< message startup / handshake cost
  double mu = 1.0 / 35.0e6;      ///< per-byte transfer time (~35 MB/s links)

  // --- local disk (one per processor, shared nothing) ---
  double disk_access = 8e-3;     ///< per-request positioning cost (seek+rot)
  double disk_mu = 1.0 / 12.0e6; ///< per-byte transfer time (~12 MB/s)

  // --- processor ---
  // Cost of touching one attribute value of one record in a streaming scan
  // (find interval via binary search, bump a counter).  Calibrated so a
  // mid-90s RS/6000-class node scans a few million attribute values per
  // second.
  double cpu_scan_op = 0.25e-6;  ///< per record-attribute scan step
  double cpu_gini_op = 0.60e-6;  ///< per gini evaluation at one candidate
  double cpu_cmp_op = 0.08e-6;   ///< per comparison in a sort

  /// An IBM SP2-like preset (the paper's testbed).  Same as the defaults.
  static Machine sp2_like() { return Machine{}; }

  /// A preset with a much faster network relative to compute; useful in
  /// ablations to show which effects are network-bound.
  static Machine fast_network() {
    Machine m;
    m.tau = 2e-6;
    m.mu = 1.0 / 1.0e9;
    return m;
  }

  /// A preset with a slow disk, exaggerating the out-of-core penalty.
  static Machine slow_disk() {
    Machine m;
    m.disk_access = 20e-3;
    m.disk_mu = 1.0 / 4.0e6;
    return m;
  }
};

}  // namespace pdc::mp
