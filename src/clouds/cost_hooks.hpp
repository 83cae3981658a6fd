#pragma once

// Optional modeled-compute accounting for the CLOUDS kernels.
//
// The sequential classifier is usable standalone (null clock: hooks no-op);
// inside the SPMD runtime each rank passes its Clock so split derivation,
// sorting and partitioning advance the modeled timeline with the Machine's
// per-operation costs.

#include <cmath>
#include <cstdint>
#include <string_view>

#include "mp/clock.hpp"
#include "mp/machine.hpp"
#include "obs/mem_gauge.hpp"
#include "obs/trace.hpp"

namespace pdc::clouds {

struct CostHooks {
  mp::Clock* clock = nullptr;
  mp::Machine machine{};
  /// Optional per-rank trace handle (null/no-op by default): the kernels
  /// open spans on the modeled timeline through it.
  obs::RankTracer tracer{};
  /// Optional resident-bytes gauge: the annotated in-core zones charge the
  /// bytes they hold so a sizeup run can check the out-of-core contract at
  /// runtime (the static analyzer's PDA200 proves it at compile time).
  obs::MemGauge* mem = nullptr;

  /// Opens a span on the modeled timeline (no-op with a null tracer).
  obs::SpanGuard span(std::string_view name, std::string_view cat,
                      std::uint64_t n = obs::kNoArg) const {
    return obs::SpanGuard(tracer, name, cat, obs::kNoArg, n);
  }

  /// One streaming pass touching `record_attrs` record-attribute pairs.
  void charge_scan(std::uint64_t record_attrs) const {
    if (clock) {
      clock->add_compute(machine.cpu_scan_op *
                         static_cast<double>(record_attrs));
    }
  }

  /// `evals` gini evaluations at candidate points.
  void charge_gini(std::uint64_t evals) const {
    if (clock) {
      clock->add_compute(machine.cpu_gini_op * static_cast<double>(evals));
    }
    tracer.count("clouds.gini_evals", evals);
  }

  /// Comparison-sort of `n` keys.
  void charge_sort(std::uint64_t n) const {
    if (clock && n > 1) {
      const double dn = static_cast<double>(n);
      clock->add_compute(machine.cpu_cmp_op * dn * std::log2(dn));
    }
  }

  /// Resident bytes entering an annotated in-core zone (no-op without a
  /// gauge).  Pair with release_mem, or hold an obs::MemCharge.
  void charge_mem(std::size_t bytes) const {
    if (mem) mem->charge(bytes);
  }

  void release_mem(std::size_t bytes) const {
    if (mem) mem->release(bytes);
  }
};

}  // namespace pdc::clouds
