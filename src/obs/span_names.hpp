#pragma once

// The span-name registry: every trace span name the instrumentation may
// construct, in one place.  The critical-path profiler's attribution
// rollups (obs/profile.hpp) key on these strings, so a typo'd literal at
// an instrumentation site would silently open a new bucket instead of
// feeding the right one; pdc-lint rule PDC007 flags any span construction
// whose name literal is missing from this file.
//
// Names are grouped by role: phase spans (what the rank was working on),
// communication primitives (one span per mp::Comm call, cat "comm"),
// atomic disk events (cat "io"/"fault", each advances the modeled clock),
// instant markers, and the profiler's own critical-path overlay names.

#include <string_view>

namespace pdc::obs::span_names {

// ------------------------------------------------------------- phases ---
inline constexpr std::string_view kMaterialize = "materialize";
inline constexpr std::string_view kSampleDraw = "sample-draw";
inline constexpr std::string_view kSampleReplication = "sample-replication";
inline constexpr std::string_view kSubtreeAssembly = "subtree-assembly";
inline constexpr std::string_view kSolveSequential = "solve-sequential";
inline constexpr std::string_view kHistogramBuild = "histogram-build";
inline constexpr std::string_view kGiniEvaluation = "gini-evaluation";
inline constexpr std::string_view kAliveEvaluation = "alive-evaluation";
inline constexpr std::string_view kPartitionPass = "partition-pass";
inline constexpr std::string_view kPresort = "presort";
inline constexpr std::string_view kSplitEval = "split-eval";
inline constexpr std::string_view kCombinerExchange = "combiner-exchange";
inline constexpr std::string_view kVotingExchange = "voting-exchange";
inline constexpr std::string_view kLargeNode = "large-node";
inline constexpr std::string_view kRedistribute = "redistribute";
inline constexpr std::string_view kSmallNodeDrain = "small-node-drain";
inline constexpr std::string_view kCheckpointWrite = "checkpoint-write";
inline constexpr std::string_view kCheckpointRestore = "checkpoint-restore";
inline constexpr std::string_view kPrune = "prune";
inline constexpr std::string_view kEvaluate = "evaluate";

// -------------------------------------- communication primitives (mp) ---
inline constexpr std::string_view kBarrier = "barrier";
inline constexpr std::string_view kAllToAllBroadcast = "all_to_all_broadcast";
inline constexpr std::string_view kGather = "gather";
inline constexpr std::string_view kBroadcast = "broadcast";
inline constexpr std::string_view kAllReduce = "all_reduce";
inline constexpr std::string_view kAllReduceVec = "all_reduce_vec";
inline constexpr std::string_view kPrefixSum = "prefix_sum";
inline constexpr std::string_view kMinLoc = "min_loc";
inline constexpr std::string_view kAllToAll = "all_to_all";

// --------------------------------------------- atomic disk events (io) ---
inline constexpr std::string_view kDiskRead = "disk_read";
inline constexpr std::string_view kDiskWrite = "disk_write";
inline constexpr std::string_view kDiskReadAsync = "disk_read_async";
inline constexpr std::string_view kDiskWriteAsync = "disk_write_async";
inline constexpr std::string_view kDiskRetryBackoff = "disk_retry_backoff";

// ------------------------------------------------- serving (pdc::serve) ---
inline constexpr std::string_view kServeBatch = "serve.batch";
inline constexpr std::string_view kServeSwap = "serve.swap";

// ----------------------------------------------------instant markers ---
inline constexpr std::string_view kLockstepDivergence = "lockstep.divergence";
inline constexpr std::string_view kClockReset = "clock-reset";

// ------------------------------------- critical-path overlay (profile) ---
inline constexpr std::string_view kCritCompute = "crit.compute";
inline constexpr std::string_view kCritComm = "crit.comm";
inline constexpr std::string_view kCritIo = "crit.io";
inline constexpr std::string_view kCritIdle = "crit.idle";

/// Every registered name.  pdc-lint PDC007 parses this file's string
/// literals, so adding a constant above is all a new span needs.
inline constexpr std::string_view kAll[] = {
    kMaterialize,    kSampleDraw,     kSampleReplication,
    kSubtreeAssembly, kSolveSequential, kHistogramBuild,
    kGiniEvaluation, kAliveEvaluation, kPartitionPass,
    kPresort,        kSplitEval,      kCombinerExchange,
    kVotingExchange, kLargeNode,      kRedistribute,   kSmallNodeDrain,
    kCheckpointWrite, kCheckpointRestore, kPrune,
    kEvaluate,
    kBarrier,        kAllToAllBroadcast, kGather,
    kBroadcast,      kAllReduce,      kAllReduceVec,
    kPrefixSum,      kMinLoc,         kAllToAll,
    kDiskRead,       kDiskWrite,      kDiskReadAsync,
    kDiskWriteAsync, kDiskRetryBackoff, kServeBatch,
    kServeSwap,      kLockstepDivergence,
    kClockReset,     kCritCompute,    kCritComm,
    kCritIo,         kCritIdle,
};

inline constexpr bool is_registered(std::string_view name) {
  for (const auto& s : kAll) {
    if (s == name) return true;
  }
  return false;
}

/// Disk events that advance the rank's modeled clock; everything they
/// cover is visible I/O time (the hidden async remainder never produces
/// a span).  kDiskRetryBackoff is cat "fault" but still charges io_s.
inline constexpr bool is_io_atomic(std::string_view name) {
  return name == kDiskRead || name == kDiskWrite || name == kDiskReadAsync ||
         name == kDiskWriteAsync || name == kDiskRetryBackoff;
}

}  // namespace pdc::obs::span_names
