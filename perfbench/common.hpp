#pragma once

// Shared pieces of the two-clock benchmark: host clocks, order statistics,
// the host descriptor and the result record every workload fills.
//
// Host time here is steady_clock wall time and getrusage process CPU time.
// The library itself never reads host time (its clocks are the modeled SP2
// clocks); every host timer of the benchmark lives in these files, around
// calls into the library's public functions.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

namespace obs = pdc::obs;

/// Monotonic host wall time in seconds.
double now_s();
/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s();
/// Process peak resident set size in MiB.
double peak_rss_mb();

/// Median of `v` (mean of the two middle values for even sizes).
double median(std::vector<double> v);
/// Quantile `q` in [0, 1] of `v`, linear interpolation between ranks.
double quantile(std::vector<double> v, double q);

/// Waits until the steady clock reaches `t` (seconds, as now_s()): sleeps
/// while more than 200 us remain, then spins.
void wait_until(double t);

/// 64-bit FNV-1a over raw bytes: the tree digest pinned in pins.json.
std::uint64_t fnv1a(const void* data, std::size_t bytes);
std::string hex64(std::uint64_t v);

/// nproc, CPU model, compiler, build type and the file system type of the
/// scratch directory.
obs::Json host_descriptor(const std::filesystem::path& scratch);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;
};

/// What one run reports.  `attempted` counts operations (training calls,
/// served requests, output checks); `failed` counts the ones that failed
/// or were refused, and every failed output check.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check marks the run incorrect.
  void check(bool ok, const std::string& what);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);
  /// Notes are what run.py prints above the result line; the note "pins"
  /// holds the deterministic values it compares with pins.json.
  void note(const std::string& key, obs::Json value);

  /// One JSON line: correct/attempted/failed/metrics plus the notes.
  std::string to_json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  obs::Json metrics_ = obs::Json::make_object();
  obs::Json notes_ = obs::Json::make_object();
};

int run_train(const Options& opt, Result& out);
int run_serve(const Options& opt, Result& out);

}  // namespace perfbench
