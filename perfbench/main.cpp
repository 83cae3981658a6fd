// perfbench: the repository's two-clock benchmark program.
//
//   perfbench --workload train-clean|train-noisy|serve --seed N
//             --seconds S --trace 0|1 --work DIR
//
// Prints one JSON line with the run's checks, metrics and notes (the
// deterministic values pinned for the default seed, phase counts, the host
// descriptor).  perfbench/run.py builds this program, runs it, checks the
// pins and prints the human-readable lines and the final result line.  The environment cannot change what is measured: lockstep
// auditing and the I/O pipeline are pinned off, the scratch directory is
// the explicit DIR, and no PDC_* variable is read by this program.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <system_error>

#include "common.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload train-clean|train-noisy|serve "
               "--seed N --seconds S --trace 0|1 --work DIR\n";
}

bool parse_u64(const char* s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '-' || end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on "
               "(build type " PERFBENCH_BUILD_TYPE "); build Release\n";
  return 2;
#endif
  perfbench::Options opt;
  bool have_work = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[++i] : nullptr;
    std::uint64_t n = 0;
    if (!val) {
      usage();
      return 2;
    }
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed" && parse_u64(val, n)) {
      opt.seed = n;
    } else if (arg == "--seconds" && parse_u64(val, n) && n >= 1) {
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (std::strcmp(val, "0") == 0 ||
                                    std::strcmp(val, "1") == 0)) {
      opt.trace = val[0] == '1';
    } else if (arg == "--work") {
      opt.work_dir = val;
      have_work = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_work) {
    usage();
    return 2;
  }

  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir);

  perfbench::Result result;
  int rc = 0;
  try {
    if (opt.workload == "train-clean" || opt.workload == "train-noisy") {
      rc = perfbench::run_train(opt, result);
    } else if (opt.workload == "serve") {
      rc = perfbench::run_serve(opt, result);
    } else {
      usage();
      rc = 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    rc = 1;
  }
  if (rc == 0) {
    result.note("host", perfbench::host_descriptor(opt.work_dir));
    std::cout << result.to_json() << std::endl;
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  return rc;
}
