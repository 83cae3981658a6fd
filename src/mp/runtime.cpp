#include "mp/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <thread>

#include "common/sync.hpp"

namespace pdc::mp {

double SpmdReport::parallel_time() const {
  double t = 0.0;
  for (const auto& c : clocks) t = std::max(t, c.total());
  return t;
}

double SpmdReport::max_compute() const {
  double t = 0.0;
  for (const auto& c : clocks) t = std::max(t, c.compute_s);
  return t;
}

double SpmdReport::max_comm() const {
  double t = 0.0;
  for (const auto& c : clocks) t = std::max(t, c.comm_s);
  return t;
}

double SpmdReport::max_io() const {
  double t = 0.0;
  for (const auto& c : clocks) t = std::max(t, c.io_s);
  return t;
}

double SpmdReport::max_idle() const {
  double t = 0.0;
  for (const auto& c : clocks) t = std::max(t, c.idle_s);
  return t;
}

double SpmdReport::total_io_hidden() const {
  double t = 0.0;
  for (const auto& c : clocks) t += c.io_hidden_s;
  return t;
}

double SpmdReport::balance() const {
  if (clocks.empty()) return 1.0;
  double max_busy = 0.0;
  double sum_busy = 0.0;
  for (const auto& c : clocks) {
    const double busy = c.compute_s + c.comm_s + c.io_s;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  if (max_busy == 0.0) return 1.0;
  return sum_busy / (static_cast<double>(clocks.size()) * max_busy);
}

Runtime::Runtime(int nprocs, Machine machine)
    : nprocs_(nprocs), cost_(machine) {
  if (nprocs < 1) throw std::invalid_argument("Runtime: nprocs must be >= 1");
}

bool Runtime::lockstep_default() {
  if (const char* env = std::getenv("PDC_LOCKSTEP")) {
    return env[0] == '1';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

SpmdReport Runtime::run(const std::function<void(Comm&)>& body,
                        obs::Tracer* tracer, const fault::FaultPlan* faults) {
  if (tracer && tracer->nranks() != nprocs_) {
    throw std::invalid_argument("Runtime: tracer built for wrong nranks");
  }
  if (faults) faults->check_ranks(nprocs_);
  const auto n = static_cast<std::size_t>(nprocs_);
  CollectiveContext ctx(nprocs_);
  SplitArena arena;
  std::vector<Clock> clocks(n);
  std::vector<fault::RankFault> injectors(n);
  if (faults) {
    for (int r = 0; r < nprocs_; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      injectors[ur].init(faults, r, &clocks[ur]);
    }
  }

  // first_error is a local shared with every rank thread; locals cannot
  // carry PDC_GUARDED_BY, so the guard discipline is by convention: only
  // touched under error_mu.
  std::exception_ptr first_error;
  Mutex error_mu;

  auto rank_main = [&](int rank) {
    const auto urank = static_cast<std::size_t>(rank);
    obs::RankTracer rtrace =
        tracer ? tracer->rank(rank, &clocks[urank]) : obs::RankTracer{};
    Comm comm(rank, nprocs_, &cost_, &ctx, &clocks[urank], &arena, nullptr,
              nullptr, rtrace, faults ? &injectors[urank] : nullptr);
    comm.set_lockstep_audit(lockstep_);
    try {
      body(comm);
    } catch (const AbortError&) {
      // Another rank failed first; nothing to record.
    } catch (...) {
      {
        LockGuard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      ctx.abort();
      arena.abort_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back(rank_main, r);
  }
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);

  SpmdReport report;
  report.clocks.reserve(n);
  for (const auto& c : clocks) report.clocks.push_back(c.snapshot());
  return report;
}

}  // namespace pdc::mp
