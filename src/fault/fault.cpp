#include "fault/fault.hpp"

#include <charconv>
#include <limits>
#include <sstream>

namespace pdc::fault {

namespace {

// splitmix64: tiny, deterministic, and good enough to spread scenario seeds
// across sites/ranks/ops without correlations between consecutive seeds.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FaultSite parse_site(std::string_view text) {
  if (text == "disk_read") return FaultSite::kDiskRead;
  if (text == "disk_write") return FaultSite::kDiskWrite;
  if (text == "comm_coll") return FaultSite::kCommCollective;
  throw std::invalid_argument("FaultPlan: unknown site '" + std::string(text) +
                              "'");
}

std::int64_t parse_int(std::string_view key, std::string_view value) {
  std::int64_t out = 0;
  const auto* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("FaultPlan: bad integer for '" +
                                std::string(key) + "'");
  }
  return out;
}

std::string spec_string(const FaultSpec& spec) {
  std::string out(site_name(spec.site));
  if (spec.rank >= 0) out += ":rank=" + std::to_string(spec.rank);
  out += ":op=" + std::to_string(spec.op);
  if (spec.times != 1) out += ":times=" + std::to_string(spec.times);
  if (spec.torn) out += ":torn";
  if (spec.after_s > 0.0) {
    std::ostringstream after;
    after << ":after=" << spec.after_s;
    out += after.str();
  }
  return out;
}

}  // namespace

std::string_view site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kDiskRead:
      return "disk_read";
    case FaultSite::kDiskWrite:
      return "disk_write";
    case FaultSite::kCommCollective:
      return "comm_coll";
  }
  return "unknown";
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::stringstream specs(text);
  std::string part;
  while (std::getline(specs, part, ';')) {
    if (part.empty()) continue;
    std::stringstream fields(part);
    std::string field;
    if (!std::getline(fields, field, ':')) {
      throw std::invalid_argument("FaultPlan: empty spec");
    }
    FaultSpec spec;
    spec.site = parse_site(field);
    while (std::getline(fields, field, ':')) {
      const auto eq = field.find('=');
      const std::string key = field.substr(0, eq);
      if (key == "torn") {
        if (eq != std::string::npos) {
          throw std::invalid_argument("FaultPlan: 'torn' takes no value");
        }
        spec.torn = true;
        continue;
      }
      if (eq == std::string::npos) {
        throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                    field + "'");
      }
      const std::string value = field.substr(eq + 1);
      if (key == "rank") {
        const auto rank = parse_int(key, value);
        if (rank < -1 || rank > std::numeric_limits<int>::max()) {
          throw std::invalid_argument("FaultPlan: rank out of range");
        }
        spec.rank = static_cast<int>(rank);
      } else if (key == "op") {
        const auto op = parse_int(key, value);
        if (op < 1) throw std::invalid_argument("FaultPlan: op must be >= 1");
        spec.op = static_cast<std::uint64_t>(op);
      } else if (key == "times") {
        const auto times = parse_int(key, value);
        if (times < 1) {
          throw std::invalid_argument("FaultPlan: times must be >= 1");
        }
        spec.times = static_cast<int>(times);
      } else if (key == "after") {
        try {
          spec.after_s = std::stod(value);
        } catch (const std::exception&) {
          throw std::invalid_argument("FaultPlan: bad number for 'after'");
        }
      } else {
        throw std::invalid_argument("FaultPlan: unknown key '" + key + "'");
      }
    }
    plan.add(spec);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& spec : specs_) {
    if (!out.empty()) out += ';';
    out += spec_string(spec);
  }
  return out;
}

void FaultPlan::check_ranks(int nranks) const {
  for (const auto& spec : specs_) {
    if (spec.rank < nranks) continue;
    throw std::invalid_argument(
        "FaultPlan: spec '" + spec_string(spec) + "' targets rank " +
        std::to_string(spec.rank) + ", but the run has " +
        std::to_string(nranks) + " rank(s)");
  }
}

FaultPlan FaultPlan::seeded(std::uint64_t seed, std::string_view site_class,
                            int nranks) {
  // Stir the class name into the seed so "disk" and "comm" scenarios with
  // the same numeric seed are unrelated.
  std::uint64_t state = seed * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL;
  for (const char c : site_class) state ^= splitmix64(state) + c;

  FaultPlan plan;
  FaultSpec spec;
  const int ranks = nranks > 0 ? nranks : 1;
  spec.rank = static_cast<int>(splitmix64(state) % ranks);
  if (site_class == "disk") {
    const auto kind = splitmix64(state) % 3;
    spec.site = kind == 0 ? FaultSite::kDiskRead : FaultSite::kDiskWrite;
    spec.op = 1 + splitmix64(state) % 40;
    if (kind == 2) {
      spec.torn = true;  // torn write: process dies mid-flush
    } else {
      // times in [1, 6]: below the retry budget (4 attempts) the fault is
      // transient and the run rides through; at/above it the op dies and
      // the scenario exercises restart.
      spec.times = 1 + static_cast<int>(splitmix64(state) % 6);
    }
  } else if (site_class == "comm") {
    spec.site = FaultSite::kCommCollective;
    spec.op = 1 + splitmix64(state) % 60;
  } else {
    throw std::invalid_argument("FaultPlan::seeded: unknown site class '" +
                                std::string(site_class) + "'");
  }
  plan.add(spec);
  return plan;
}

RankFault::RankFault(const FaultPlan* plan, int rank, const mp::Clock* clock)
    : plan_(plan), rank_(rank), clock_(clock) {
  if (plan_ != nullptr) {
    remaining_.assign(plan_->specs().size(), -1);
  }
}

bool RankFault::matches(const FaultSpec& spec, FaultSite site,
                        double now_s) const {
  if (spec.site != site) return false;
  if (spec.rank >= 0 && spec.rank != rank_) return false;
  if (now_s < spec.after_s) return false;
  return ops_[static_cast<std::size_t>(site)] == spec.op;
}

DiskAction RankFault::on_disk(bool is_write, double now_s) {
  if (!enabled()) return DiskAction::kProceed;
  LockGuard lock(mu_);
  const FaultSite site =
      is_write ? FaultSite::kDiskWrite : FaultSite::kDiskRead;

  // Triggered specs drain first WITHOUT advancing the op counter: the
  // retries of one logical request keep hitting the same fault until the
  // spec's failure budget is spent.
  for (std::size_t i = 0; i < plan_->specs().size(); ++i) {
    const auto& spec = plan_->specs()[i];
    if (spec.site != site || remaining_[i] <= 0) continue;
    --remaining_[i];
    ++injected_;
    return DiskAction::kFailTransient;
  }

  ++ops_[static_cast<std::size_t>(site)];
  for (std::size_t i = 0; i < plan_->specs().size(); ++i) {
    const auto& spec = plan_->specs()[i];
    if (remaining_[i] != -1 || !matches(spec, site, now_s)) continue;
    ++injected_;
    if (spec.torn && is_write) {
      remaining_[i] = 0;
      return DiskAction::kTear;
    }
    remaining_[i] = spec.times - 1;
    return DiskAction::kFailTransient;
  }
  return DiskAction::kProceed;
}

void RankFault::on_comm(std::string_view prim) {
  if (!enabled()) return;
  LockGuard lock(mu_);
  const FaultSite site = FaultSite::kCommCollective;
  ++ops_[static_cast<std::size_t>(site)];
  for (std::size_t i = 0; i < plan_->specs().size(); ++i) {
    const auto& spec = plan_->specs()[i];
    if (remaining_[i] != -1 || !matches(spec, site, now())) continue;
    remaining_[i] = 0;
    ++injected_;
    throw CommFault("injected comm fault: rank " + std::to_string(rank_) +
                    " " + std::string(prim) + " op " +
                    std::to_string(ops_[static_cast<std::size_t>(site)]));
  }
}

}  // namespace pdc::fault
