#include "pclouds/combiners.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

#include "clouds/categorical.hpp"
#include "pclouds/stats_codec.hpp"

namespace pdc::pclouds {

using clouds::AliveInterval;
using clouds::NodeStats;
using clouds::SplitCandidate;

static_assert(std::is_trivially_copyable_v<AliveInterval>,
              "alive statuses are broadcast as raw bytes");

SplitCandidate reduce_candidates(mp::Comm& comm, const SplitCandidate& mine) {
  return comm.all_reduce<SplitCandidate>(
      mine, [](SplitCandidate a, const SplitCandidate& b) {
        return clouds::candidate_less(b, a) ? b : a;
      });
}

namespace {

/// Which work items this rank evaluates.  Numeric boundary items are
/// numbered consecutively (attribute major); the interval-based and hybrid
/// replication approaches deal them out one by one or in chunks, every
/// other approach by whole attribute, and categorical attributes are owned
/// like attributes in every approach.
struct WorkAssign {
  CombineMethod method;
  int nprocs;
  int rank;
  std::size_t total_boundary_items;
  /// kVoting only: position of each unified attribute id in the candidate
  /// list, -1 for attributes that lost the vote (nobody evaluates those).
  const std::array<int, data::kNumAttributes>* voted_ordinal = nullptr;

  /// Unified attribute id `attr` (numeric, then categorical) is this
  /// rank's: attr % p, or under voting its candidate ordinal % p.
  bool owns_attribute(int attr) const {
    if (method == CombineMethod::kVoting) {
      const int ord = (*voted_ordinal)[static_cast<std::size_t>(attr)];
      return ord >= 0 && ord % nprocs == rank;
    }
    return attr % nprocs == rank;
  }

  bool owns_numeric(int attr, std::size_t item_index) const {
    const auto p = static_cast<std::size_t>(nprocs);
    const auto r = static_cast<std::size_t>(rank);
    if (method == CombineMethod::kReplicationInterval) {
      return item_index % p == r;
    }
    if (method == CombineMethod::kReplicationHybrid) {
      return item_index >= total_boundary_items * r / p &&
             item_index < total_boundary_items * (r + 1) / p;
    }
    return owns_attribute(attr);
  }

  /// The boundaries of `attr` this rank evaluates; `base` is the item
  /// index of the attribute's first boundary.
  std::vector<std::size_t> boundaries(int attr, std::size_t base,
                                      std::size_t count) const {
    std::vector<std::size_t> owned;
    for (std::size_t j = 0; j < count; ++j) {
      if (owns_numeric(attr, base + j)) owned.push_back(j);
    }
    return owned;
  }

  /// The intervals of `attr` whose aliveness this rank decides.  Interval
  /// j rides with its upper boundary's owner; the final, unbounded
  /// interval rides with the last boundary.  An attribute with no
  /// boundaries at all (degenerate sample) goes to rank attr % p.
  std::vector<std::size_t> intervals(int attr, std::size_t base,
                                     std::size_t count) const {
    if (count == 0) {
      return attr % nprocs == rank ? std::vector<std::size_t>{0}
                                   : std::vector<std::size_t>{};
    }
    auto owned = boundaries(attr, base, count);
    if (!owned.empty() && owned.back() == count - 1) owned.push_back(count);
    return owned;
  }
};

/// Merge per-rank alive lists into one identical, deterministically ordered
/// list on every rank ("the status of the intervals is broadcasted to all
/// the processors").
std::vector<AliveInterval> share_alive(mp::Comm& comm,
                                       std::vector<AliveInterval> mine) {
  auto merged = comm.all_gather<AliveInterval>(mine);
  std::sort(merged.begin(), merged.end(),
            [](const AliveInterval& a, const AliveInterval& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              return a.interval < b.interval;
            });
  return merged;
}

/// The tail every combiner ends with, over the statistics this rank
/// evaluates from (global for the candidates it owns): the owned boundary
/// and categorical candidates, one min-reduction to gini_min, then for SSE
/// the owned intervals' aliveness, shared with every rank.  Each owned loop
/// charges its evaluated-item count once.  It opens no span: each caller's
/// gini-evaluation span covers it.
BoundaryDerivation derive_owned(mp::Comm& comm, CombineMethod method,
                                const NodeStats& stats, bool want_alive,
                                const clouds::CostHooks& hooks,
                                const std::array<int, data::kNumAttributes>*
                                    voted_ordinal = nullptr) {
  std::size_t items = 0;
  for (const auto& h : stats.hists) items += h.bounds.size();
  const WorkAssign assign{method, comm.size(), comm.rank(), items,
                          voted_ordinal};

  SplitCandidate mine;
  std::uint64_t evals = 0;
  std::size_t base = 0;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    const auto& hist = stats.hists[static_cast<std::size_t>(a)];
    mine.consider(clouds::evaluate_owned_boundaries(
        hist, a, assign.boundaries(a, base, hist.bounds.size()), evals));
    base += hist.bounds.size();
  }
  for (int c = 0; c < data::kNumCategorical; ++c) {
    if (!assign.owns_attribute(data::kNumNumeric + c)) continue;
    const auto& m = stats.cats[static_cast<std::size_t>(c)];
    mine.consider(clouds::best_categorical_split(m));
    evals += m.counts.size() * m.counts.size();
  }
  hooks.charge_gini(evals);

  BoundaryDerivation out;
  out.counts = stats.counts;
  out.gini_min = reduce_candidates(comm, mine);
  if (!want_alive) return out;

  const double threshold = out.gini_min.valid
                               ? out.gini_min.gini
                               : std::numeric_limits<double>::infinity();
  std::vector<AliveInterval> alive;
  evals = 0;
  base = 0;
  for (int a = 0; a < data::kNumNumeric; ++a) {
    const auto& hist = stats.hists[static_cast<std::size_t>(a)];
    clouds::owned_alive_intervals(
        hist, a, assign.intervals(a, base, hist.bounds.size()), threshold,
        alive, evals);
    base += hist.bounds.size();
  }
  hooks.charge_gini(evals * (1u << data::kNumClasses));
  out.alive = share_alive(comm, std::move(alive));
  return out;
}

}  // namespace

BoundaryDerivation derive_replicated(mp::Comm& comm, CombineMethod method,
                                     const NodeStats& global, bool want_alive,
                                     const clouds::CostHooks& hooks) {
  auto sp = hooks.span("gini-evaluation", "pclouds");
  return derive_owned(comm, method, global, want_alive, hooks);
}

BoundaryDerivation derive_distributed(mp::Comm& comm, const NodeStats& local,
                                      bool want_alive,
                                      const clouds::CostHooks& hooks) {
  auto sp = hooks.span("gini-evaluation", "pclouds");
  // Each numeric attribute's local vectors are gathered to its owner only —
  // the "approximately distributes these statistics among the processors"
  // alternative.  Owners keep the global vectors for the aliveness step.
  NodeStats owned = local;  // boundary layout reused; counts replaced below
  owned.counts = comm.all_reduce<data::ClassCounts>(
      local.counts, [](data::ClassCounts a, const data::ClassCounts& b) {
        a += b;
        return a;
      });

  // Categorical matrices are tiny: one global combine, owners evaluate.
  std::vector<std::int64_t> cat_flat;
  for (const auto& m : local.cats) {
    const auto f = m.flatten();
    cat_flat.insert(cat_flat.end(), f.begin(), f.end());
  }
  const auto cat_global = comm.all_reduce_vec<std::int64_t>(cat_flat);

  for (int a = 0; a < data::kNumNumeric; ++a) {
    const int owner = a % comm.size();
    auto& hist = owned.hists[static_cast<std::size_t>(a)];
    std::vector<std::int64_t> flat;
    flat.reserve(hist.freq.size() * data::kNumClasses);
    for (const auto& f :
         local.hists[static_cast<std::size_t>(a)].freq) {
      for (int k = 0; k < data::kNumClasses; ++k) {
        flat.push_back(f[static_cast<std::size_t>(k)]);
      }
    }
    const auto gathered = comm.gather<std::int64_t>(owner, flat);
    if (comm.rank() == owner) {
      std::vector<std::int64_t> sum(flat.size(), 0);
      for (const auto& part : gathered) {
        add_counts(sum, part);
      }
      for (std::size_t j = 0; j < hist.freq.size(); ++j) {
        for (int k = 0; k < data::kNumClasses; ++k) {
          hist.freq[j][static_cast<std::size_t>(k)] =
              sum[j * data::kNumClasses + static_cast<std::size_t>(k)];
        }
      }
    } else {
      hist.reset_counts();  // this rank does not hold attribute a
    }
  }
  std::size_t cat_off = 0;
  for (auto& m : owned.cats) {
    const std::size_t len = m.counts.size() * data::kNumClasses;
    m.unflatten(std::span<const std::int64_t>(cat_global.data() + cat_off, len));
    cat_off += len;
  }
  return derive_owned(comm, CombineMethod::kDistributed, owned, want_alive,
                      hooks);
}

// ------------------------------------------------- voting combiner ---

std::vector<int> select_voted_attributes(
    std::span<const VoteNomination> gathered, int vote_k) {
  constexpr int m = data::kNumAttributes;
  const int want = 2 * vote_k;
  std::vector<int> out;
  if (want >= m) {
    // Exactness condition: every attribute is a candidate, including ones
    // nobody nominated, so the derivation degenerates to the exact
    // attribute-based evaluation.
    out.resize(static_cast<std::size_t>(m));
    for (int a = 0; a < m; ++a) out[static_cast<std::size_t>(a)] = a;
    return out;
  }
  struct Tally {
    int votes = 0;
    double best = std::numeric_limits<double>::infinity();
  };
  std::array<Tally, static_cast<std::size_t>(m)> tally{};
  for (const auto& nom : gathered) {
    if (nom.attr < 0 || nom.attr >= m) continue;
    auto& t = tally[static_cast<std::size_t>(nom.attr)];
    ++t.votes;
    t.best = std::min(t.best, nom.gini);
  }
  std::vector<int> ranked;
  for (int a = 0; a < m; ++a) {
    if (tally[static_cast<std::size_t>(a)].votes > 0) ranked.push_back(a);
  }
  std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
    const auto& ta = tally[static_cast<std::size_t>(a)];
    const auto& tb = tally[static_cast<std::size_t>(b)];
    if (ta.votes != tb.votes) return ta.votes > tb.votes;
    if (ta.best != tb.best) return ta.best < tb.best;
    return a < b;
  });
  if (ranked.size() > static_cast<std::size_t>(want)) {
    ranked.resize(static_cast<std::size_t>(want));
  }
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

BoundaryDerivation derive_voting(mp::Comm& comm, const NodeStats& local,
                                 int vote_k, int hist_bits, bool want_alive,
                                 const clouds::CostHooks& hooks,
                                 VotingDiag* diag) {
  if (vote_k < 1) throw std::invalid_argument("pclouds: vote_k must be >= 1");
  if (hist_bits < 0 || hist_bits > 62) {  // quantize_count shifts by it
    throw std::invalid_argument("pclouds: hist_bits must be in [0, 62]");
  }
  VotingDiag scratch;
  VotingDiag& vd = diag != nullptr ? *diag : scratch;

  NodeStats global = local;  // boundary layout kept; counts replaced below
  {
    auto sp = hooks.span("voting-exchange", "pclouds");

    // Each rank's claim: its vote_k locally best attributes by gini.
    std::vector<std::pair<double, int>> local_best;
    for (int a = 0; a < data::kNumNumeric; ++a) {
      const auto c = clouds::evaluate_boundaries(
          local.hists[static_cast<std::size_t>(a)], a, hooks);
      if (c.valid) local_best.emplace_back(c.gini, a);
    }
    for (int c = 0; c < data::kNumCategorical; ++c) {
      const auto cand = clouds::best_categorical_split(
          local.cats[static_cast<std::size_t>(c)]);
      if (cand.valid) {
        local_best.emplace_back(cand.gini, data::kNumNumeric + c);
      }
    }
    std::sort(local_best.begin(), local_best.end());
    std::vector<VoteNomination> noms(static_cast<std::size_t>(vote_k));
    for (std::size_t i = 0; i < noms.size() && i < local_best.size(); ++i) {
      noms[i].attr = static_cast<std::int32_t>(local_best[i].second);
      noms[i].gini = local_best[i].first;
    }

    // One small allgather elects the global candidates deterministically:
    // every rank tallies the identical nomination table.
    const auto gathered = comm.all_gather<VoteNomination>(noms);
    vd.candidates = select_voted_attributes(gathered, vote_k);

    // Only the candidates' histograms travel, delta/varint coded (and
    // optionally quantized); the decoded streams are summed exactly.
    const auto blob = encode_voted_stats(local, vd.candidates, hist_bits);
    std::size_t flat_len = static_cast<std::size_t>(data::kNumClasses);
    for (const int attr : vd.candidates) {
      flat_len += voted_attr_len(local, attr);
    }
    const auto blobs = comm.all_to_all_broadcast<std::byte>(blob);
    std::vector<std::int64_t> sum(flat_len, 0);
    for (const auto& b : blobs) {
      const auto flat = decode_voted_stats(b, flat_len);
      add_counts(sum, flat);
    }

    // The replication method would have shipped every attribute's counts
    // as raw int64; the difference is what the vote saved this rank.
    std::uint64_t exact_units = static_cast<std::uint64_t>(data::kNumClasses);
    for (int a = 0; a < data::kNumAttributes; ++a) {
      exact_units += voted_attr_len(local, a);
    }
    vd.bytes_exact = exact_units * sizeof(std::int64_t);
    vd.bytes_exchanged = blob.size();
    hooks.tracer.count("comm.voting.bytes_saved",
                       vd.bytes_exact > vd.bytes_exchanged
                           ? vd.bytes_exact - vd.bytes_exchanged
                           : 0);

    // Losing attributes are zeroed: they own no boundary items, produce no
    // alive intervals and cannot win the min-reduction.
    for (auto& h : global.hists) h.reset_counts();
    for (auto& cm : global.cats) {
      std::fill(cm.counts.begin(), cm.counts.end(), data::ClassCounts{});
    }
    std::size_t at = 0;
    for (const int attr : vd.candidates) {
      const std::size_t len = voted_attr_len(local, attr);
      if (attr < data::kNumNumeric) {
        auto& h = global.hists[static_cast<std::size_t>(attr)];
        for (std::size_t j = 0; j < h.freq.size(); ++j) {
          for (int k = 0; k < data::kNumClasses; ++k) {
            h.freq[j][static_cast<std::size_t>(k)] =
                sum[at + j * static_cast<std::size_t>(data::kNumClasses) +
                    static_cast<std::size_t>(k)];
          }
        }
      } else {
        auto& cm =
            global.cats[static_cast<std::size_t>(attr - data::kNumNumeric)];
        cm.unflatten(std::span<const std::int64_t>(sum.data() + at, len));
      }
      at += len;
    }
    for (int k = 0; k < data::kNumClasses; ++k) {
      global.counts[static_cast<std::size_t>(k)] =
          sum[at + static_cast<std::size_t>(k)];
    }
  }

  auto sp = hooks.span("gini-evaluation", "pclouds");
  std::array<int, data::kNumAttributes> ordinal;
  ordinal.fill(-1);
  for (std::size_t i = 0; i < vd.candidates.size(); ++i) {
    ordinal[static_cast<std::size_t>(vd.candidates[i])] =
        static_cast<int>(i);
  }
  return derive_owned(comm, CombineMethod::kVoting, global, want_alive, hooks,
                      &ordinal);
}

}  // namespace pdc::pclouds
