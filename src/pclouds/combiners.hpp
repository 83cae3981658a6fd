#pragma once

// Parallel derivation of the splitting point at a large node (paper,
// Section 5.1): evaluation of the interval boundaries and determination of
// the alive intervals, under the replication method (attribute-based,
// interval-based or hybrid work assignment) or the distributed method.
//
// All variants produce identical results on every rank; they differ in
// which rank evaluates which gini candidates (modeled compute balance) and
// in how the global frequency vectors are materialized (communication
// pattern and volume).  The rules themselves are CLOUDS's
// (clouds::evaluate_owned_boundaries, clouds::owned_alive_intervals), run
// over the items each rank owns.

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "clouds/cost_hooks.hpp"
#include "clouds/split.hpp"
#include "clouds/splitters.hpp"
#include "mp/comm.hpp"
#include "pclouds/config.hpp"

namespace pdc::pclouds {

/// Global combine of per-rank candidates: every rank gets the winner.
clouds::SplitCandidate reduce_candidates(mp::Comm& comm,
                                         const clouds::SplitCandidate& mine);

struct BoundaryDerivation {
  clouds::SplitCandidate gini_min;  ///< best boundary/categorical split
  std::vector<clouds::AliveInterval> alive;  ///< empty unless want_alive
  data::ClassCounts counts{};               ///< global node class counts
};

/// Replication method: `global` holds the fully combined statistics (every
/// rank has them; the DcDriver's stats exchange did the combining).  The
/// `method` selects which candidates this rank evaluates before the final
/// min-reduction:
///   attribute-based  rank (attr % p) evaluates all of an attribute,
///   interval-based   boundary j of any attribute goes to rank (j % p),
///   hybrid           all (attr, boundary) items split into p contiguous
///                    balanced chunks.
BoundaryDerivation derive_replicated(mp::Comm& comm, CombineMethod method,
                                     const clouds::NodeStats& global,
                                     bool want_alive,
                                     const clouds::CostHooks& hooks);

/// Distributed method: global vectors are never replicated.  Each numeric
/// attribute's local frequency vectors are gathered only to its owner rank
/// (attr % p), which evaluates boundaries and aliveness for that attribute;
/// categorical matrices and node counts travel through one global combine.
/// Alive-interval statuses are then broadcast to all ranks (all-gather), as
/// the paper describes.
BoundaryDerivation derive_distributed(mp::Comm& comm,
                                      const clouds::NodeStats& local,
                                      bool want_alive,
                                      const clouds::CostHooks& hooks);

// ------------------------------------------------- voting combiner ---

/// One rank's claim in the attribute vote: the unified attribute id
/// (0..kNumNumeric-1 numeric, then categorical) and the best gini its
/// *local* histograms admit for that attribute.  attr == -1 pads a rank
/// with fewer than k locally-splittable attributes, so every rank's
/// nomination block has identical size.
struct VoteNomination {
  std::int32_t attr = -1;
  std::int32_t pad = 0;  ///< keeps the struct free of uninitialized bytes
  double gini = 0.0;
};
static_assert(std::is_trivially_copyable_v<VoteNomination>,
              "nominations travel through one small allgather");

/// Deterministic tally of the allgathered nominations (rank-major, k per
/// rank): attributes ranked by vote count, then by their best nominated
/// gini, then by id; the top min(2k, kNumAttributes) survive.  When
/// 2k >= kNumAttributes every attribute is a candidate — the exactness
/// condition — even ones nobody nominated.  Returns ascending ids.
std::vector<int> select_voted_attributes(
    std::span<const VoteNomination> gathered, int vote_k);

/// Per-derivation accounting for the voting exchange, surfaced through the
/// `comm.voting.bytes_saved` counter and the combiner ablation.
struct VotingDiag {
  std::vector<int> candidates;        ///< the voted attribute ids
  std::uint64_t bytes_exchanged = 0;  ///< this rank's voted blob size
  std::uint64_t bytes_exact = 0;      ///< full replication blob size
};

/// Voting method (PV-Tree style): each rank nominates its vote_k locally
/// best attributes by gini, one small allgather elects min(2k, m) global
/// candidates, and only those attributes' interval histograms are
/// exchanged (delta/varint coded, optionally quantized to hist_bits
/// significant bits) and merged exactly.  Boundary evaluation and
/// aliveness are restricted to the candidates — the approximation the
/// drift suite quantifies.  With 2k >= m and hist_bits == 0 the result is
/// bit-identical to kReplicationAttribute.
BoundaryDerivation derive_voting(mp::Comm& comm,
                                 const clouds::NodeStats& local, int vote_k,
                                 int hist_bits, bool want_alive,
                                 const clouds::CostHooks& hooks,
                                 VotingDiag* diag = nullptr);

}  // namespace pdc::pclouds
