#pragma once

// Comm: the per-rank handle of the SPMD message-passing runtime.
//
// Ranks move data only through collectives: the paper's Table-1 primitives
// (all-to-all broadcast, gather, global combine, prefix sum, min-loc) plus
// barrier, one-to-all broadcast and all-to-all personalized exchange.
// Every collective runs one protocol, rendezvous(): publish through the
// shared slots of mp/collective_ctx.hpp, read the members' slots, and
// settle the rank's modeled Clock at the last publish time plus the
// primitive's Table-1 cost, so `clock().total()` is the rank's position on
// the modeled parallel timeline.
//
// All collectives must be entered by every rank of the communicator, in the
// same order — the usual SPMD contract.  With lockstep auditing on (see
// mp/lockstep.hpp; default in debug builds) every collective cross-checks
// that contract before touching any payload: each call site publishes a
// stable site-id plus the rank's collective sequence number, and a mismatch
// aborts the run with a per-rank divergence report instead of exchanging
// garbage or deadlocking.
//
// When the owning Runtime was given an obs::Tracer, every primitive also
// records a span on the rank's trace track (begin at entry, end after the
// clock settles — so the span visibly contains the idle time spent waiting
// for slower ranks) with the published payload size as its "bytes" arg.
// With no tracer the RankTracer is null and tracing costs one predictable
// branch per primitive.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <functional>
#include <source_location>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "mp/clock.hpp"
#include "mp/collective_ctx.hpp"
#include "mp/lockstep.hpp"
#include "mp/cost_model.hpp"
#include "mp/serialize.hpp"
#include "obs/trace.hpp"

namespace pdc::mp {

/// The world communicator's stable id (the FNV-1a offset basis, matching
/// the lockstep site-hash family).  Subgroup ids mix in the parent id,
/// split generation and color, so every communicator of a run has a
/// distinct id that is identical across its member ranks — the key the
/// critical-path profiler uses to align collective spans across tracks.
inline constexpr std::uint64_t kWorldCommId = 1469598103934665603ull;

class Comm {
 public:
  Comm(int rank, int size, const CostModel* cost, CollectiveContext* ctx,
       Clock* clock, SplitArena* arena = nullptr,
       std::shared_ptr<const std::vector<int>> group = nullptr,
       std::shared_ptr<CollectiveContext> owned_ctx = nullptr,
       obs::RankTracer tracer = {}, fault::RankFault* fault = nullptr,
       std::uint64_t comm_id = kWorldCommId)
      : rank_(rank),
        size_(size),
        cost_(cost),
        ctx_(ctx),
        clock_(clock),
        arena_(arena),
        group_(std::move(group)),
        owned_ctx_(std::move(owned_ctx)),
        tracer_(tracer),
        fault_(fault),
        comm_id_(comm_id) {}

  int rank() const { return rank_; }
  int size() const { return size_; }
  Clock& clock() { return *clock_; }
  const Clock& clock() const { return *clock_; }
  const CostModel& cost() const { return *cost_; }

  /// This rank's trace handle (null/no-op unless the Runtime was given a
  /// Tracer).  Anything holding a Comm can open spans through it.
  obs::RankTracer tracer() const { return tracer_; }

  /// This rank's fault injector (null unless the Runtime was given a
  /// FaultPlan).  io::LocalDisk takes it to put disk requests under the
  /// same plan that governs communication.
  fault::RankFault* fault() const { return fault_; }

  /// Collective lockstep auditing (mp/lockstep.hpp).  Must be set uniformly
  /// across ranks before the first collective; the Runtime does this from
  /// its own flag.  Auditing never touches the modeled clock.
  void set_lockstep_audit(bool on) { lockstep_ = on; }
  bool lockstep_audit() const { return lockstep_; }

  /// This rank's id in the world communicator (== rank() unless this Comm
  /// came from split()).
  int global_rank() const { return group_ ? (*group_)[static_cast<std::size_t>(rank_)] : rank_; }

  /// This communicator's run-stable id (kWorldCommId for the world;
  /// derived from (parent, generation, color) for split-off subgroups).
  /// Identical on every member rank.
  std::uint64_t comm_id() const { return comm_id_; }

  /// Collectives entered on this communicator so far (restarts at zero on
  /// split-off subgroups).  (comm_id, collective_seq) names one collective
  /// instance uniquely across the run.
  std::uint64_t collective_seq() const { return coll_seq_; }

  /// Splits this communicator into subgroups (collective, like
  /// MPI_Comm_split): all ranks with the same `color` form a new
  /// communicator, ordered by (key, old rank); key defaults to the old
  /// rank.  Collectives on the result are scoped to the subgroup.  Costs
  /// one small all-to-all broadcast on the parent.
  Comm split(int color, int key = -1,
             std::source_location loc = std::source_location::current()) {
    struct ColorKey {
      int color;
      int key;
    };
    const ColorKey mine{color, key == -1 ? rank_ : key};
    const auto all = all_to_all_broadcast<ColorKey>(
        std::span<const ColorKey>(&mine, 1), loc);

    auto members = std::make_shared<std::vector<int>>();
    int my_pos = -1;
    // Stable selection ordered by (key, parent rank).
    std::vector<std::pair<int, int>> selected;  // (key, parent rank)
    for (int r = 0; r < size_; ++r) {
      if (all[static_cast<std::size_t>(r)][0].color == color) {
        selected.emplace_back(all[static_cast<std::size_t>(r)][0].key, r);
      }
    }
    std::sort(selected.begin(), selected.end());
    for (const auto& [k, r] : selected) {
      if (r == rank_) my_pos = static_cast<int>(members->size());
      members->push_back(to_global(r));
    }

    if (!arena_) {
      throw std::logic_error("Comm::split requires a runtime SplitArena");
    }
    const int group_size = static_cast<int>(members->size());
    const std::uint64_t generation = split_generation_++;
    auto sub_ctx = arena_->get_or_create(ctx_, generation, color, group_size);
    CollectiveContext* sub_ctx_raw = sub_ctx.get();
    Comm sub(my_pos, group_size, cost_, sub_ctx_raw, clock_, arena_,
             std::move(members), std::move(sub_ctx), tracer_, fault_,
             child_comm_id(comm_id_, generation,
                           static_cast<std::uint64_t>(color)));
    // The subgroup inherits auditing; its collective sequence restarts at
    // zero uniformly across members.
    sub.lockstep_ = lockstep_;
    return sub;
  }

  // -------------------------------------------------------- collectives ---

  void barrier(std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("barrier");
    rendezvous("barrier", sp, {}, loc, [&] {
      return std::pair{true, cost_->barrier(size_)};  // nothing to read
    });
  }

  /// All-to-all broadcast (allgather): every rank contributes a block, every
  /// rank receives all blocks, indexed by source rank.  Blocks may differ in
  /// size across ranks.
  template <Wireable T>
  std::vector<std::vector<T>> all_to_all_broadcast(
      std::span<const T> mine,
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("all_to_all_broadcast", mine.size_bytes());
    return rendezvous("all_to_all_broadcast", sp, to_bytes(mine), loc, [&] {
      std::size_t m = 0;
      std::vector<std::vector<T>> out(static_cast<std::size_t>(size_));
      for (int r = 0; r < size_; ++r) {
        const auto& s = ctx_->slot(r);
        m = std::max(m, s.size());
        out[static_cast<std::size_t>(r)] = from_bytes<T>(s);
      }
      return std::pair{std::move(out), cost_->all_to_all_broadcast(size_, m)};
    });
  }

  /// Allgather returning the concatenation of all blocks in rank order.
  template <Wireable T>
  std::vector<T> all_gather(
      std::span<const T> mine,
      std::source_location loc = std::source_location::current()) {
    auto blocks = all_to_all_broadcast(mine, loc);
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.size();
    out.reserve(total);
    for (auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// Gather to `root`: root receives all blocks (indexed by source rank);
  /// other ranks receive an empty result.
  template <Wireable T>
  std::vector<std::vector<T>> gather(
      int root, std::span<const T> mine,
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("gather", mine.size_bytes());
    return rendezvous("gather", sp, to_bytes(mine), loc, [&] {
      std::size_t m = 0;
      for (int r = 0; r < size_; ++r) m = std::max(m, ctx_->slot(r).size());
      std::vector<std::vector<T>> out;
      if (rank_ == root) {
        out.resize(static_cast<std::size_t>(size_));
        for (int r = 0; r < size_; ++r) {
          out[static_cast<std::size_t>(r)] = from_bytes<T>(ctx_->slot(r));
        }
      }
      return std::pair{std::move(out), cost_->gather(size_, m)};
    });
  }

  /// One-to-all broadcast of a block from `root`.
  template <Wireable T>
  std::vector<T> broadcast(
      int root, std::span<const T> mine,
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("broadcast",
                        rank_ == root ? mine.size_bytes() : std::size_t{0});
    return rendezvous(
        "broadcast", sp,
        rank_ == root ? to_bytes(mine) : std::vector<std::byte>{}, loc, [&] {
          const auto& s = ctx_->slot(root);
          return std::pair{from_bytes<T>(s),
                           cost_->one_to_all_broadcast(size_, s.size())};
        });
  }

  template <Wireable T>
  T broadcast_value(int root, const T& value,
                    std::source_location loc = std::source_location::current()) {
    auto v = broadcast(root, std::span<const T>(&value, 1), loc);
    return v.at(0);
  }

  /// Global combine (all-reduce) of a single value with a binary op, folded
  /// in rank order (deterministic).
  template <Wireable T, class Op = std::plus<T>>
  T all_reduce(const T& value, Op op = Op{},
               std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("all_reduce", sizeof(T));
    return rendezvous("all_reduce", sp, to_bytes(value), loc, [&] {
      T acc = value_from_bytes<T>(ctx_->slot(0));
      for (int r = 1; r < size_; ++r) {
        acc = op(std::move(acc), value_from_bytes<T>(ctx_->slot(r)));
      }
      return std::pair{std::move(acc), cost_->global_combine(size_, sizeof(T))};
    });
  }

  /// Element-wise global combine of equal-length vectors.
  template <Wireable T, class Op = std::plus<T>>
  std::vector<T> all_reduce_vec(
      std::span<const T> mine, Op op = Op{},
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("all_reduce_vec", mine.size_bytes());
    return rendezvous("all_reduce_vec", sp, to_bytes(mine), loc, [&] {
      std::vector<T> acc = from_bytes<T>(ctx_->slot(0));
      for (int r = 1; r < size_; ++r) {
        auto other = from_bytes<T>(ctx_->slot(r));
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = op(std::move(acc[i]), other[i]);
        }
      }
      return std::pair{std::move(acc),
                       cost_->global_combine(size_, mine.size_bytes())};
    });
  }

  /// Inclusive prefix sum (scan) over ranks with a binary op.
  template <Wireable T, class Op = std::plus<T>>
  T prefix_sum(const T& value, Op op = Op{},
               std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("prefix_sum", sizeof(T));
    return rendezvous("prefix_sum", sp, to_bytes(value), loc, [&] {
      T acc = value_from_bytes<T>(ctx_->slot(0));
      for (int r = 1; r <= rank_; ++r) {
        acc = op(std::move(acc), value_from_bytes<T>(ctx_->slot(r)));
      }
      return std::pair{std::move(acc), cost_->prefix_sum(size_, sizeof(T))};
    });
  }

  /// Min-reduction with location: the globally minimal value (ties broken by
  /// lower rank) and the rank that owns it.  The paper uses this to pick the
  /// global minimum gini and its splitting point.
  template <Wireable T, class Less = std::less<T>>
  std::pair<T, int> min_loc(
      const T& value, Less less = Less{},
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("min_loc", sizeof(T));
    return rendezvous("min_loc", sp, to_bytes(value), loc, [&] {
      std::pair<T, int> best{value_from_bytes<T>(ctx_->slot(0)), 0};
      for (int r = 1; r < size_; ++r) {
        T other = value_from_bytes<T>(ctx_->slot(r));
        if (less(other, best.first)) best = {other, r};
      }
      return std::pair{best, cost_->global_combine(size_, sizeof(T))};
    });
  }

  /// All-to-all personalized exchange: `outgoing[d]` goes to rank d; returns
  /// what every rank sent to me, indexed by source rank.
  template <Wireable T>
  std::vector<std::vector<T>> all_to_all(
      const std::vector<std::vector<T>>& outgoing,
      std::source_location loc = std::source_location::current()) {
    auto sp = prim_span("all_to_all");
    // Frame: p uint64 segment lengths (in elements), then the segments.
    std::vector<std::byte> frame;
    std::vector<std::uint64_t> lens(static_cast<std::size_t>(size_));
    std::size_t total = 0;
    for (int d = 0; d < size_; ++d) {
      lens[static_cast<std::size_t>(d)] =
          outgoing[static_cast<std::size_t>(d)].size();
      total += outgoing[static_cast<std::size_t>(d)].size();
    }
    frame.reserve(lens.size() * sizeof(std::uint64_t) + total * sizeof(T));
    append_bytes(frame, std::span<const std::uint64_t>(lens));
    for (int d = 0; d < size_; ++d) {
      append_bytes(frame,
                   std::span<const T>(outgoing[static_cast<std::size_t>(d)]));
    }
    sp.set_bytes(frame.size());
    return rendezvous("all_to_all", sp, std::move(frame), loc, [&] {
      std::vector<std::vector<T>> incoming(static_cast<std::size_t>(size_));
      std::size_t max_pair_bytes = 0;
      for (int s = 0; s < size_; ++s) {
        const auto& slot = ctx_->slot(s);
        auto their_lens = from_bytes<std::uint64_t>(
            std::span<const std::byte>(slot.data(),
                                       static_cast<std::size_t>(size_) *
                                           sizeof(std::uint64_t)));
        std::size_t off =
            static_cast<std::size_t>(size_) * sizeof(std::uint64_t);
        for (int d = 0; d < size_; ++d) {
          const std::size_t seg = static_cast<std::size_t>(
                                      their_lens[static_cast<std::size_t>(d)]) *
                                  sizeof(T);
          if (d != s) max_pair_bytes = std::max(max_pair_bytes, seg);
          if (d == rank_) {
            incoming[static_cast<std::size_t>(s)] = from_bytes<T>(
                std::span<const std::byte>(slot.data() + off, seg));
          }
          off += seg;
        }
      }
      return std::pair{std::move(incoming),
                       cost_->all_to_all_personalized(size_, max_pair_bytes)};
    });
  }

 private:
  /// Span guard + per-primitive metrics for one collective call.  Resolves
  /// to no work at all when the tracer is disabled.  This is also the
  /// fault-injection point: it runs before the primitive publishes
  /// anything, so an injected CommFault leaves the collective context
  /// untouched and the runtime's abort path can unwind every other rank.
  obs::SpanGuard prim_span(std::string_view prim,
                           std::uint64_t bytes = obs::kNoArg) {
    if (fault_ && fault_->enabled()) {
      try {
        fault_->on_comm(prim);
      } catch (...) {
        tracer_.count("fault.comm_injected");
        throw;
      }
    }
    if (tracer_.enabled()) {
      tracer_.count("mp.primitives");
      if (bytes != obs::kNoArg) {
        tracer_.observe("mp.primitive_bytes", static_cast<double>(bytes));
      }
    }
    return obs::SpanGuard(tracer_, prim, "comm", bytes);
  }

  /// The one collective protocol.  Publishes this rank's payload, modeled
  /// time and lockstep claim; once every member has published, `read`
  /// interprets the members' slots in place and returns {result, Table-1
  /// cost}; then the rank waits for the last publisher and pays the cost.
  /// The three barriers keep the slots stable from publish to the end of
  /// every member's read, and free for the next collective after.  `loc`
  /// is the public caller's call site: it names the collective in the
  /// lockstep record and in the span's site stamp.
  template <class Read>
  auto rendezvous(std::string_view prim, obs::SpanGuard& sp,
                  std::vector<std::byte> payload,
                  const std::source_location& loc, Read read) ->
      typename std::invoke_result_t<Read&>::first_type {
    if (tracer_.enabled()) {
      // Stamp the span with this collective's cross-rank identity so the
      // profiler can align it with the other members' spans offline.
      sp.set_sync(lockstep_site_hash(loc.file_name(), loc.line(), prim),
                  comm_id_, coll_seq_);
    }
    if (lockstep_) {
      ctx_->audit_slot(rank_) = make_lockstep_record(prim, coll_seq_, loc);
    }
    ctx_->time_slot(rank_) = clock_->total();
    ctx_->slot(rank_) = std::move(payload);
    ctx_->publish_barrier();
    ++coll_seq_;
    if (lockstep_) check_lockstep();

    double t_max = 0.0;
    for (int r = 0; r < size_; ++r) {
      t_max = std::max(t_max, ctx_->time_slot(r));
    }
    auto [result, cost] = read();
    ctx_->read_barrier();
    clock_->wait_until(t_max);
    clock_->add_comm(cost);
    ctx_->reuse_barrier();
    return std::move(result);
  }

  /// Derives a subgroup communicator id: FNV-1a over the parent id, the
  /// parent's split generation and the color.  Members compute identical
  /// ids because split() is collective (every member sees the same
  /// generation count on the parent).
  static std::uint64_t child_comm_id(std::uint64_t parent, std::uint64_t gen,
                                     std::uint64_t color) {
    std::uint64_t h = parent;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(gen);
    mix(color);
    return h;
  }

  int to_global(int r) const {
    return group_ ? (*group_)[static_cast<std::size_t>(r)] : r;
  }

  template <Wireable T>
  static void append_bytes(std::vector<std::byte>& out,
                           std::span<const T> data) {
    const auto bytes = to_bytes(data);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  /// Cross-checks every rank's lockstep claim after the publish barrier,
  /// before any payload is interpreted.  Every rank of a divergent
  /// collective sees the same records and throws the same report; the
  /// Runtime's abort machinery unwinds the rest of the program.
  void check_lockstep() {
    const LockstepRecord& mine = ctx_->audit_slot(rank_);
    bool diverged = false;
    for (int r = 0; r < size_ && !diverged; ++r) {
      diverged = !ctx_->audit_slot(r).matches(mine);
    }
    if (!diverged) return;

    LockstepReport report;
    report.ranks.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      const LockstepRecord& rec = ctx_->audit_slot(r);
      LockstepEntry e;
      e.rank = r;
      e.global_rank = to_global(r);
      e.site = rec.site;
      e.seq = rec.seq;
      e.prim = rec.prim;
      e.where = rec.where;
      report.ranks.push_back(std::move(e));
    }
    // Route the divergence through the rank's observability track so an
    // observed run records it in the trace and the run report metrics.
    tracer_.instant("lockstep.divergence", "audit");
    tracer_.count("lockstep.divergence");
    throw LockstepError(std::move(report));
  }

  int rank_;
  int size_;
  const CostModel* cost_;
  CollectiveContext* ctx_;
  Clock* clock_;
  SplitArena* arena_ = nullptr;
  /// Global rank of each member, by subgroup rank; null for the world.
  std::shared_ptr<const std::vector<int>> group_;
  /// Keeps a split-off context alive for this Comm's lifetime.
  std::shared_ptr<CollectiveContext> owned_ctx_;
  /// Advances on every split() so repeated splits get fresh contexts.
  std::uint64_t split_generation_ = 0;
  /// Lockstep auditing flag, and this rank's collective count on this
  /// communicator (subgroup comms restart at zero).  The count always
  /// advances — the lockstep auditor and the trace sync stamps share it.
  bool lockstep_ = false;
  std::uint64_t coll_seq_ = 0;
  /// Per-rank trace handle; disabled (no-op) by default.
  obs::RankTracer tracer_;
  /// Per-rank fault injector; null (no-op) by default.
  fault::RankFault* fault_ = nullptr;
  /// Run-stable communicator id (see comm_id()).
  std::uint64_t comm_id_ = kWorldCommId;
};

}  // namespace pdc::mp
