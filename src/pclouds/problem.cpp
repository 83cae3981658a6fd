#include "pclouds/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "mp/serialize.hpp"
#include "pclouds/alive.hpp"
#include "pclouds/combiners.hpp"
#include "pclouds/stats_codec.hpp"

namespace pdc::pclouds {

using clouds::NodeStats;
using clouds::SplitCandidate;
using data::Record;

CloudsProblem::CloudsProblem(const PcloudsConfig& cfg,
                             std::uint64_t root_records,
                             std::vector<Record> replicated_sample,
                             clouds::CostHooks hooks, io::LocalDisk* disk)
    : cfg_(cfg),
      root_records_(root_records),
      root_sample_(std::move(replicated_sample)),
      hooks_(hooks),
      disk_(disk) {
  if (cfg_.clouds.method == clouds::SplitMethod::kDirect) {
    throw std::invalid_argument(
        "pclouds: large nodes use SS or SSE; kDirect is for small nodes");
  }
  node_of_[0] = tree_.root();
}

CloudsProblem::TaskCtx& CloudsProblem::ctx_of(const dc::Task& task) {
  auto it = ctxs_.find(task.id);
  if (it != ctxs_.end()) return it->second;
  if (task.id != 0) {
    throw std::logic_error("pclouds: missing context for non-root task");
  }
  // Root context: sample mode derives boundaries from the full replicated
  // sample; sketch mode starts with empty sketches (boundaries are derived
  // in decide(), after the sketches are globally merged).
  TaskCtx ctx;
  if (sketch_mode()) {
    ctx.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    ctx.sketches.assign(data::kNumNumeric,
                        clouds::QuantileSketch(kSketchK));
  } else {
    ctx.sample = root_sample_;
    const int q = cfg_.clouds.q_for(task.global_n, root_records_);
    ctx.local = NodeStats::with_boundaries(ctx.sample, q);
  }
  return ctxs_.emplace(task.id, std::move(ctx)).first->second;
}

std::vector<std::byte> CloudsProblem::encode_sketch_blob(
    const TaskCtx& ctx) const {
  // [ClassCounts][sketch * kNumNumeric]
  mp::WireWriter out;
  out.put_raw(ctx.local.counts);  // pdc: nonwire(local is the stats holder; only counts travels, landing in SketchBlob::counts)
  for (const auto& s : ctx.sketches) out.put_bytes(s.serialize());
  return out.take();
}

namespace {

struct SketchBlob {
  data::ClassCounts counts{};
  std::vector<clouds::QuantileSketch> sketches;
};

SketchBlob decode_sketch_blob(std::span<const std::byte> blob) {
  mp::WireReader in(blob, "pclouds sketch blob");
  SketchBlob out;
  // pdc: nonwire(counts mirrors encode's ctx.local.counts; the decode side
  //              has no NodeStats to land it in, only this holder struct)
  out.counts = in.get_raw<data::ClassCounts>();
  out.sketches.reserve(data::kNumNumeric);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    out.sketches.push_back(clouds::QuantileSketch::deserialize(in));
  }
  in.finish();
  return out;
}

}  // namespace

void CloudsProblem::drop_ctx(std::int64_t task_id) { ctxs_.erase(task_id); }

std::int32_t CloudsProblem::tree_node_of(std::int64_t task_id) const {
  const auto it = node_of_.find(task_id);
  if (it == node_of_.end()) {
    throw std::out_of_range("pclouds: unknown task id");
  }
  return it->second;
}

std::vector<std::byte> CloudsProblem::local_stats(const Scan& scan,
                                                  const dc::Task& task) {
  auto sp = hooks_.span("histogram-build", "pclouds", task.global_n);
  sp.set_depth(static_cast<std::uint64_t>(task.depth));
  TaskCtx& ctx = ctx_of(task);

  if (sketch_mode()) {
    if (!ctx.filled) {
      // Compute is charged per record inside the scan (not in one bulk
      // charge afterwards) so the pipelined reader can hide each block's
      // I/O under the previous block's processing.
      scan([&](const Record& r) {
        ++ctx.local.counts[static_cast<std::size_t>(r.label)];
        for (int a = 0; a < data::kNumNumeric; ++a) {
          ctx.sketches[static_cast<std::size_t>(a)].add(
              r.num[static_cast<std::size_t>(a)]);
        }
        hooks_.charge_scan(static_cast<std::uint64_t>(data::kNumNumeric));
      });
      ctx.filled = true;
    } else if (ctx.prefilled) {
      ++diag_.prefilled_nodes;
    }
    return encode_sketch_blob(ctx);
  }

  if (!ctx.filled) {
    clouds::collect_stats(scan, ctx.local, hooks_);
    ctx.filled = true;
  } else if (ctx.prefilled) {
    ++diag_.prefilled_nodes;  // the pass the paper's partitioning saves
  }
  if (cfg_.combiner == CombineMethod::kDistributed ||
      cfg_.combiner == CombineMethod::kVoting) {
    // Stats do not ride the driver's all-to-all: the distributed method
    // gathers them to per-attribute owners, the voting method exchanges
    // only the voted candidates — both inside decide().
    return {};
  }
  return encode_stats(ctx.local);
}

std::vector<std::byte> CloudsProblem::combine(std::vector<std::byte> a,
                                              const std::vector<std::byte>& b) {
  if (sketch_mode()) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    auto sa = decode_sketch_blob(a);
    const auto sb = decode_sketch_blob(b);
    sa.counts += sb.counts;
    for (int i = 0; i < data::kNumNumeric; ++i) {
      sa.sketches[static_cast<std::size_t>(i)].merge(
          sb.sketches[static_cast<std::size_t>(i)]);
    }
    TaskCtx tmp;
    tmp.local.counts = sa.counts;
    tmp.sketches = std::move(sa.sketches);
    return encode_sketch_blob(tmp);
  }
  return combine_stats_blobs(std::move(a), b);
}

std::optional<CloudsProblem::Router> CloudsProblem::decide(
    mp::Comm& comm, const std::vector<std::byte>& stats, const Scan& scan,
    const dc::Task& task) {
  TaskCtx& ctx = ctx_of(task);
  const bool want_alive = cfg_.clouds.method == clouds::SplitMethod::kSSE;

  if (sketch_mode()) {
    // Derive this node's boundaries from the globally merged sketches,
    // then run the statistics pass the sample mode prefilled.
    const auto merged = decode_sketch_blob(stats);
    const int q = cfg_.clouds.q_for(task.global_n, root_records_);
    ctx.local = NodeStats::with_boundaries({}, q);
    for (int a = 0; a < data::kNumNumeric; ++a) {
      auto& hist = ctx.local.hists[static_cast<std::size_t>(a)];
      hist.bounds = merged.sketches[static_cast<std::size_t>(a)].boundaries(q);
      hist.reset_counts();
    }
    clouds::collect_stats(scan, ctx.local, hooks_);
  }

  BoundaryDerivation bd;
  if (cfg_.combiner == CombineMethod::kDistributed) {
    bd = derive_distributed(comm, ctx.local, want_alive, hooks_);
  } else if (cfg_.combiner == CombineMethod::kVoting) {
    // Works in both boundary modes: ctx.local is filled either way by the
    // time we get here, and the voting exchange replaces the full-stats
    // broadcast entirely.
    bd = derive_voting(comm, ctx.local, cfg_.vote_k, cfg_.hist_bits,
                       want_alive, hooks_);
  } else {
    // Sample mode combined the interval statistics in the driver's
    // exchange; sketch mode shipped only sketches there, so it combines
    // them here with one broadcast + fold.
    std::vector<std::byte> folded;
    if (sketch_mode()) {
      auto blobs =
          comm.all_to_all_broadcast<std::byte>(encode_stats(ctx.local));
      folded = std::move(blobs[0]);
      for (int r = 1; r < comm.size(); ++r) {
        folded = combine_stats_blobs(std::move(folded),
                                     blobs[static_cast<std::size_t>(r)]);
      }
    }
    NodeStats global = ctx.local;  // boundary layout; frequencies replaced
    decode_stats(sketch_mode() ? folded : stats, global);
    bd = derive_replicated(comm, cfg_.combiner, global, want_alive, hooks_);
  }

  if (task.id == 0) {
    // The root tree node learns its class counts from the first derivation.
    auto& root = tree_.node(tree_.root());
    root.counts = bd.counts;
    root.label = static_cast<std::int8_t>(
        bd.counts[1] > bd.counts[0] ? 1 : 0);
  }

  if (clouds::stop_expansion(cfg_.clouds, bd.counts, task.depth)) {
    return std::nullopt;
  }

  SplitCandidate best = bd.gini_min;
  if (want_alive) {
    ++diag_.sse_nodes;
    diag_.alive_intervals += bd.alive.size();
    hooks_.tracer.observe("pclouds.alive_intervals_per_node",
                          static_cast<double>(bd.alive.size()));
    const auto outcome = evaluate_alive_parallel(comm, bd.alive, bd.gini_min,
                                                 bd.counts, scan, hooks_);
    best = outcome.best;
    diag_.survival_sum += outcome.survival;
    diag_.alive_points_shipped += outcome.points_shipped;
    hooks_.tracer.observe("pclouds.survival", outcome.survival);
  }
  if (!best.valid) return std::nullopt;

  // Prepare the children and let the router fill their statistics during
  // the framework's partitioning pass.
  //   kSample: partition the replicated sample, derive each child's
  //            interval boundaries from its sample share (q scales with
  //            the estimated child size), prefill full NodeStats.
  //   kSketch: children get fresh sketches; the router feeds them (and the
  //            class counts) while routing — boundaries are derived at the
  //            child's own decide() from the merged sketches.
  TaskCtx lc;
  TaskCtx rc;
  if (sketch_mode()) {
    lc.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    rc.local = NodeStats::with_boundaries({}, cfg_.clouds.q_min);
    lc.sketches.assign(data::kNumNumeric,
                       clouds::QuantileSketch(kSketchK));
    rc.sketches.assign(data::kNumNumeric,
                       clouds::QuantileSketch(kSketchK));
  } else {
    for (const auto& r : ctx.sample) {
      (best.split.goes_left(r) ? lc.sample : rc.sample).push_back(r);
    }
    const auto sample_n = std::max<std::size_t>(1, ctx.sample.size());
    const auto est = [&](std::size_t child_sample) {
      return task.global_n * child_sample / sample_n;
    };
    lc.local = NodeStats::with_boundaries(
        lc.sample, cfg_.clouds.q_for(est(lc.sample.size()), root_records_));
    rc.local = NodeStats::with_boundaries(
        rc.sample, cfg_.clouds.q_for(est(rc.sample.size()), root_records_));
  }
  lc.filled = rc.filled = true;
  lc.prefilled = rc.prefilled = true;

  auto [it, inserted] =
      pending_.emplace(task.id, std::make_pair(std::move(lc), std::move(rc)));
  if (!inserted) {
    throw std::logic_error("pclouds: task decided twice");
  }
  splits_[task.id] = best.split;

  const clouds::Split split = best.split;
  // Routers charge their statistics work per record so the partition pass
  // accrues compute between block reaps — the async writers hide their
  // flushes under it.
  const clouds::CostHooks hooks = hooks_;
  if (sketch_mode()) {
    TaskCtx* lp = &it->second.first;
    TaskCtx* rp = &it->second.second;
    return Router([split, lp, rp, hooks](const Record& r) {
      TaskCtx* side = split.goes_left(r) ? lp : rp;
      ++side->local.counts[static_cast<std::size_t>(r.label)];
      for (int a = 0; a < data::kNumNumeric; ++a) {
        side->sketches[static_cast<std::size_t>(a)].add(
            r.num[static_cast<std::size_t>(a)]);
      }
      hooks.charge_scan(static_cast<std::uint64_t>(data::kNumAttributes));
      return side == lp ? 0 : 1;
    });
  }
  NodeStats* lstats = &it->second.first.local;
  NodeStats* rstats = &it->second.second.local;
  return Router([split, lstats, rstats, hooks](const Record& r) {
    hooks.charge_scan(static_cast<std::uint64_t>(data::kNumAttributes));
    if (split.goes_left(r)) {
      lstats->add(r);
      return 0;
    }
    rstats->add(r);
    return 1;
  });
}

void CloudsProblem::on_split(mp::Comm& comm, const dc::Task& parent,
                             const dc::Task& left, const dc::Task& right) {
  auto pending_it = pending_.find(parent.id);
  if (pending_it == pending_.end()) {
    throw std::logic_error("pclouds: on_split without a pending decision");
  }
  auto [lc, rc] = std::move(pending_it->second);
  pending_.erase(pending_it);

  // The router updated the children's statistics record by record during
  // partitioning and charged that pass per record; combine the class counts
  // globally so every rank grows an identical tree node.
  struct PairCounts {
    data::ClassCounts l, r;
  };
  const auto sums = comm.all_reduce<PairCounts>(
      PairCounts{lc.local.counts, rc.local.counts},
      [](PairCounts a, const PairCounts& b) {
        a.l += b.l;
        a.r += b.r;
        return a;
      });

  const auto [lnode, rnode] = tree_.grow(
      tree_node_of(parent.id), splits_.at(parent.id), sums.l, sums.r);
  node_of_[left.id] = lnode;
  node_of_[right.id] = rnode;

  ctxs_.emplace(left.id, std::move(lc));
  ctxs_.emplace(right.id, std::move(rc));
  splits_.erase(parent.id);
  drop_ctx(parent.id);
}

void CloudsProblem::on_leaf(mp::Comm&, const dc::Task& task) {
  drop_ctx(task.id);
}

void CloudsProblem::solve_sequential(const dc::Task& task,
                                     std::vector<Record> data) {
  auto sp = hooks_.span("solve-sequential", "pclouds", data.size());
  sp.set_depth(static_cast<std::uint64_t>(task.depth));
  clouds::CloudsConfig scfg = cfg_.clouds;
  scfg.max_depth = std::max(0, cfg_.clouds.max_depth - task.depth);

  const io::MemoryBudget budget(std::max<std::size_t>(cfg_.memory_bytes, 1));
  clouds::DecisionTree subtree;
  if (disk_ == nullptr || budget.fits(data.size(), sizeof(Record))) {
    // The intended case: small nodes fit in memory and are solved with the
    // direct method.
    scfg.method = clouds::SplitMethod::kDirect;
    clouds::CloudsBuilder builder(scfg, hooks_);
    subtree = builder.build(data);
  } else {
    // A "small" node that still exceeds the memory limit — this is what a
    // task-parallel assignment of an upper-level node produces.  The owner
    // must spill the data to its own disk and build out-of-core, paying the
    // single-disk I/O the paper warns about.
    scfg.method = clouds::SplitMethod::kSSE;
    const std::string spill = "seq_task_" + std::to_string(task.id);
    disk_->write_file<Record>(spill, data, io::FileKind::kScratch);
    std::vector<Record> sample;
    const std::size_t stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(1.0 / std::max(1e-6,
                                                   cfg_.clouds.sample_rate)));
    for (std::size_t i = 0; i < data.size(); i += stride) {
      sample.push_back(data[i]);
    }
    data.clear();
    data.shrink_to_fit();
    clouds::CloudsBuilder builder(scfg, hooks_);
    subtree = builder.build_out_of_core(*disk_, spill, std::move(sample),
                                        budget);
    disk_->remove(spill);
  }
  small_subtrees_.emplace_back(task.id, subtree.serialize());
  drop_ctx(task.id);
}

std::vector<std::byte> CloudsProblem::export_subtree(const dc::Task& task) {
  // A subtree solved sequentially on this rank still sits in the graft
  // queue; fold it into the local replica on the way out so ancestors'
  // exports see the complete branch, and hand the bytes to the driver.
  for (auto it = small_subtrees_.begin(); it != small_subtrees_.end(); ++it) {
    if (it->first == task.id) {
      tree_.graft(tree_node_of(task.id), it->second);
      auto blob = mp::to_bytes(std::span<const clouds::TreeNode>(it->second));
      small_subtrees_.erase(it);
      return blob;
    }
  }
  const auto nodes = tree_.extract(tree_node_of(task.id));
  return mp::to_bytes(std::span<const clouds::TreeNode>(nodes));
}

void CloudsProblem::absorb_subtree(const dc::Task& task,
                                   std::span<const std::byte> blob) {
  const auto nodes = mp::from_bytes<clouds::TreeNode>(blob);
  tree_.graft(tree_node_of(task.id), nodes);
}

double CloudsProblem::sequential_cost(std::uint64_t n) const {
  // Direct method: sort every numeric attribute of the node.
  const double dn = static_cast<double>(n);
  return n <= 1 ? 1.0
                : static_cast<double>(data::kNumNumeric) * dn * std::log2(dn);
}

// ------------------------------------------------- checkpoint codec ---

namespace {

void put_stats(mp::WireWriter& out, const NodeStats& s) {
  out.put_raw(s.counts);
  out.put_raw<std::uint64_t>(s.hists.size());
  for (const auto& h : s.hists) {
    out.put_array(h.bounds);
    out.put_array(h.freq);
  }
  out.put_raw<std::uint64_t>(s.cats.size());
  for (const auto& c : s.cats) {
    // pdc: nonwire(attr travels as the CountMatrix constructor argument on
    //              the read side, not as a field assignment)
    out.put_raw(c.attr);
    out.put_array(c.counts);
  }
}

/// Every consumer of a NodeStats (NodeStats::add, ss_split,
/// find_alive_intervals and the combiners' owned rules) indexes one
/// histogram per numeric attribute with one more interval than boundaries,
/// and one count matrix per categorical attribute, in order, with a row
/// per attribute value: a restored blob must have exactly that shape.
NodeStats get_stats(mp::WireReader& in) {
  NodeStats s;
  s.counts = in.get_raw<data::ClassCounts>();
  if (in.get_raw<std::uint64_t>() != data::kNumNumeric) {
    in.reject("stats need one histogram per numeric attribute");
  }
  s.hists.resize(data::kNumNumeric);
  for (auto& h : s.hists) {
    h.bounds = in.get_array<float>();
    h.freq = in.get_array<data::ClassCounts>();
    if (h.freq.size() != h.bounds.size() + 1) {
      in.reject("histogram interval count does not match its boundaries");
    }
  }
  if (in.get_raw<std::uint64_t>() != data::kNumCategorical) {
    in.reject("stats need one count matrix per categorical attribute");
  }
  s.cats.clear();
  s.cats.reserve(data::kNumCategorical);
  for (std::size_t i = 0; i < data::kCatCardinality.size(); ++i) {
    const int attr = static_cast<int>(i);
    if (in.get_raw<int>() != attr) {
      in.reject("categorical attribute id out of order");
    }
    clouds::CountMatrix c(attr);
    c.counts = in.get_array<data::ClassCounts>();
    if (c.counts.size() != static_cast<std::size_t>(data::kCatCardinality[i])) {
      in.reject("count matrix rows do not match the attribute's cardinality");
    }
    s.cats.push_back(std::move(c));
  }
  return s;
}

template <class Map>
std::vector<std::int64_t> sorted_keys(const Map& m) {
  std::vector<std::int64_t> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::vector<std::byte> CloudsProblem::export_state() const {
  // The driver snapshots at a loop boundary, where no decision is in
  // flight — a non-empty pending_/splits_ would mean the snapshot point is
  // wrong, not that there is more to save.
  if (!pending_.empty() || !splits_.empty()) {
    throw std::logic_error("pclouds: export_state with a decision in flight");
  }
  mp::WireWriter out;
  // Decisions replay after a resume, so the knobs that steer them must
  // match the snapshot's; stamp them first and verify on restore.
  out.put_raw(static_cast<std::int32_t>(cfg_.combiner));
  out.put_raw(static_cast<std::int32_t>(cfg_.vote_k));
  out.put_raw(static_cast<std::int32_t>(cfg_.hist_bits));
  out.put_array(tree_.serialize());

  out.put_raw<std::uint64_t>(node_of_.size());
  for (const auto id : sorted_keys(node_of_)) {
    out.put_raw(id);
    out.put_raw(node_of_.at(id));
  }

  out.put_raw<std::uint64_t>(ctxs_.size());
  for (const auto id : sorted_keys(ctxs_)) {
    const TaskCtx& ctx = ctxs_.at(id);
    out.put_raw(id);
    out.put_raw(static_cast<std::uint8_t>(ctx.filled ? 1 : 0));
    out.put_raw(static_cast<std::uint8_t>(ctx.prefilled ? 1 : 0));
    out.put_array(ctx.sample);
    put_stats(out, ctx.local);
    out.put_raw<std::uint64_t>(ctx.sketches.size());
    for (const auto& s : ctx.sketches) out.put_bytes(s.serialize());
  }

  out.put_raw<std::uint64_t>(small_subtrees_.size());
  for (const auto& [id, nodes] : small_subtrees_) {
    out.put_raw(id);
    out.put_array(nodes);
  }

  out.put_raw(diag_);
  return out.take();
}

void CloudsProblem::restore_state(std::span<const std::byte> blob) {
  mp::WireReader in(blob, "pclouds state");
  const auto snap_combiner = in.get_raw<std::int32_t>();
  const auto snap_vote_k = in.get_raw<std::int32_t>();
  const auto snap_hist_bits = in.get_raw<std::int32_t>();
  if (snap_combiner != static_cast<std::int32_t>(cfg_.combiner) ||
      snap_vote_k != cfg_.vote_k || snap_hist_bits != cfg_.hist_bits) {
    throw std::runtime_error(
        "pclouds: snapshot was taken under a different combiner "
        "configuration; resume with the matching --combiner/--vote-k/"
        "--hist-bits or start fresh");
  }
  tree_ = clouds::DecisionTree::deserialize(in.get_array<clouds::TreeNode>());

  node_of_.clear();
  // Every entry costs an int64 task id plus an int32 node index.
  const auto n_nodes = in.count(sizeof(std::int64_t) + sizeof(std::int32_t));
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const auto id = in.get_raw<std::int64_t>();
    node_of_.emplace(id, in.get_raw<std::int32_t>());
  }

  ctxs_.clear();
  pending_.clear();
  splits_.clear();
  // Every context costs at least its id, two flags and a sample count.
  const auto n_ctxs = in.count(2 * sizeof(std::uint64_t) + 2);
  for (std::size_t i = 0; i < n_ctxs; ++i) {
    const auto id = in.get_raw<std::int64_t>();
    TaskCtx ctx;
    ctx.filled = in.get_raw<std::uint8_t>() != 0;
    ctx.prefilled = in.get_raw<std::uint8_t>() != 0;
    ctx.sample = in.get_array<Record>();
    ctx.local = get_stats(in);
    // A serialized sketch is at least four u64s.
    ctx.sketches.resize(in.count(4 * sizeof(std::uint64_t)));
    for (auto& s : ctx.sketches) s = clouds::QuantileSketch::deserialize(in);
    ctxs_.emplace(id, std::move(ctx));
  }

  small_subtrees_.clear();
  // Every entry costs an int64 id plus a u64 node count.
  const auto n_small = in.count(2 * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < n_small; ++i) {
    const auto id = in.get_raw<std::int64_t>();
    small_subtrees_.emplace_back(id, in.get_array<clouds::TreeNode>());
  }

  diag_ = in.get_raw<Diag>();
  in.finish();
}

}  // namespace pdc::pclouds
