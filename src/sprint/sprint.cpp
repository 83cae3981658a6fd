#include "sprint/sprint.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>

#include "clouds/categorical.hpp"
#include "clouds/gini.hpp"
#include "clouds/split.hpp"
#include "io/memory_budget.hpp"
#include "mp/sort.hpp"
#include "sprint/attr_list.hpp"

namespace pdc::sprint {

using clouds::CountMatrix;
using clouds::Split;
using clouds::SplitCandidate;
using data::ClassCounts;
using data::Record;

namespace {

/// Per-rank, per-numeric-attribute class counts of this rank's portion of
/// the sorted list; flattened for one combined prefix sum per node.
struct PortionCounts {
  std::array<std::int64_t,
             static_cast<std::size_t>(data::kNumNumeric) * data::kNumClasses>
      v{};

  ClassCounts of(int attr) const {
    ClassCounts c{};
    for (int k = 0; k < data::kNumClasses; ++k) {
      c[static_cast<std::size_t>(k)] =
          v[static_cast<std::size_t>(attr) * data::kNumClasses +
            static_cast<std::size_t>(k)];
    }
    return c;
  }

  void add(int attr, std::int8_t label) {
    ++v[static_cast<std::size_t>(attr) * data::kNumClasses +
        static_cast<std::size_t>(label)];
  }

  friend PortionCounts operator+(PortionCounts a, const PortionCounts& b) {
    for (std::size_t i = 0; i < a.v.size(); ++i) a.v[i] += b.v[i];
    return a;
  }
};
static_assert(std::is_trivially_copyable_v<PortionCounts>);

struct FirstValue {
  std::uint8_t has = 0;
  float value = 0.0f;
};
static_assert(std::is_trivially_copyable_v<FirstValue>);

struct NodeWork {
  std::int64_t id = 0;
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
  ClassCounts counts{};  ///< global
  PortionCounts portion;  ///< this rank's per-attr portion counts
  std::vector<CountMatrix> cats;  ///< this rank's local count matrices
};

bool should_stop(const SprintConfig& cfg, const ClassCounts& counts,
                 std::int32_t depth) {
  const auto n = data::total(counts);
  if (n < cfg.min_records) return true;
  if (depth >= cfg.max_depth) return true;
  std::int64_t max_class = 0;
  for (auto c : counts) max_class = std::max(max_class, c);
  return static_cast<double>(max_class) >=
         cfg.purity_stop * static_cast<double>(n);
}

SplitCandidate reduce_best(mp::Comm& comm, const SplitCandidate& mine) {
  return comm.all_reduce<SplitCandidate>(
      mine, [](SplitCandidate a, const SplitCandidate& b) {
        return clouds::candidate_less(b, a) ? b : a;
      });
}

}  // namespace

clouds::DecisionTree SprintBuilder::train(mp::Comm& comm, io::LocalDisk& disk,
                                          const std::string& records_file,
                                          SprintDiag* diag) {
  const io::MemoryBudget budget(std::max<std::size_t>(cfg_.memory_bytes, 1));
  const std::size_t block = budget.block_records(sizeof(ListEntry), 4);
  SprintDiag local_diag;

  // ---- Setup: global record ids, attribute lists, one-time parallel sort.
  auto records = disk.read_file<Record>(records_file);
  const auto local_n = static_cast<std::uint64_t>(records.size());
  const std::uint64_t rid_base =
      comm.prefix_sum<std::uint64_t>(local_n) - local_n;

  NodeWork root;
  root.cats = clouds::make_count_matrices();
  {
    ClassCounts local_counts{};
    for (const auto& r : records) {
      ++local_counts[static_cast<std::size_t>(r.label)];
      for (auto& m : root.cats) m.add(r);
    }
    root.counts = comm.all_reduce<ClassCounts>(
        local_counts, [](ClassCounts a, const ClassCounts& b) {
          a += b;
          return a;
        });
    hooks_.charge_scan(local_n *
                       static_cast<std::uint64_t>(data::kNumAttributes));
  }

  // One whole-list disk request, matching write_file's request pattern;
  // under the pipeline the write happens behind the caller's next sort.
  auto write_list = [&](const std::string& name,
                        std::span<const ListEntry> list) {
    io::BlockWriter<ListEntry> w(disk, name,
                                 std::max<std::size_t>(1, list.size()),
                                 cfg_.pipeline, io::FileKind::kScratch);
    w.append(list);
    w.close();
  };

  auto presort_span = hooks_.span("presort", "sprint", local_n);
  for (int a = 0; a < data::kNumNumeric; ++a) {
    std::vector<ListEntry> list(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      list[i] = {records[i].num[static_cast<std::size_t>(a)],
                 static_cast<std::uint32_t>(rid_base + i),
                 records[i].label};
    }
    hooks_.charge_sort(list.size());
    list = mp::sample_sort(comm, std::move(list), entry_less);
    hooks_.charge_sort(list.size());  // receive-side merge
    for (const auto& e : list) root.portion.add(a, e.label);
    // Write-behind: one whole-list request per attribute (same request
    // pattern as the synchronous path), overlapped with the next
    // attribute's sort when the pipeline is on.
    write_list(list_file(a, 0), list);
  }
  for (int c = 0; c < data::kNumCategorical; ++c) {
    std::vector<ListEntry> list(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      list[i] = {static_cast<float>(records[i].cat[static_cast<std::size_t>(c)]),
                 static_cast<std::uint32_t>(rid_base + i),
                 records[i].label};
    }
    write_list(list_file(data::kNumNumeric + c, 0), list);
  }
  records.clear();
  records.shrink_to_fit();
  presort_span.close();

  // ---- Tree construction.
  clouds::DecisionTree tree(root.counts);
  root.tree_node = tree.root();
  std::deque<NodeWork> queue;
  queue.push_back(std::move(root));
  std::int64_t next_id = 1;

  auto remove_node_files = [&](std::int64_t id) {
    for (int a = 0; a < data::kNumAttributes; ++a) {
      disk.remove(list_file(a, id));
    }
  };

  while (!queue.empty()) {
    NodeWork w = std::move(queue.front());
    queue.pop_front();
    ++local_diag.nodes;

    if (should_stop(cfg_, w.counts, w.depth)) {
      ++local_diag.leaves;
      remove_node_files(w.id);
      continue;
    }

    // First value of each rank's portion, per numeric attribute, so value
    // runs that straddle rank boundaries produce exactly one candidate.
    std::array<FirstValue, data::kNumNumeric> my_first{};
    for (int a = 0; a < data::kNumNumeric; ++a) {
      io::BlockReader<ListEntry> reader(disk, list_file(a, w.id), 1);
      std::vector<ListEntry> one;
      if (reader.next_block(one)) {
        my_first[static_cast<std::size_t>(a)] = {1, one[0].value};
      }
      local_diag.entries_streamed += one.size();
    }
    const auto firsts = comm.all_to_all_broadcast<FirstValue>(
        std::span<const FirstValue>(my_first));
    auto next_first = [&](int attr) -> FirstValue {
      for (int r = comm.rank() + 1; r < comm.size(); ++r) {
        const auto& fv =
            firsts[static_cast<std::size_t>(r)][static_cast<std::size_t>(attr)];
        if (fv.has) return fv;
      }
      return {};
    };

    auto eval_span =
        hooks_.span("split-eval", "sprint", data::total(w.counts));
    eval_span.set_depth(static_cast<std::uint64_t>(w.depth));
    // Class counts strictly before each portion: one prefix sum.
    const PortionCounts inclusive =
        comm.prefix_sum<PortionCounts>(w.portion, std::plus<>{});
    auto before_of = [&](int attr) {
      return inclusive.of(attr) - w.portion.of(attr);
    };

    // Numeric sweeps: gini at every distinct value of my portions.
    SplitCandidate local_best;
    for (int a = 0; a < data::kNumNumeric; ++a) {
      ClassCounts left = before_of(a);
      const FirstValue successor = next_first(a);

      io::BlockReader<ListEntry> reader(disk, list_file(a, w.id), block,
                                        cfg_.pipeline);
      std::vector<ListEntry> buf;
      bool have_run = false;
      float run_value = 0.0f;
      std::uint64_t candidates = 0;
      auto emit = [&](float v) {
        // Suppress the candidate if the run continues into the next rank.
        if (successor.has && successor.value == v) return;
        const auto right = w.counts - left;
        if (data::total(left) == 0 || data::total(right) == 0) return;
        Split s;
        s.kind = Split::Kind::kNumeric;
        s.attr = static_cast<std::int8_t>(a);
        s.threshold = v;
        local_best.consider(clouds::split_gini(left, right), s);
        ++candidates;
      };
      std::uint64_t streamed = 0;
      while (reader.next_block(buf)) {
        for (const auto& e : buf) {
          if (have_run && e.value != run_value) emit(run_value);
          have_run = true;
          run_value = e.value;
          ++left[static_cast<std::size_t>(e.label)];
          ++streamed;
        }
        // Per-block charging: the next block's read-ahead hides under it.
        hooks_.charge_scan(buf.size());
      }
      if (have_run) emit(run_value);
      local_diag.entries_streamed += streamed;
      hooks_.charge_gini(candidates);
    }

    // Categorical: one combined global matrix reduction.
    {
      std::vector<std::int64_t> flat;
      for (const auto& m : w.cats) {
        const auto f = m.flatten();
        flat.insert(flat.end(), f.begin(), f.end());
      }
      const auto global = comm.all_reduce_vec<std::int64_t>(flat);
      std::size_t off = 0;
      for (int c = 0; c < data::kNumCategorical; ++c) {
        CountMatrix m(c);
        const std::size_t len = m.counts.size() * data::kNumClasses;
        m.unflatten(std::span<const std::int64_t>(global.data() + off, len));
        off += len;
        local_best.consider(clouds::best_categorical_split(m));
        hooks_.charge_gini(m.counts.size() * m.counts.size());
      }
    }

    eval_span.close();
    const auto best = reduce_best(comm, local_best);
    if (!best.valid) {
      ++local_diag.leaves;
      remove_node_files(w.id);
      continue;
    }

    // ---- Partitioning.
    auto part_span =
        hooks_.span("partition-pass", "sprint", data::total(w.counts));
    part_span.set_depth(static_cast<std::uint64_t>(w.depth));
    // Pass 1: the winning attribute's list decides each rid's side.
    std::vector<std::uint32_t> my_left_rids;
    {
      const int winner_file =
          best.split.kind == Split::Kind::kNumeric
              ? best.split.attr
              : data::kNumNumeric + best.split.attr;
      io::BlockReader<ListEntry> reader(disk, list_file(winner_file, w.id),
                                        block, cfg_.pipeline);
      std::vector<ListEntry> buf;
      while (reader.next_block(buf)) {
        for (const auto& e : buf) {
          const bool goes_left =
              best.split.kind == Split::Kind::kNumeric
                  ? e.value <= best.split.threshold
                  : ((best.split.subset >>
                      static_cast<std::uint32_t>(e.value)) &
                     1u) != 0;
          // pdc: incore(SPRINT winning-list rid set: the algorithm's inherent in-memory structure the paper critiques)
          if (goes_left) my_left_rids.push_back(e.rid);
          local_diag.entries_streamed += 1;
        }
        hooks_.charge_scan(buf.size());
      }
    }

    // The rid exchange: the probing structure the non-winning lists need.
    //   SPRINT (kReplicated):        full left set all-gathered everywhere.
    //   ScalParC (kDistributedHash): left set hash-partitioned (rid % p);
    //                                membership answered by batched
    //                                query/response exchanges per block.
    const bool distributed =
        cfg_.rid_exchange == RidExchange::kDistributedHash &&
        comm.size() > 1;
    const auto p = static_cast<std::size_t>(comm.size());
    std::vector<std::uint32_t> member_set;  // global set, or my hash shard
    if (!distributed) {
      member_set = comm.all_gather<std::uint32_t>(my_left_rids);
      local_diag.rids_exchanged += member_set.size();
    } else {
      std::vector<std::vector<std::uint32_t>> outgoing(p);
      for (const auto rid : my_left_rids) {
        outgoing[rid % p].push_back(rid);
      }
      local_diag.rids_exchanged += my_left_rids.size();
      const auto incoming = comm.all_to_all<std::uint32_t>(outgoing);
      for (const auto& part : incoming) {
        member_set.insert(member_set.end(), part.begin(), part.end());
      }
    }
    std::sort(member_set.begin(), member_set.end());
    hooks_.charge_sort(member_set.size());
    hooks_.tracer.count("sprint.rids_exchanged",
                        distributed ? my_left_rids.size()
                                    : member_set.size());
    local_diag.max_rid_set =
        std::max<std::uint64_t>(local_diag.max_rid_set, member_set.size());
    auto in_member_set = [&](std::uint32_t rid) {
      return std::binary_search(member_set.begin(), member_set.end(), rid);
    };

    // Pass 2: split every list, preserving order; collect the children's
    // metadata in the same pass.
    NodeWork lw;
    NodeWork rw;
    lw.id = next_id++;
    rw.id = next_id++;
    lw.depth = rw.depth = w.depth + 1;
    lw.cats = clouds::make_count_matrices();
    rw.cats = clouds::make_count_matrices();
    for (int f = 0; f < data::kNumAttributes; ++f) {
      io::BlockReader<ListEntry> reader(disk, list_file(f, w.id), block,
                                        cfg_.pipeline);
      io::BlockWriter<ListEntry> lwriter(disk, list_file(f, lw.id), block,
                                         cfg_.pipeline, io::FileKind::kScratch);
      io::BlockWriter<ListEntry> rwriter(disk, list_file(f, rw.id), block,
                                         cfg_.pipeline, io::FileKind::kScratch);

      // Distributed membership is a collective per block, so every rank
      // must run the same number of block rounds.
      const std::uint64_t my_records =
          disk.file_records<ListEntry>(list_file(f, w.id));
      const std::uint64_t my_blocks =
          (my_records + block - 1) / static_cast<std::uint64_t>(block);
      const std::uint64_t rounds =
          distributed ? comm.all_reduce<std::uint64_t>(
                            my_blocks,
                            [](std::uint64_t a, std::uint64_t b) {
                              return std::max(a, b);
                            })
                      : my_blocks;

      std::vector<ListEntry> buf;
      std::uint64_t streamed = 0;
      for (std::uint64_t round = 0; round < rounds; ++round) {
        buf.clear();
        if (round < my_blocks && !reader.next_block(buf)) {
          throw std::runtime_error("sprint: attribute list stream ended " +
                                   std::to_string(my_blocks - round) +
                                   " blocks early");
        }

        std::vector<std::uint8_t> is_left(buf.size());
        if (!distributed) {
          for (std::size_t i = 0; i < buf.size(); ++i) {
            is_left[i] = in_member_set(buf[i].rid) ? 1 : 0;
          }
        } else {
          // Batched query/response: ask each rid's shard owner.
          std::vector<std::vector<std::uint32_t>> queries(p);
          std::vector<std::vector<std::uint32_t>> positions(p);
          for (std::size_t i = 0; i < buf.size(); ++i) {
            const auto owner = buf[i].rid % p;
            queries[owner].push_back(buf[i].rid);
            positions[owner].push_back(static_cast<std::uint32_t>(i));
            ++local_diag.rids_exchanged;
          }
          const auto asked = comm.all_to_all<std::uint32_t>(queries);
          std::vector<std::vector<std::uint8_t>> replies(p);
          for (std::size_t src = 0; src < p; ++src) {
            replies[src].reserve(asked[src].size());
            for (const auto rid : asked[src]) {
              replies[src].push_back(in_member_set(rid) ? 1 : 0);
            }
          }
          const auto answers = comm.all_to_all<std::uint8_t>(replies);
          for (std::size_t owner = 0; owner < p; ++owner) {
            for (std::size_t k = 0; k < positions[owner].size(); ++k) {
              is_left[positions[owner][k]] = answers[owner][k];
            }
          }
        }

        for (std::size_t i = 0; i < buf.size(); ++i) {
          const auto& e = buf[i];
          const bool l = is_left[i] != 0;
          (l ? lwriter : rwriter).append(e);
          NodeWork& side = l ? lw : rw;
          if (f < data::kNumNumeric) {
            side.portion.add(f, e.label);
          } else {
            side.cats[static_cast<std::size_t>(f - data::kNumNumeric)].add(
                static_cast<int>(e.value), e.label);
          }
          ++streamed;
        }
        hooks_.charge_scan(buf.size());
      }
      local_diag.entries_streamed += streamed;
      lwriter.close();
      rwriter.close();
      disk.remove(list_file(f, w.id));
    }

    part_span.close();
    // Children's global class counts, then grow the replicated tree.
    struct Pair {
      ClassCounts l, r;
    };
    const auto sums = comm.all_reduce<Pair>(
        Pair{lw.portion.of(0), rw.portion.of(0)},
        [](Pair x, const Pair& y) {
          x.l += y.l;
          x.r += y.r;
          return x;
        });
    lw.counts = sums.l;
    rw.counts = sums.r;
    const auto [lnode, rnode] =
        tree.grow(w.tree_node, best.split, lw.counts, rw.counts);
    lw.tree_node = lnode;
    rw.tree_node = rnode;
    queue.push_back(std::move(lw));
    queue.push_back(std::move(rw));
  }

  if (diag) *diag = local_diag;
  return tree;
}

}  // namespace pdc::sprint
