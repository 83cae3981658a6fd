#pragma once

// Builder for the pdc.drift.v1 artifact: the drift-quantifying differential
// suite's machine-readable output.  The voting combiner is an approximation
// (only the voted candidates' statistics are merged), so "how wrong is it"
// is a measured distribution, not a boolean — this header turns the per-node
// gini-gain deltas, chosen-attribute agreement rates and end-tree accuracy
// deltas collected by tests/differential_test.cpp into one JSON document
// that CI archives and scripts/check_bench.py --drift re-asserts against
// the explicit thresholds embedded in the artifact itself.
//
// Schema (key structure pinned by tests/golden/drift.golden.json):
//   { "schema": "pdc.drift.v1",
//     "thresholds": {"max_mean_accuracy_delta", "min_agreement_rate_k2"},
//     "node": {"cells": [{p, vote_k, trials, agreement_rate,
//                         gini_delta: {count, mean, min, max, p50, p90}}],
//              "agreement_rate_k2"},
//     "tree": {"runs": [{function, p, vote_k, acc_exact, acc_voting,
//                        delta}],
//              "mean_abs_delta", "max_abs_delta"},
//     "pass" }

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pdc::drift {

/// A sample set reported as a compact distribution summary.
struct Distribution {
  std::vector<double> samples;

  void add(double v) { samples.push_back(v); }

  double mean() const {
    if (samples.empty()) return 0.0;
    double s = 0.0;
    for (const double v : samples) s += v;
    return s / static_cast<double>(samples.size());
  }

  double min() const {
    return samples.empty()
               ? 0.0
               : *std::min_element(samples.begin(), samples.end());
  }

  double max() const {
    return samples.empty()
               ? 0.0
               : *std::max_element(samples.begin(), samples.end());
  }

  /// Nearest-rank quantile over a sorted copy; q in [0, 1].
  double quantile(double q) const {
    if (samples.empty()) return 0.0;
    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  obs::Json to_json() const {
    auto j = obs::Json::make_object();
    j.set("count",
          obs::Json::make_number(static_cast<double>(samples.size())));
    j.set("mean", obs::Json::make_number(mean()));
    j.set("min", obs::Json::make_number(min()));
    j.set("max", obs::Json::make_number(max()));
    j.set("p50", obs::Json::make_number(quantile(0.5)));
    j.set("p90", obs::Json::make_number(quantile(0.9)));
    return j;
  }
};

/// One (p, vote_k) cell of the per-node drift matrix: gini-gain deltas
/// (voting minus exact; never negative beyond rounding, since the voted
/// candidate set is a subset of the full attribute set) and how often the
/// voted derivation chose the same splitting attribute as the exact one.
struct NodeCell {
  int p = 0;
  int vote_k = 0;
  int trials = 0;
  int agreements = 0;
  Distribution gini_delta;

  double agreement_rate() const {
    return trials == 0 ? 1.0
                       : static_cast<double>(agreements) /
                             static_cast<double>(trials);
  }
};

/// One end-to-end training pair on the same seeded Agrawal workload:
/// exact combiner vs voting, compared by held-out accuracy.
struct TreeRun {
  int function = 0;
  int p = 0;
  int vote_k = 0;
  double acc_exact = 0.0;
  double acc_voting = 0.0;

  double delta() const { return acc_voting - acc_exact; }
};

struct DriftReport {
  // The explicit budgets the suite asserts; embedded in the artifact so
  // downstream checks (check_bench.py --drift) agree with the tests.
  double max_mean_accuracy_delta = 0.005;  ///< 0.5 accuracy points
  double min_agreement_rate_k2 = 0.95;

  std::vector<NodeCell> node_cells;
  std::vector<TreeRun> tree_runs;

  /// Chosen-attribute agreement pooled over every k==2 node cell.
  double agreement_rate_k2() const {
    int trials = 0;
    int agreements = 0;
    for (const auto& c : node_cells) {
      if (c.vote_k != 2) continue;
      trials += c.trials;
      agreements += c.agreements;
    }
    return trials == 0 ? 1.0
                       : static_cast<double>(agreements) /
                             static_cast<double>(trials);
  }

  double tree_mean_abs_delta() const {
    if (tree_runs.empty()) return 0.0;
    double s = 0.0;
    for (const auto& r : tree_runs) s += std::abs(r.delta());
    return s / static_cast<double>(tree_runs.size());
  }

  double tree_max_abs_delta() const {
    double m = 0.0;
    for (const auto& r : tree_runs) m = std::max(m, std::abs(r.delta()));
    return m;
  }

  bool pass() const {
    return tree_mean_abs_delta() <= max_mean_accuracy_delta &&
           agreement_rate_k2() >= min_agreement_rate_k2;
  }

  obs::Json to_json() const {
    auto root = obs::Json::make_object();
    root.set("schema", obs::Json::make_string("pdc.drift.v1"));

    auto thresholds = obs::Json::make_object();
    thresholds.set("max_mean_accuracy_delta",
                   obs::Json::make_number(max_mean_accuracy_delta));
    thresholds.set("min_agreement_rate_k2",
                   obs::Json::make_number(min_agreement_rate_k2));
    root.set("thresholds", std::move(thresholds));

    auto node = obs::Json::make_object();
    auto cells = obs::Json::make_array();
    for (const auto& c : node_cells) {
      auto cell = obs::Json::make_object();
      cell.set("p", obs::Json::make_number(c.p));
      cell.set("vote_k", obs::Json::make_number(c.vote_k));
      cell.set("trials", obs::Json::make_number(c.trials));
      cell.set("agreement_rate", obs::Json::make_number(c.agreement_rate()));
      cell.set("gini_delta", c.gini_delta.to_json());
      cells.push_back(std::move(cell));
    }
    node.set("cells", std::move(cells));
    node.set("agreement_rate_k2", obs::Json::make_number(agreement_rate_k2()));
    root.set("node", std::move(node));

    auto tree = obs::Json::make_object();
    auto runs = obs::Json::make_array();
    for (const auto& r : tree_runs) {
      auto run = obs::Json::make_object();
      run.set("function", obs::Json::make_number(r.function));
      run.set("p", obs::Json::make_number(r.p));
      run.set("vote_k", obs::Json::make_number(r.vote_k));
      run.set("acc_exact", obs::Json::make_number(r.acc_exact));
      run.set("acc_voting", obs::Json::make_number(r.acc_voting));
      run.set("delta", obs::Json::make_number(r.delta()));
      runs.push_back(std::move(run));
    }
    tree.set("runs", std::move(runs));
    tree.set("mean_abs_delta", obs::Json::make_number(tree_mean_abs_delta()));
    tree.set("max_abs_delta", obs::Json::make_number(tree_max_abs_delta()));
    root.set("tree", std::move(tree));

    root.set("pass", obs::Json::make_bool(pass()));
    return root;
  }
};

}  // namespace pdc::drift
