// Specialized exact solver for the CASA savings problem — the production
// engine behind CasaEngine::kAuto.
//
// The presolved problem is a quadratic-knapsack variant: choose items under
// a capacity so that linear values plus once-per-edge bonuses are maximized.
// This branch & bound branches on the densest undecided item (include
// first), seeds its incumbent with greedy plus local search, and bounds
// every node with three upper bounds on any completion, cheapest first:
//  (a) a fractional knapsack with each open edge credited in full to both
//      endpoints;
//  (b) a fractional knapsack over linear values plus all open edge weight;
//  (c) only where neither (a) nor (b) prunes: the Lagrangian relaxation of
//      the covering rows y_e <= x_a + x_b (paper constraints 13-15), with
//      multipliers lambda_e in [0, w_e] — (a) and (b) are its end points.
//      The multipliers are tightened by projected subgradient steps: at
//      most 30 at the root, and at most 15 at any other node, warm-started
//      from its parent's and kept up only while that warm start beats (a)
//      and (b). Instances that (a) and (b) close at the root never run it,
//      and a search where it prunes fewer than 4 of its first 1024 nodes
//      turns it off.
// Every bound is sound for every multiplier, so the search stays exact;
// (a) and (b) prune within `eps` of the incumbent, (c) only at or below it.
//
// The generic ilp::BranchAndBound solves the same instances through the
// paper's LP formulation and stays the paper-literal engine for ablations
// and cross-checks; the test suite holds the two to the same optimum.
#pragma once

#include <cstdint>
#include <vector>

#include "casa/core/problem.hpp"
#include "casa/ilp/solve_stats.hpp"

namespace casa::core {

struct CasaBranchBoundOptions {
  std::uint64_t max_nodes = 50'000'000;
  double eps = 1e-9;  ///< pruning slack on energy comparisons (nJ)
};

struct CasaBranchBoundResult {
  std::vector<bool> chosen;  ///< per presolved item
  Energy saving = 0;
  std::uint64_t nodes = 0;   ///< == stats.nodes (kept for existing callers)
  bool exact = true;  ///< false when max_nodes aborted the proof
  /// Exploration statistics (simplex_iterations stays 0 — no LPs here).
  /// stats.bound_prunes counts the prunes of all three bounds.
  ilp::SolveStats stats;
  /// Of stats.bound_prunes, the subtrees only the Lagrangian bound cut.
  std::uint64_t lagrangian_prunes = 0;
};

class CasaBranchBound {
 public:
  using Options = CasaBranchBoundOptions;

  explicit CasaBranchBound(Options opt = {}) : opt_(opt) {}

  [[nodiscard]] CasaBranchBoundResult solve(const SavingsProblem& sp) const;

 private:
  Options opt_;
};

}  // namespace casa::core
