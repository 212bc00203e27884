#include "casa/core/casa_branch_bound.hpp"

#include <algorithm>
#include <numeric>

#include "casa/core/greedy.hpp"
#include "casa/support/error.hpp"

namespace casa::core {

namespace {

/// Subgradient steps on bound (c): at most kNodeSteps at a node, warm-started
/// from its parent's multipliers, and at most kRootSteps at the root, where
/// the step scale halves after kRootPatience steps that fail to lower the
/// bound.
constexpr int kNodeSteps = 15;
constexpr int kRootSteps = 30;
constexpr int kRootPatience = 5;
/// A node keeps stepping only when its warm start already closes at least
/// this share of the gap that (a) and (b) left: a warm start no better than
/// the cheap bounds means the parent's multipliers do not fit this subtree.
constexpr double kWarmStartMinClosure = 0.1;
/// Bound (c) stays on only if it prunes at least kProbeMinPrunes of the first
/// kProbeCalls nodes it runs at; on instances where the covering rows are
/// already slack, it would cost time at every node and cut nothing.
constexpr std::uint64_t kProbeCalls = 1024;
constexpr std::uint64_t kProbeMinPrunes = 4;

/// Quadratic-knapsack-style DFS.
///
/// State per item: undecided / included / excluded. `cur_opt[k]` is an upper
/// bound on item k's remaining marginal saving: its linear value plus every
/// *uncovered* incident edge weight (an edge is covered once either endpoint
/// is included). Branching picks the undecided item with the highest cur_opt
/// density (include branch first). Every node is bounded by
///  (a) the fractional knapsack over undecided items at cur_opt values —
///      capacity-aware, but a shared uncovered edge is credited to both
///      endpoints;
///  (b) the fractional knapsack at linear values plus *all* still-open edge
///      weight — edges counted once, but granted without capacity;
/// and, only when neither of those prunes, by
///  (c) the Lagrangian relaxation of the covering rows y_e <= x_a + x_b:
///      each live edge keeps w_e - lambda_e for itself and credits lambda_e
///      to each fitting undecided endpoint, lambda_e in [0, w_e]. (a) and (b)
///      are its end points lambda = w and lambda = 0; the multipliers in
///      between are tightened by projected subgradient steps. (c) prunes
///      only a subtree that cannot beat the incumbent at all (no eps slack),
///      so it never cuts a solution the search would have recorded.
class Search {
 public:
  Search(const SavingsProblem& sp, const CasaBranchBoundOptions& opt)
      : sp_(sp), opt_(opt) {
    const std::size_t n = sp.item_count();
    incident_.resize(n);
    cur_opt_.assign(sp.value.begin(), sp.value.end());
    for (std::size_t e = 0; e < sp_.edges.size(); ++e) {
      incident_[sp_.edges[e].a].push_back(static_cast<std::uint32_t>(e));
      incident_[sp_.edges[e].b].push_back(static_cast<std::uint32_t>(e));
      cur_opt_[sp_.edges[e].a] += sp_.edges[e].weight;
      cur_opt_[sp_.edges[e].b] += sp_.edges[e].weight;
    }
    state_.assign(n, kUndecided);
    cover_.assign(sp_.edges.size(), 0);
    work_.resize(sp_.edges.size());
    grad_.resize(sp_.edges.size());
    lag_value_.resize(n);
    lag_density_.resize(n);
    xhat_.resize(n);
    cap_left_ = sp_.capacity;
    for (const auto& e : sp_.edges) open_edge_weight_ += e.weight;

    // Items that can never contribute are excluded up front: no saving, or
    // they simply do not fit.
    for (std::size_t k = 0; k < n; ++k) {
      if (cur_opt_[k] <= 0 || sp_.weight[k] > sp_.capacity) {
        exclude(k);
      }
    }

    // Static order by linear-value density, for the capacity-free second
    // bound (edges counted once).
    value_order_.resize(n);
    std::iota(value_order_.begin(), value_order_.end(), 0u);
    std::sort(value_order_.begin(), value_order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const double da =
                    sp_.value[a] / static_cast<double>(sp_.weight[a]);
                const double db =
                    sp_.value[b] / static_cast<double>(sp_.weight[b]);
                if (da != db) return da > db;
                return a < b;
              });

    // Incumbent: marginal-density greedy, strengthened by 1-out/1-in local
    // search. A tight incumbent is what keeps the tree small — the
    // fractional bound alone double-counts shared edges.
    const GreedyResult g = solve_greedy(sp_);
    best_chosen_ = g.chosen;
    best_saving_ = g.saving;
    local_search();
  }

  /// Hill-climbs best_chosen_ with single swaps (drop one chosen item, add
  /// the best replacement set greedily) until no move improves.
  void local_search() {
    const std::size_t n = sp_.item_count();
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 20) {
      improved = false;
      for (std::size_t out = 0; out < n; ++out) {
        if (!best_chosen_[out]) continue;
        std::vector<bool> trial = best_chosen_;
        trial[out] = false;
        Bytes used = 0;
        for (std::size_t k = 0; k < n; ++k) {
          if (trial[k]) used += sp_.weight[k];
        }
        // Refill greedily by marginal density.
        for (;;) {
          const Energy base = sp_.saving_for(trial);
          int pick = -1;
          double best_density = 0.0;
          for (std::size_t in = 0; in < n; ++in) {
            if (trial[in] || sp_.weight[in] + used > sp_.capacity) continue;
            trial[in] = true;
            const Energy with = sp_.saving_for(trial);
            trial[in] = false;
            const double d =
                (with - base) / static_cast<double>(sp_.weight[in]);
            if (d > best_density) {
              best_density = d;
              pick = static_cast<int>(in);
            }
          }
          if (pick < 0) break;
          trial[static_cast<std::size_t>(pick)] = true;
          used += sp_.weight[static_cast<std::size_t>(pick)];
        }
        const Energy s = sp_.saving_for(trial);
        if (s > best_saving_ + opt_.eps) {
          best_saving_ = s;
          best_chosen_ = std::move(trial);
          improved = true;
        }
      }
    }
  }

  CasaBranchBoundResult run() {
    dfs(0);
    CasaBranchBoundResult r;
    r.chosen = std::move(best_chosen_);
    r.saving = sp_.saving_for(r.chosen);
    r.nodes = nodes_;
    r.exact = !aborted_;
    r.stats = stats_;
    r.stats.nodes = nodes_;
    r.lagrangian_prunes = lagrangian_prunes_;
    return r;
  }

 private:
  static constexpr std::uint8_t kUndecided = 0;
  static constexpr std::uint8_t kIncluded = 1;
  static constexpr std::uint8_t kExcluded = 2;

  double density(std::size_t k) const {
    return cur_opt_[k] / static_cast<double>(sp_.weight[k]);
  }

  /// Bounds (a) and (b); the min of both is sound.
  Energy bound() {
    scratch_.clear();
    for (std::size_t k = 0; k < state_.size(); ++k) {
      if (state_[k] == kUndecided && sp_.weight[k] <= cap_left_ &&
          cur_opt_[k] > 0) {
        scratch_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return density(a) > density(b);
              });
    Energy opt_knap = 0;
    Bytes cap = cap_left_;
    for (const std::uint32_t k : scratch_) {
      if (cap == 0) break;
      if (sp_.weight[k] <= cap) {
        opt_knap += cur_opt_[k];
        cap -= sp_.weight[k];
      } else {
        opt_knap += cur_opt_[k] * (static_cast<double>(cap) /
                                   static_cast<double>(sp_.weight[k]));
        cap = 0;
      }
    }

    Energy val_knap = 0;
    cap = cap_left_;
    for (const std::uint32_t k : value_order_) {
      if (cap == 0) break;
      if (state_[k] != kUndecided || sp_.weight[k] > cap_left_ ||
          sp_.value[k] <= 0) {
        continue;
      }
      if (sp_.weight[k] <= cap) {
        val_knap += sp_.value[k];
        cap -= sp_.weight[k];
      } else {
        val_knap += sp_.value[k] * (static_cast<double>(cap) /
                                    static_cast<double>(sp_.weight[k]));
        cap = 0;
      }
    }

    bound_a_wins_ = opt_knap <= val_knap + open_edge_weight_;
    return cur_saving_ + std::min(opt_knap, val_knap + open_edge_weight_);
  }

  /// An undecided item that still fits: the only kind the rest of the
  /// search can still include.
  bool available(std::size_t k) const {
    return state_[k] == kUndecided && sp_.weight[k] <= cap_left_;
  }

  /// Starts bound (c) at this node: collects the live edges (uncovered,
  /// with an available endpoint — the only edges the rest of the search can
  /// still earn) and the available items, and prices both at `lam`.
  void lagrangian_start(const std::vector<double>& lam) {
    live_.clear();
    for (std::size_t e = 0; e < sp_.edges.size(); ++e) {
      if (cover_[e] == 0 &&
          (available(sp_.edges[e].a) || available(sp_.edges[e].b))) {
        live_.push_back(static_cast<std::uint32_t>(e));
      }
    }
    avail_.clear();
    for (std::size_t k = 0; k < state_.size(); ++k) {
      if (available(k)) avail_.push_back(static_cast<std::uint32_t>(k));
    }
    lagrangian_price(lam);
  }

  /// Item values v_k + sum of lambda_e over live e incident to k, and the
  /// edges' own share sum of (w_e - lambda_e). Unavailable items collect
  /// multipliers too; they are never read.
  void lagrangian_price(const std::vector<double>& lam) {
    std::copy(sp_.value.begin(), sp_.value.end(), lag_value_.begin());
    edge_share_ = 0;
    for (const std::uint32_t e : live_) {
      const SavingsProblem::Edge& ed = sp_.edges[e];
      edge_share_ += ed.weight - lam[e];
      lag_value_[ed.a] += lam[e];
      lag_value_[ed.b] += lam[e];
    }
  }

  /// Bound (c) at the current prices: the edges' share plus the fractional
  /// knapsack over available items at their Lagrangian values. Leaves the
  /// knapsack's solution in xhat_ (0 on every other item). `fresh` sorts
  /// the items from scratch; otherwise the previous step's order is
  /// repaired, which one subgradient step barely disturbs.
  Energy lagrangian_bound(bool fresh) {
    for (const std::uint32_t k : avail_) {
      lag_density_[k] = lag_value_[k] / static_cast<double>(sp_.weight[k]);
    }
    const auto denser = [this](std::uint32_t a, std::uint32_t b) {
      if (lag_density_[a] != lag_density_[b]) {
        return lag_density_[a] > lag_density_[b];
      }
      return a < b;
    };
    if (fresh) {
      lag_order_.assign(avail_.begin(), avail_.end());
      std::sort(lag_order_.begin(), lag_order_.end(), denser);
    } else {
      for (std::size_t i = 1; i < lag_order_.size(); ++i) {
        const std::uint32_t k = lag_order_[i];
        std::size_t j = i;
        for (; j > 0 && denser(k, lag_order_[j - 1]); --j) {
          lag_order_[j] = lag_order_[j - 1];
        }
        lag_order_[j] = k;
      }
    }
    std::fill(xhat_.begin(), xhat_.end(), 0.0);
    Energy bound = cur_saving_ + edge_share_;
    Bytes cap = cap_left_;
    for (const std::uint32_t k : lag_order_) {
      if (cap == 0 || lag_value_[k] <= 0) break;
      if (sp_.weight[k] <= cap) {
        xhat_[k] = 1.0;
        bound += lag_value_[k];
        cap -= sp_.weight[k];
      } else {
        xhat_[k] =
            static_cast<double>(cap) / static_cast<double>(sp_.weight[k]);
        bound += lag_value_[k] * xhat_[k];
        cap = 0;
      }
    }
    return bound;
  }

  /// One projected subgradient step on `lam` with a Polyak step of scale
  /// `mu` toward the incumbent, re-pricing incrementally. The subgradient
  /// is g_e = x_a + x_b - y_e with y_e = [lam_e < w_e]. Returns false when
  /// it vanishes: `lam` is then optimal.
  bool subgradient_step(std::vector<double>& lam, Energy bound, double mu) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const std::uint32_t e = live_[i];
      const SavingsProblem::Edge& ed = sp_.edges[e];
      const double g =
          xhat_[ed.a] + xhat_[ed.b] - (lam[e] < ed.weight ? 1.0 : 0.0);
      grad_[i] = g;
      norm2 += g * g;
    }
    if (norm2 == 0.0) return false;
    const double t = mu * (bound - best_saving_) / norm2;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (grad_[i] == 0.0) continue;
      const std::uint32_t e = live_[i];
      const SavingsProblem::Edge& ed = sp_.edges[e];
      const double next = std::clamp(lam[e] - t * grad_[i], 0.0, ed.weight);
      const double delta = next - lam[e];
      lam[e] = next;
      edge_share_ -= delta;
      lag_value_[ed.a] += delta;
      lag_value_[ed.b] += delta;
    }
    return true;
  }

  /// Bound (c) at a node where (a) and (b) left `cheap_gap` above the
  /// incumbent: true when it prunes. The node's best multipliers stay in
  /// lam_[depth] as its children's warm start.
  bool lagrangian_prunes(std::uint64_t depth, Energy cheap_gap) {
    const auto d = static_cast<std::size_t>(depth);
    if (lam_.size() <= d) lam_.resize(d + 1);
    lam_[d].resize(sp_.edges.size());  // allocates on the first visit only
    const bool root = d == 0;
    const Energy target = best_saving_;
    Energy bound = 0;
    if (root) {
      // The even split w_e / 2, unless that starts above the cheap bounds:
      // then the end point that set them.
      for (std::size_t e = 0; e < sp_.edges.size(); ++e) {
        work_[e] = sp_.edges[e].weight / 2;
      }
      lagrangian_start(work_);
      bound = lagrangian_bound(true);
      if (bound - target > cheap_gap) {
        for (const std::uint32_t e : live_) {
          work_[e] = bound_a_wins_ ? sp_.edges[e].weight : 0.0;
        }
        lagrangian_price(work_);
        bound = lagrangian_bound(true);
      }
    } else {
      // Every live edge here was live at the parent (covers only grow and
      // capacity only shrinks down the tree), so lam_[d - 1] is set.
      work_ = lam_[d - 1];
      lagrangian_start(work_);
      bound = lagrangian_bound(true);
      if (bound - target > (1.0 - kWarmStartMinClosure) * cheap_gap) {
        lam_[d] = work_;
        return false;
      }
    }

    std::vector<double>& best_lam = lam_[d];
    const int max_steps = root ? kRootSteps : kNodeSteps;
    double mu = 2.0;
    int stale = 0;
    Energy best_bound = bound;
    best_lam = work_;
    for (int step = 1;; ++step) {
      if (bound <= target) return true;
      if (step >= max_steps || !subgradient_step(work_, bound, mu)) break;
      bound = lagrangian_bound(false);
      if (bound < best_bound) {
        best_bound = bound;
        stale = 0;
        for (const std::uint32_t e : live_) best_lam[e] = work_[e];
      } else if (root && ++stale >= kRootPatience) {
        mu /= 2;
        stale = 0;
      }
    }
    return false;
  }

  std::size_t other_endpoint(std::uint32_t e, std::size_t k) const {
    return sp_.edges[e].a == k ? sp_.edges[e].b : sp_.edges[e].a;
  }

  void include(std::size_t k) {
    state_[k] = kIncluded;
    cap_left_ -= sp_.weight[k];
    cur_saving_ += sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e]++ == 0) {
        cur_saving_ += sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].a] -= sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].b] -= sp_.edges[e].weight;
        // k was undecided, so the edge was coverable (open) until now.
        open_edge_weight_ -= sp_.edges[e].weight;
      }
    }
  }

  void undo_include(std::size_t k) {
    state_[k] = kUndecided;
    cap_left_ += sp_.weight[k];
    cur_saving_ -= sp_.value[k];
    for (const std::uint32_t e : incident_[k]) {
      if (--cover_[e] == 0) {
        cur_saving_ -= sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].a] += sp_.edges[e].weight;
        cur_opt_[sp_.edges[e].b] += sp_.edges[e].weight;
        // k is undecided again: the edge is coverable once more.
        open_edge_weight_ += sp_.edges[e].weight;
      }
    }
  }

  // An uncovered edge stops being coverable only when BOTH endpoints are
  // excluded (covering needs one *included* endpoint, which requires an
  // undecided one).
  void exclude(std::size_t k) {
    state_[k] = kExcluded;
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] == 0 && state_[other_endpoint(e, k)] == kExcluded) {
        open_edge_weight_ -= sp_.edges[e].weight;
      }
    }
  }

  void undo_exclude(std::size_t k) {
    state_[k] = kUndecided;
    for (const std::uint32_t e : incident_[k]) {
      if (cover_[e] == 0 && state_[other_endpoint(e, k)] == kExcluded) {
        open_edge_weight_ += sp_.edges[e].weight;
      }
    }
  }

  void dfs(std::uint64_t depth) {
    if (aborted_) return;
    if (++nodes_ > opt_.max_nodes) {
      aborted_ = true;
      return;
    }
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    if (cur_saving_ > best_saving_) {
      best_saving_ = cur_saving_;
      best_chosen_.assign(state_.size(), false);
      for (std::size_t k = 0; k < state_.size(); ++k) {
        best_chosen_[k] = state_[k] == kIncluded;
      }
      ++stats_.incumbent_updates;
    }

    // Branch variable: densest undecided item that still fits.
    int pick = -1;
    double pick_density = 0.0;
    for (std::size_t k = 0; k < state_.size(); ++k) {
      if (state_[k] != kUndecided || sp_.weight[k] > cap_left_ ||
          cur_opt_[k] <= 0) {
        continue;
      }
      const double d = density(k);
      if (pick < 0 || d > pick_density) {
        pick = static_cast<int>(k);
        pick_density = d;
      }
    }
    if (pick < 0) return;  // nothing can be added
    const Energy cheap_gap = bound() - (best_saving_ + opt_.eps);
    if (cheap_gap <= 0) {
      ++stats_.bound_prunes;
      return;
    }
    if (lagrangian_on_) {
      const bool pruned = lagrangian_prunes(depth, cheap_gap);
      if (pruned) ++lagrangian_prunes_;
      if (++lagrangian_calls_ == kProbeCalls &&
          lagrangian_prunes_ < kProbeMinPrunes) {
        lagrangian_on_ = false;
      }
      if (pruned) {
        ++stats_.bound_prunes;
        return;
      }
    }

    const auto k = static_cast<std::size_t>(pick);
    include(k);
    dfs(depth + 1);
    undo_include(k);

    exclude(k);
    dfs(depth + 1);
    undo_exclude(k);
  }

  const SavingsProblem& sp_;
  const CasaBranchBoundOptions& opt_;

  std::vector<std::vector<std::uint32_t>> incident_;
  std::vector<Energy> cur_opt_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint16_t> cover_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::uint32_t> value_order_;
  Bytes cap_left_ = 0;
  Energy cur_saving_ = 0;
  Energy open_edge_weight_ = 0;
  bool bound_a_wins_ = false;  ///< the last bound() was set by (a), not (b)

  // Bound (c) workspace; the per-depth multipliers are allocated the first
  // time (c) runs at that depth.
  std::vector<std::vector<double>> lam_;  ///< best multipliers per depth
  std::vector<double> work_;              ///< subgradient iterate
  std::vector<std::uint32_t> live_;       ///< this node's live edges
  std::vector<std::uint32_t> avail_;      ///< this node's available items
  std::vector<std::uint32_t> lag_order_;  ///< avail_ by Lagrangian density
  Energy edge_share_ = 0;                 ///< sum of w_e - lambda_e, live e
  std::vector<double> lag_value_;         ///< per item: v_k + sum lambda_e
  std::vector<double> lag_density_;
  std::vector<double> xhat_;              ///< fractional knapsack solution
  std::vector<double> grad_;              ///< per live edge (live_ order)

  std::vector<bool> best_chosen_;
  Energy best_saving_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t lagrangian_prunes_ = 0;
  std::uint64_t lagrangian_calls_ = 0;  ///< nodes bound (c) ran at
  bool lagrangian_on_ = true;
  ilp::SolveStats stats_;
  bool aborted_ = false;
};

}  // namespace

CasaBranchBoundResult CasaBranchBound::solve(const SavingsProblem& sp) const {
  Search search(sp, opt_);
  return search.run();
}

}  // namespace casa::core
