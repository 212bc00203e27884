// The traced run: each job's flow composed from the layers' public entry
// points with a timer around every call, plus the sweep engine's stack
// passes, the sweep planner and the evaluation service driven directly
// around the same jobs. Every composed result is checked against what the
// Workbench computed for the job, so the timings are of the real work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-layer wall time and work of composed jobs (sums over the jobs).
struct LayerTimes {
  double form_s = 0;        ///< traceopt::form_traces
  double layout_s = 0;      ///< traceopt::layout_all / layout_excluding
  double conflict_s = 0;    ///< conflict::build_conflict_graph
  double allocate_s = 0;    ///< CasaProblem::from + CasaAllocator::allocate
  double select_s = 0;      ///< Steinke knapsack (not a reported layer)
  double loopcache_s = 0;   ///< enumerate_regions + allocate_ross
  double replay_s = 0;      ///< memsim::simulate_spm_system
  double lc_replay_s = 0;   ///< memsim::simulate_loopcache_system
  double energy_s = 0;      ///< energy::EnergyTable::build
  double check_s = 0;       ///< the artifact checks between the stages
  std::uint64_t conflict_fetches = 0;  ///< fetches the graph builds replayed
  std::uint64_t conflict_edges = 0;
  std::uint64_t ilp_nodes = 0;
  std::uint64_t replay_fetches = 0;    ///< fetches the memsim replays covered

  double total_s() const {
    return form_s + layout_s + conflict_s + allocate_s + select_s +
           loopcache_s + replay_s + lc_replay_s + energy_s + check_s;
  }
};

/// Runs `job`'s flow layer by layer, with the artifact checks Workbench
/// runs between the stages, and returns its Outcome. For CASA jobs it also
/// compares the allocation with the greedy engine on the same problem
/// (untimed).
casa::report::Outcome compose_job(const Bench& b, const Job& job,
                                  LayerTimes& t, Checker& chk);

/// Builds `job`'s CASA problem through the layers and checks that the
/// CASA allocation `alloc_saving` is no worse than the greedy engine's.
void check_against_greedy(const Bench& b, const Job& job,
                          double alloc_saving, Checker& chk);

/// A job of the traced sample and the result the workload's own path
/// produced for it.
struct TracedJob {
  const Bench* bench = nullptr;
  Job job;
  casa::report::JobResult reference;
};

/// One traced round's per-layer figures.
struct TraceRound {
  double executor_s = 0;
  double fetches = 0;
  LayerTimes layers;
  double stack_pass_s = 0;
  double stack_passes = 0;
  double stack_configs = 0;
  double prepare_s = 0;
  double stack_groups = 0;
  double fallback_configs = 0;
  double busy_ratio = 0;
  double cross_check_s = 0;  ///< one direct replay per stack group
  double check_overhead_s = 0;
  double parse_us = 0;
  double lookup_us = 0;
  double render_us = 0;
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double miss_overhead_ms = 0;
  double tracing_overhead_s = 0;
};

/// Traces `sample`: times Workbench::evaluate, composes each ok job from
/// the layers, replays the jobs' cached streams through the stack
/// simulator, runs them through sim::SweepPlanner (with the pipeline's own
/// telemetry) and through a fresh svc::EvalService (one miss, then one hit
/// per job). Every outcome must equal the reference. `planner_path` says
/// whether the workload's own path is the sweep planner, whose per-group
/// cross-check replay then counts into check.overhead_s.
void trace_sample(const std::vector<TracedJob>& sample, bool planner_path,
                  const Config& cfg, TraceRound& round, Checker& chk);

/// Executor time and fetch count of `programs`, run directly.
void trace_executor(const std::vector<const Bench*>& benches,
                    const Config& cfg, TraceRound& round, Checker& chk);

/// Medians over traced rounds, as the per-layer metrics.
Metrics layer_metrics(const std::vector<TraceRound>& rounds);

}  // namespace perfbench
