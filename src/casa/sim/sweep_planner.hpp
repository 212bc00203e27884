// sim::SweepPlanner: a forwarder to report::Workbench::evaluate_batch.
//
// The one-pass sweep pipeline (dedup -> prepare -> group by stream key ->
// one stack pass or direct finish per group) is evaluate_batch itself;
// docs/sweep.md describes it. This class stays only because the benchmark
// harness under perfbench/, whose sources BENCHMARK.json holds fixed,
// constructs a planner and links the casa_sweep target. New code calls
// evaluate_batch directly.
#pragma once

#include <vector>

#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"

namespace casa::sim {

class SweepPlanner {
 public:
  using Job = report::Workbench::Job;

  /// The workbench must outlive the planner.
  explicit SweepPlanner(const report::Workbench& bench) : bench_(&bench) {}

  /// Exactly bench.evaluate_batch(jobs, opt, shards).
  std::vector<report::JobResult> run_jobs(
      const std::vector<Job>& jobs, const report::BatchOptions& opt = {},
      MetricsShards* shards = nullptr) const {
    return bench_->evaluate_batch(jobs, opt, shards);
  }

 private:
  const report::Workbench* bench_;
};

}  // namespace casa::sim
