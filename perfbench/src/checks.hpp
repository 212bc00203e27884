// Output checks that need no saved copy of earlier output: conservation
// and capacity properties of every outcome, LRU inclusion across
// associativities, and an independent reference cache model.
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

/// Fetch conservation (the outcome's fetches equal the executor's, and the
/// SPM + loop-cache + cache accesses sum to them), hits + misses equal the
/// cache accesses, the placed bytes fit the scratchpad or loop cache, and
/// the outcome carries the job's flow.
void check_outcome(const Bench& b, const Job& job,
                   const casa::report::Outcome& out, Checker& chk);

/// Replays the cache-only job's fetch stream word by word through a
/// set-associative LRU model written here, and compares hits, misses and
/// evictions with the outcome.
void check_reference_cache(const Bench& b, const Job& job,
                           const casa::report::Outcome& out, Checker& chk);

/// LRU inclusion: at a fixed set count, more ways never miss more.
/// `points` are cache-only outcomes of one program.
void check_lru_monotone(
    const std::string& workload,
    const std::vector<std::pair<Job, const casa::report::Outcome*>>& points,
    Checker& chk);

/// A zero-size scratchpad point that succeeds must equal the cache-only
/// outcome at the same cache and place nothing.
void check_zero_point(const std::string& workload, const Job& job,
                      const casa::report::Outcome& out,
                      const casa::report::Outcome& cache_only, Checker& chk);

}  // namespace perfbench
