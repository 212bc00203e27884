// Stack-sweep equivalence suite for Workbench::evaluate_batch.
//
// evaluate_batch groups prepared jobs by the fetch stream the cache sees
// and finishes LRU groups off one stack-distance replay. Its contract is
// "a loop of per-job evaluate calls, but faster": Outcomes, per-job
// success or failure, per-job telemetry and thread invariance must all
// survive the one-pass engine. The suite holds evaluate_batch against
// per-job evaluate (the reference path) over a mixed sweep at 1, 2 and 8
// threads — groupable LRU families, FIFO/round-robin fallback, CASA and
// Steinke points, a loop-cache job, singletons, duplicates and failing
// zero-size points — plus per-shard counter parity for the keys a direct
// replay records, the sweep.* planning metrics, batch job deduplication,
// and the sweep.stack.mismatch check rule. (The SweepPlanner suite name is
// the pipeline's historical name.)
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "casa/cachesim/cache.hpp"
#include "casa/check/diagnostic.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/obs/metrics.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/report/workbench.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa::sim {
namespace {

using report::BatchOptions;
using report::JobResult;
using report::Outcome;
using report::Workbench;
using Job = Workbench::Job;

cachesim::CacheConfig cache_cfg(
    Bytes size, unsigned assoc,
    cachesim::ReplacementPolicy policy = cachesim::ReplacementPolicy::kLru) {
  cachesim::CacheConfig cfg;
  cfg.size = size;
  cfg.line_size = 16;
  cfg.associativity = assoc;
  cfg.policy = policy;
  return cfg;
}

/// The healthy sweep: one big groupable LRU cache-only family, duplicates,
/// non-LRU fallback configs, CASA and Steinke singletons, and a loop-cache
/// job (never stack-eligible).
std::vector<Job> mixed_jobs() {
  std::vector<Job> jobs;
  for (const Bytes size : {128u, 256u, 512u, 1024u}) {
    jobs.push_back(Job::cache_only_job(cache_cfg(size, 1)));
  }
  jobs.push_back(Job::cache_only_job(cache_cfg(256, 2)));
  jobs.push_back(Job::cache_only_job(cache_cfg(1024, 4)));
  jobs.push_back(jobs[0]);  // duplicates share one Outcome
  jobs.push_back(jobs[2]);
  jobs.push_back(Job::cache_only_job(
      cache_cfg(128, 1, cachesim::ReplacementPolicy::kFifo)));
  jobs.push_back(Job::cache_only_job(
      cache_cfg(512, 2, cachesim::ReplacementPolicy::kFifo)));
  jobs.push_back(Job::cache_only_job(
      cache_cfg(256, 1, cachesim::ReplacementPolicy::kRoundRobin)));
  jobs.push_back(Job::casa_job(cache_cfg(256, 1), 256));
  jobs.push_back(Job::casa_job(cache_cfg(512, 2), 256));
  jobs.push_back(Job::steinke_job(cache_cfg(256, 1), 256));
  jobs.push_back(Job::steinke_job(cache_cfg(512, 2), 256));
  jobs.push_back(Job::loopcache_job(cache_cfg(256, 1), 128));
  return jobs;
}

/// mixed_jobs plus zero-size scratchpad points, which fail in prepare, and
/// a duplicate of one of them.
std::vector<Job> oracle_jobs() {
  std::vector<Job> jobs = mixed_jobs();
  jobs.push_back(Job::casa_job(cache_cfg(256, 1), 0));
  jobs.push_back(Job::steinke_job(cache_cfg(512, 2), 0));
  jobs.push_back(jobs[jobs.size() - 2]);
  return jobs;
}

void expect_outcome_eq(const Outcome& a, const Outcome& b, std::size_t i) {
  const memsim::SimCounters& x = a.sim.counters;
  const memsim::SimCounters& y = b.sim.counters;
  EXPECT_EQ(x.total_fetches, y.total_fetches) << "job " << i;
  EXPECT_EQ(x.spm_accesses, y.spm_accesses) << "job " << i;
  EXPECT_EQ(x.lc_accesses, y.lc_accesses) << "job " << i;
  EXPECT_EQ(x.cache_accesses, y.cache_accesses) << "job " << i;
  EXPECT_EQ(x.cache_hits, y.cache_hits) << "job " << i;
  EXPECT_EQ(x.cache_misses, y.cache_misses) << "job " << i;
  EXPECT_EQ(x.cache_evictions, y.cache_evictions) << "job " << i;
  EXPECT_EQ(x.mainmem_words, y.mainmem_words) << "job " << i;
  EXPECT_EQ(x.cycles, y.cycles) << "job " << i;
  // Energies derive from counters through the same arithmetic on both
  // paths, so equality here is exact, not approximate.
  EXPECT_EQ(a.sim.total_energy, b.sim.total_energy) << "job " << i;
  EXPECT_EQ(a.sim.spm_energy, b.sim.spm_energy) << "job " << i;
  EXPECT_EQ(a.sim.cache_energy, b.sim.cache_energy) << "job " << i;
  EXPECT_EQ(a.sim.lc_energy, b.sim.lc_energy) << "job " << i;
  EXPECT_EQ(a.object_count, b.object_count) << "job " << i;
  ASSERT_EQ(a.flow(), b.flow()) << "job " << i;
  EXPECT_EQ(a.spm_used, b.spm_used) << "job " << i;
  if (a.flow() == report::FlowKind::kCasa) {
    EXPECT_EQ(a.alloc().on_spm, b.alloc().on_spm) << "job " << i;
    EXPECT_EQ(a.alloc().used_bytes, b.alloc().used_bytes) << "job " << i;
  }
  // The contract is full bit equality, flow-gated fields included.
  EXPECT_EQ(a, b) << "job " << i;
}

/// The deterministic per-replay counter keys run_lines / run_words record.
const char* const kReplayKeys[] = {
    "sim.fetches",        "sim.spm_accesses",     "sim.lc_accesses",
    "cache.accesses",     "cache.hits",           "cache.misses",
    "cache.evictions",    "sim.mainmem_words",    "sim.cycles",
    "stream.compiled_runs", "stream.replayed_runs", "stream.replayed_words",
};

std::map<std::string, std::uint64_t> replay_counters(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> out;
  for (const char* key : kReplayKeys) {
    const auto it = snap.counters.find(key);
    if (it != snap.counters.end()) out[key] = it->second;
  }
  return out;
}

/// Counters recorded by `bench.evaluate(job)` alone: the registry delta
/// around the call, zero entries dropped.
std::map<std::string, std::uint64_t> solo_counters(
    const Workbench& bench, const obs::MetricsRegistry& reg, const Job& job) {
  std::map<std::string, std::uint64_t> before =
      replay_counters(reg.snapshot());
  (void)bench.evaluate(job);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : replay_counters(reg.snapshot())) {
    if (value != before[key]) out[key] = value - before[key];
  }
  return out;
}

std::map<std::string, std::uint64_t> nonzero(
    std::map<std::string, std::uint64_t> counters) {
  std::erase_if(counters, [](const auto& kv) { return kv.second == 0; });
  return counters;
}

TEST(SweepPlanner, MatchesPerJobEvaluateOnAMixedSweep) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench bench(program, wopt);
  const std::vector<Job> jobs = oracle_jobs();

  std::vector<JobResult> reference;
  for (const Job& job : jobs) reference.push_back(bench.evaluate(job));
  std::size_t failures = 0;
  for (const JobResult& r : reference) failures += r.ok() ? 0 : 1;
  ASSERT_EQ(failures, 3u);  // the zero-size points and their duplicate

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BatchOptions bopt;
    bopt.threads = threads;
    bopt.fail_fast = false;
    const std::vector<JobResult> batch = bench.evaluate_batch(jobs, bopt);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(batch[i].ok(), reference[i].ok()) << "job " << i;
      EXPECT_EQ(batch[i].status, reference[i].status) << "job " << i;
      EXPECT_EQ(batch[i].attempts, reference[i].attempts) << "job " << i;
      if (batch[i].ok()) {
        expect_outcome_eq(batch[i].outcome, reference[i].outcome, i);
      } else {
        EXPECT_EQ(batch[i].error_kind, reference[i].error_kind) << "job " << i;
        EXPECT_EQ(batch[i].message, reference[i].message) << "job " << i;
      }
    }
  }
  // The healthy outcomes above came off real stack passes: no group fell
  // back to direct simulation, which would hide a stack-engine defect.
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("sweep.stack_passes"), 3u);
  EXPECT_EQ(snap.counters.count("sweep.degraded_groups"), 0u);
}

TEST(SweepPlanner, ShardCountersMatchPerJobEvaluate) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench metered(program, wopt);
  const Workbench bench(program);
  const std::vector<Job> jobs = oracle_jobs();

  MetricsShards shards(jobs.size());
  BatchOptions bopt;
  bopt.threads = 1;
  bopt.fail_fast = false;
  bench.evaluate_batch(jobs, bopt, &shards);

  const std::vector<obs::MetricsSnapshot> swept = shards.snapshots();
  std::vector<bool> seen(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Duplicates record nothing of their own.
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) duplicate |= jobs[j] == jobs[i];
    const std::map<std::string, std::uint64_t> expected =
        duplicate ? std::map<std::string, std::uint64_t>{}
                  : solo_counters(metered, reg, jobs[i]);
    EXPECT_EQ(nonzero(replay_counters(swept[i])), expected) << "job " << i;
  }
}

TEST(SweepPlanner, RecordsSweepMetrics) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench bench(program, wopt);
  const std::vector<Job> jobs = mixed_jobs();

  BatchOptions serial_opt;
  serial_opt.threads = 1;
  bench.evaluate_batch(jobs, serial_opt);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("runner.jobs"), jobs.size());
  // mixed_jobs repeats two cache-only points.
  EXPECT_EQ(snap.counters.at("sweep.dedup_hits"), 2u);
  EXPECT_EQ(snap.counters.at("runner.dedup_hits"), 2u);
  // The six distinct LRU cache-only configs share one stream, so at least
  // one stack pass with >= 6 configurations must have run.
  EXPECT_GE(snap.counters.at("sweep.stack_passes"), 1u);
  EXPECT_GE(snap.counters.at("sweep.stack_hits"), 6u);
  EXPECT_GT(snap.counters.at("sweep.groups"), 0u);
  EXPECT_GT(snap.counters.at("sweep.fallback_configs"), 0u);
  const auto it = snap.distributions.find("sweep.configs_per_pass");
  ASSERT_TRUE(it != snap.distributions.end());
  EXPECT_GE(it->second.max, 6.0);
}

TEST(SweepPlanner, ThreadCountInvariant) {
  const prog::Program program = workloads::by_name("adpcm");
  const std::vector<Job> jobs = mixed_jobs();

  obs::MetricsRegistry reg1;
  report::WorkbenchOptions o1;
  o1.metrics = &reg1;
  const Workbench b1(program, o1);
  const std::vector<JobResult> r1 = b1.evaluate_batch(jobs, {.threads = 1});

  obs::MetricsRegistry reg3;
  report::WorkbenchOptions o3;
  o3.metrics = &reg3;
  const Workbench b3(program, o3);
  const std::vector<JobResult> r3 = b3.evaluate_batch(jobs, {.threads = 3});

  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_outcome_eq(r1[i].outcome, r3[i].outcome, i);
  }
  // Counters (not spans/gauges — those carry wall time and thread count)
  // must merge to identical values for any worker count.
  EXPECT_EQ(reg1.snapshot().counters, reg3.snapshot().counters);
}

TEST(RunMany, DeduplicatesIdenticalJobs) {
  const prog::Program program = workloads::by_name("adpcm");
  obs::MetricsRegistry reg;
  report::WorkbenchOptions wopt;
  wopt.metrics = &reg;
  const Workbench bench(program, wopt);

  const Job point = Job::cache_only_job(cache_cfg(256, 1));
  const std::vector<Job> jobs = {point, Job::cache_only_job(cache_cfg(512, 1)),
                                 point, point};
  BatchOptions serial_opt;
  serial_opt.threads = 1;
  std::vector<Outcome> results;
  for (report::JobResult& r : bench.evaluate_batch(jobs, serial_opt)) {
    results.push_back(std::move(r.outcome));
  }
  ASSERT_EQ(results.size(), 4u);
  expect_outcome_eq(results[2], results[0], 2);
  expect_outcome_eq(results[3], results[0], 3);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("runner.jobs"), 4u);
  EXPECT_EQ(snap.counters.at("runner.dedup_hits"), 2u);
  // Only the two unique flows recorded: the merged fetch count equals two
  // solo runs, not four.
  const Outcome solo_a = bench.evaluate(Job::cache_only_job(cache_cfg(256, 1))).value();
  const Outcome solo_b = bench.evaluate(Job::cache_only_job(cache_cfg(512, 1))).value();
  EXPECT_EQ(snap.counters.at("sim.fetches"),
            solo_a.sim.counters.total_fetches +
                solo_b.sim.counters.total_fetches);
}

TEST(SweepPlanner, EmitsTraceEventsWhenTracerAttached) {
  const prog::Program program = workloads::by_name("adpcm");
  const Workbench bench(program);
  const std::vector<Job> jobs = mixed_jobs();

  obs::Tracer tracer;
  obs::Tracer::set_current(&tracer);
  bench.evaluate_batch(jobs, {.threads = 2});
  obs::Tracer::set_current(nullptr);

  const obs::TraceData data = tracer.drain();
  std::uint64_t sweeps = 0, passes = 0, tasks = 0, tails = 0, heads = 0,
                pass_instants = 0;
  for (const obs::TraceEvent& e : data.events) {
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "sweep") ++sweeps;
    if (e.kind == obs::TraceEventKind::kBegin &&
        e.name == "sweep.stack_pass") {
      ++passes;
    }
    if (e.kind == obs::TraceEventKind::kBegin && e.name == "task") ++tasks;
    if (e.kind == obs::TraceEventKind::kFlowBegin) ++tails;
    if (e.kind == obs::TraceEventKind::kFlowEnd) ++heads;
    if (e.kind == obs::TraceEventKind::kInstant &&
        e.name == "sweep.configs_per_pass") {
      ++pass_instants;
    }
  }
  EXPECT_EQ(sweeps, 1u);
  EXPECT_GE(passes, 1u);      // the groupable LRU family ran as a stack pass
  EXPECT_EQ(passes, pass_instants);
  EXPECT_GT(tasks, 0u);       // fallback + singleton jobs fan out as tasks
  EXPECT_EQ(tails, heads);    // every scheduled flow got picked up
  EXPECT_GT(tails, 0u);
}

TEST(CheckStackSweep, PassesOnIdenticalCounters) {
  memsim::SimCounters c;
  c.total_fetches = 100;
  c.cache_accesses = 100;
  c.cache_hits = 90;
  c.cache_misses = 10;
  c.cycles = 500;
  check::CheckRunner runner;
  check::check_stack_sweep(c, c, cache_cfg(256, 1), runner);
  EXPECT_TRUE(runner.ok());
  EXPECT_EQ(runner.rules_evaluated(), 1u);
}

TEST(CheckStackSweep, FlagsEveryDivergentField) {
  memsim::SimCounters stack;
  stack.total_fetches = 100;
  stack.cache_hits = 90;
  memsim::SimCounters direct = stack;
  direct.cache_hits = 80;
  direct.cache_misses = 10;
  check::CheckRunner runner;
  check::check_stack_sweep(stack, direct, cache_cfg(256, 1), runner);
  EXPECT_FALSE(runner.ok());
  EXPECT_EQ(runner.error_count(), 2u);  // cache_hits and cache_misses
  EXPECT_EQ(runner.diagnostics()[0].rule, "sweep.stack.mismatch");
  EXPECT_THROW(runner.throw_if_errors(), check::CheckError);
}

}  // namespace
}  // namespace casa::sim
