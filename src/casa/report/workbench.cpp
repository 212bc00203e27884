#include "casa/report/workbench.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <sstream>
#include <utility>

#include "casa/cachesim/stack_sim.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/fault/fault.hpp"
#include "casa/fault/site_names.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/obs/span.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/sim/parallel_runner.hpp"
#include "casa/support/error.hpp"
#include "casa/trace/compiled_stream.hpp"
#include "casa/traceopt/layout.hpp"

namespace casa::report {

namespace {

trace::ExecutorOptions exec_opts(const WorkbenchOptions& o) {
  trace::ExecutorOptions e;
  e.seed = o.exec_seed;
  return e;
}

memsim::SimOptions sim_opts(obs::MetricsRegistry* reg) {
  memsim::SimOptions s;
  s.metrics = reg;
  return s;
}

/// Allocation telemetry shared by every solving flow. Counters sum across
/// batch jobs; per-run quantities (tree depth, solve time) go in as
/// distributions so merging keeps min/max instead of a meaningless sum.
void record_alloc(obs::MetricsRegistry* reg, const core::AllocationResult& a) {
  if (reg == nullptr) return;
  reg->add(obs::metric_names::kSolverNodes, a.solver_stats.nodes);
  reg->add(obs::metric_names::kSolverIncumbentUpdates,
           a.solver_stats.incumbent_updates);
  reg->add(obs::metric_names::kSolverBoundPrunes, a.solver_stats.bound_prunes);
  reg->add(obs::metric_names::kSolverInfeasiblePrunes,
           a.solver_stats.infeasible_prunes);
  reg->add(obs::metric_names::kSolverSimplexIterations,
           a.solver_stats.simplex_iterations);
  reg->add(obs::metric_names::kSolverPresolvedItems, a.presolved_items);
  reg->add(obs::metric_names::kSolverPresolvedEdges, a.presolved_edges);
  reg->observe(obs::metric_names::kSolverMaxDepth,
               static_cast<double>(a.solver_stats.max_depth));
  reg->observe(obs::metric_names::kSolverSeconds, a.solve_seconds);
  reg->observe(obs::metric_names::kAllocSpmUsedBytes,
               static_cast<double>(a.used_bytes));
  // Generic-ILP search telemetry: how much work presolve and the warm
  // start removed, and whether any LP relaxation ran into its pivot budget.
  reg->add(obs::metric_names::kIlpPresolveFixed, a.solver_stats.presolve_fixed);
  reg->add(obs::metric_names::kIlpWarmstartUsed,
           a.solver_stats.warm_start_used ? 1 : 0);
  reg->add(obs::metric_names::kIlpWarmstartRcFixed, a.solver_stats.rc_fixed);
  reg->observe(obs::metric_names::kIlpWarmstartRootGap, a.solver_stats.root_gap);
  reg->add(obs::metric_names::kIlpLpLimitRetries, a.solver_stats.lp_limit_retries);
  reg->add(obs::metric_names::kIlpSubtrees, a.solver_stats.subtrees);
}

/// Inter-stage analyzer handle: null when checking is disabled. Stages
/// validate their freshly produced artifact and escalate immediately, so a
/// broken artifact never reaches the next stage.
std::unique_ptr<check::CheckRunner> make_checker(const WorkbenchOptions& o,
                                                 obs::MetricsRegistry* reg) {
  if (!o.check_artifacts) return nullptr;
  return std::make_unique<check::CheckRunner>(reg);
}

/// Span name of a job kind's flow — identical whether the flow runs whole
/// (evaluate) or staged (evaluate_batch's prepare and finish phases), so
/// dashboards see one path.
const char* flow_name(Workbench::Job::Kind kind) {
  switch (kind) {
    case Workbench::Job::Kind::kCasa:
      return "run_casa";
    case Workbench::Job::Kind::kSteinke:
      return "run_steinke";
    case Workbench::Job::Kind::kLoopCache:
      return "run_loopcache";
    case Workbench::Job::Kind::kCacheOnly:
      return "run_cache_only";
  }
  return "run_unknown";
}

/// Stable error classification for JobResult: most-derived types first so
/// a transient fault never reads as a generic casa::Error. The kinds are
/// part of the batch API (drivers switch on them), so keep them stable.
void classify_error(const std::exception_ptr& err, std::string& kind,
                    std::string& message) {
  try {
    std::rethrow_exception(err);
  } catch (const fault::TransientError& e) {
    kind = "transient";
    message = e.what();
  } catch (const fault::FaultError& e) {
    kind = "fault";
    message = e.what();
  } catch (const check::CheckError& e) {
    kind = "check";
    message = e.what();
  } catch (const PreconditionError& e) {
    kind = "precondition";
    message = e.what();
  } catch (const SolveError& e) {
    kind = "solve";
    message = e.what();
  } catch (const Error& e) {
    kind = "casa";
    message = e.what();
  } catch (const std::exception& e) {
    kind = "std";
    message = e.what();
  } catch (...) {
    kind = "unknown";
    message = "non-standard exception";
  }
}

/// Layout stage: lays out every object of `tp` or, with `excluded`, only
/// the residue left once the excluded objects leave the image.
std::shared_ptr<const traceopt::Layout> layout_stage(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const traceopt::TraceProgram& tp, Bytes line_size,
    const std::vector<bool>* excluded = nullptr) {
  const obs::Span s(reg, obs::trace_names::kLayout);
  auto layout = std::make_shared<const traceopt::Layout>(
      excluded != nullptr ? traceopt::layout_excluding(tp, *excluded)
                          : traceopt::layout_all(tp));
  if (chk != nullptr) {
    check::check_layout(tp, *layout, line_size, *chk);
    chk->throw_if_errors();
  }
  return layout;
}

/// Energy-table stage for the configured scratchpad / loop cache.
energy::EnergyTable energy_stage(check::CheckRunner* chk,
                                 const cachesim::CacheConfig& cache,
                                 Bytes spm_size, Bytes lc_size,
                                 unsigned lc_regions) {
  const energy::EnergyTable table =
      energy::EnergyTable::build(cache, spm_size, lc_size, lc_regions);
  if (chk != nullptr) {
    check::check_energy_table(table, spm_size > 0, lc_size > 0, *chk);
    chk->throw_if_errors();
  }
  return table;
}

/// Attempts one contained stage ran, and its final failure (null on
/// success).
struct Attempts {
  unsigned count = 1;
  std::exception_ptr error;
};

/// Runs `stage` under the batch's retry policy (fault::run_with_retry):
/// transient failures re-run after a deterministic backoff, each re-run
/// announced by the runner.retry trace instant. Never throws — the final
/// failure comes back in Attempts::error.
template <typename F>
Attempts run_contained(const BatchOptions& bopt, F&& stage) {
  fault::RetryPolicy policy;
  policy.max_retries = bopt.max_retries;
  policy.backoff_us = bopt.retry_backoff_us;
  Attempts run;
  try {
    run.count = fault::run_with_retry(policy, stage, [&run](unsigned attempt) {
      run.count = attempt + 1;
      if (obs::Tracer* tracer = obs::Tracer::current()) {
        tracer->instant(obs::trace_names::kRunnerRetry,
                        static_cast<double>(attempt),
                        obs::trace_names::kCatFault);
      }
    });
  } catch (...) {
    run.error = std::current_exception();
  }
  return run;
}

/// A unique batch job after the prepare phase: the PreparedJob plus the
/// telemetry it recorded, held back until the job finishes — or its
/// contained failure.
struct Prep {
  Workbench::PreparedJob pj;
  obs::MetricsSnapshot recorded;
  unsigned attempts = 1;     ///< prepare attempts that ran
  std::exception_ptr error;  ///< null when the prepare succeeded
};

/// Completes a prepared job with `finish(reg)` under the retry policy. The
/// prepare's held-back telemetry and the finish's own merge into `shard`
/// only on success; attempts accumulate across both phases.
template <typename F>
JobResult finish_contained(const Prep& prep, const BatchOptions& bopt,
                           obs::MetricsRegistry* shard, F&& finish) {
  JobResult res;
  obs::MetricsSnapshot recorded;
  const Attempts run = run_contained(bopt, [&] {
    obs::MetricsRegistry temp;
    res.outcome = finish(shard != nullptr ? &temp : nullptr);
    recorded = temp.snapshot();
  });
  const unsigned attempts = prep.attempts + run.count - 1;
  if (run.error != nullptr) return failed_job_result(run.error, attempts);
  res.attempts = attempts;
  res.status = attempts > 1 ? JobStatus::kRetriedOk : JobStatus::kOk;
  if (shard != nullptr) {
    shard->merge_from(prep.recorded);
    shard->merge_from(recorded);
  }
  return res;
}

/// What the I-cache actually sees during a job's replay. Two prepared jobs
/// with equal keys feed the cache the same line-run sequence: the trace
/// program is a deterministic function of (line size, trace budget, fuse
/// ratio — bench-wide), the layout of (trace program, mode, mask), the
/// compiled stream of (trace program, layout, line size), and the walk is
/// shared. Only the cache geometry differs inside a group.
struct StreamKey {
  Bytes line_size = 0;
  cachesim::ReplacementPolicy policy = cachesim::ReplacementPolicy::kLru;
  Bytes max_trace = 0;            ///< effective trace-formation budget
  bool excluding_layout = false;  ///< Steinke move semantics
  bool loop_cache = false;        ///< region replay — never groupable
  std::vector<bool> on_spm;

  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

StreamKey key_of(const Workbench::PreparedJob& pj, bool steinke_moves) {
  StreamKey key;
  key.line_size = pj.job.cache.line_size;
  key.policy = pj.job.cache.policy;
  // Mirrors Workbench::form_stage's budget: the cache-only flow forms with
  // 1 KiB, every other flow with its scratchpad / loop-cache capacity,
  // floored at one line.
  const Bytes budget =
      pj.job.kind == FlowKind::kCacheOnly ? 1_KiB : pj.job.size;
  key.max_trace = std::max<Bytes>(budget, key.line_size);
  key.excluding_layout = pj.job.kind == FlowKind::kSteinke && steinke_moves;
  key.loop_cache = pj.regions != nullptr;
  key.on_spm = pj.on_spm;
  return key;
}

/// Prepared jobs (indices into the prepare phase's results) that share one
/// stream key.
struct Group {
  StreamKey key;
  std::vector<std::size_t> members;
};

/// How one group finished: its members' results, and by which path.
struct GroupDone {
  std::vector<std::pair<std::size_t, JobResult>> done;
  std::size_t size = 0;
  bool stack_pass = false;  ///< members finished off one shared replay
  bool degraded = false;    ///< stack pass failed, fell back to direct
};

/// Counters a direct line-granular replay (memsim's compiled-stream path)
/// would have produced, reconstructed from one configuration's slice of the
/// stack pass. `spm_words` and the latency table are group-wide; everything
/// else follows from the per-config hit/miss/eviction counts.
memsim::SimCounters counters_from_stack(const cachesim::StackCounters& sc,
                                        std::uint64_t spm_words,
                                        Bytes line_size,
                                        const memsim::LatencyParams& lat) {
  const std::uint64_t line_words = line_size / kWordBytes;
  memsim::SimCounters c;
  c.spm_accesses = spm_words;
  c.cache_hits = sc.hits;
  c.cache_misses = sc.misses;
  c.cache_evictions = sc.evictions;
  c.cache_accesses = sc.hits + sc.misses;
  c.total_fetches = spm_words + c.cache_accesses;
  c.mainmem_words = sc.misses * line_words;
  // run_lines charges every cache word one hit latency (a missing word pays
  // its fill on top), so the cycle total collapses to three terms.
  c.cycles =
      spm_words * lat.spm_access + c.cache_accesses * lat.cache_hit +
      sc.misses * (lat.miss_base_penalty + line_words * lat.miss_per_word);
  return c;
}

/// One shared replay of a stack group's fetch stream: every member's
/// counters, the stream.* work counts a direct replay would record, and
/// the check.* telemetry of the cross-validation.
struct StackPass {
  std::vector<memsim::SimCounters> counters;  ///< per member, in order
  std::uint64_t compiled_runs = 0;
  std::uint64_t replayed_runs = 0;
  obs::MetricsSnapshot validation;
};

/// Replays the stream `members` share once through cachesim::
/// StackSimulator. The first member's trace program / layout / mask are
/// byte-identical to every member's (that is what the group key
/// guarantees), so its compiled stream is too. With `check_artifacts` the
/// first member's counters are cross-validated against a direct simulation
/// before any member consumes them: a divergence poisons the whole group,
/// so it throws rather than emit suspect Outcomes.
StackPass run_stack_pass(
    const std::vector<const Workbench::PreparedJob*>& members,
    const trace::BlockWalk& walk, bool check_artifacts, bool record_checks) {
  obs::Tracer* const tracer = obs::Tracer::current();
  fault::at(fault::site_names::kSweepStackPass);
  const obs::TraceSpan span(tracer, obs::trace_names::kSweepStackPass,
                            obs::trace_names::kCatSim);
  if (tracer != nullptr) {
    tracer->instant(obs::trace_names::kSweepConfigsPerPass,
                    static_cast<double>(members.size()),
                    obs::trace_names::kCatSim);
  }
  const Workbench::PreparedJob& rep = *members.front();
  const Bytes line_size = rep.job.cache.line_size;
  const trace::CompiledStream stream =
      traceopt::compile_fetch_stream(*rep.tp, *rep.layout, line_size);

  cachesim::ConfigFamily family;
  family.line_size = line_size;
  family.policy = rep.job.cache.policy;
  for (const Workbench::PreparedJob* m : members) {
    family.configs.push_back(m->job.cache);
  }
  cachesim::StackSimulator sim(family);

  StackPass pass;
  pass.compiled_runs = stream.total_runs();
  std::uint64_t spm_words = 0;
  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = rep.tp->object_of(bb);
    if (!rep.on_spm.empty() && rep.on_spm[mo.index()]) {
      spm_words += stream.words_of(bb);
      continue;
    }
    CASA_CHECK(stream.cached(bb),
               "cached block missing from the compiled layout");
    pass.replayed_runs += stream.runs(bb).size();
    for (const trace::LineRun& run : stream.runs(bb)) {
      sim.access_line(run.addr, run.words);
    }
  }

  const memsim::LatencyParams lat;  // the direct replay's defaults
  for (const Workbench::PreparedJob* m : members) {
    pass.counters.push_back(counters_from_stack(sim.counters(m->job.cache),
                                                spm_words, line_size, lat));
  }
  if (check_artifacts) {
    const memsim::SimReport direct = memsim::simulate_spm_system(
        *rep.tp, *rep.layout, walk, rep.on_spm, rep.job.cache, rep.energies,
        memsim::SimOptions{});
    obs::MetricsRegistry chk_reg;
    check::CheckRunner chk(record_checks ? &chk_reg : nullptr);
    check::check_stack_sweep(pass.counters.front(), direct.counters,
                             rep.job.cache, chk);
    pass.validation = chk_reg.snapshot();
    chk.throw_if_errors();
  }
  return pass;
}

/// Folds a finished batch into the workbench registry: the job-ordered
/// shard merge, then the runner.* / sweep.* / fault.* batch counters.
void record_batch(obs::MetricsRegistry& reg, const obs::MetricsSnapshot& merged,
                  std::size_t jobs, std::size_t dedup_hits, unsigned threads,
                  const std::vector<JobResult>& results,
                  const std::vector<GroupDone>& finished,
                  std::uint64_t faults_fired) {
  namespace m = obs::metric_names;
  reg.merge_from(merged);
  reg.add(m::kRunnerJobs, jobs);
  reg.add(m::kRunnerDedupHits, dedup_hits);
  reg.set_gauge(m::kRunnerThreads, static_cast<double>(threads));
  std::uint64_t stack_passes = 0;
  std::uint64_t stack_hits = 0;
  std::uint64_t direct_finishes = 0;
  std::uint64_t degraded_groups = 0;
  for (const GroupDone& gd : finished) {
    if (gd.stack_pass) {
      ++stack_passes;
      stack_hits += gd.size;
      reg.observe(m::kSweepConfigsPerPass, static_cast<double>(gd.size));
    } else {
      direct_finishes += gd.size;
    }
    if (gd.degraded) ++degraded_groups;
  }
  reg.add(m::kSweepGroups, finished.size());
  reg.add(m::kSweepStackPasses, stack_passes);
  reg.add(m::kSweepStackHits, stack_hits);
  reg.add(m::kSweepFallbackConfigs, direct_finishes);
  reg.add(m::kSweepDedupHits, dedup_hits);
  if (degraded_groups != 0) reg.add(m::kSweepDegradedGroups, degraded_groups);
  std::size_t failed = 0;
  std::size_t retried = 0;
  for (const JobResult& r : results) {
    if (r.status == JobStatus::kFailed) ++failed;
    if (r.status == JobStatus::kRetriedOk) ++retried;
  }
  if (failed != 0) reg.add(m::kRunnerJobsFailed, failed);
  if (retried != 0) reg.add(m::kRunnerJobsRetried, retried);
  if (faults_fired != 0) reg.add(m::kFaultInjected, faults_fired);
}

}  // namespace

std::string_view to_string(FlowKind kind) {
  switch (kind) {
    case FlowKind::kCasa:
      return "casa";
    case FlowKind::kSteinke:
      return "steinke";
    case FlowKind::kLoopCache:
      return "loopcache";
    case FlowKind::kCacheOnly:
      return "cache_only";
  }
  return "?";
}

FlowError::FlowError(std::string_view accessor, FlowKind flow)
    : Error("Outcome::" + std::string(accessor) +
            "() read off the wrong flow: this outcome is from the '" +
            std::string(to_string(flow)) + "' flow"),
      accessor_(accessor),
      flow_(flow) {}

std::size_t Outcome::conflict_edges() const {
  if (flow_ != FlowKind::kCasa) throw FlowError("conflict_edges", flow_);
  return conflict_edges_;
}

unsigned Outcome::lc_regions() const {
  if (flow_ != FlowKind::kLoopCache) throw FlowError("lc_regions", flow_);
  return lc_regions_;
}

const core::AllocationResult& Outcome::alloc() const {
  if (flow_ != FlowKind::kCasa) throw FlowError("alloc", flow_);
  return alloc_;
}

void Outcome::set_conflict_edges(std::size_t edges) {
  if (flow_ != FlowKind::kCasa) throw FlowError("set_conflict_edges", flow_);
  conflict_edges_ = edges;
}

void Outcome::set_lc_regions(unsigned regions) {
  if (flow_ != FlowKind::kLoopCache) throw FlowError("set_lc_regions", flow_);
  lc_regions_ = regions;
}

void Outcome::set_alloc(core::AllocationResult alloc) {
  if (flow_ != FlowKind::kCasa) throw FlowError("set_alloc", flow_);
  alloc_ = std::move(alloc);
}

Workbench::Workbench(const prog::Program& program, WorkbenchOptions opt)
    : program_(&program),
      opt_(opt),
      exec_(trace::Executor::run(program, exec_opts(opt))) {}

std::shared_ptr<const traceopt::TraceProgram> Workbench::form_stage(
    obs::MetricsRegistry* reg, check::CheckRunner* chk,
    const cachesim::CacheConfig& cache, Bytes max_trace) const {
  const obs::Span s(reg, obs::trace_names::kTraceFormation);
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = cache.line_size;
  // Traces must stay individually placeable (paper §3.2) but never smaller
  // than one line.
  topt.max_trace_size = std::max<Bytes>(max_trace, cache.line_size);
  topt.fuse_ratio = opt_.fuse_ratio;
  auto tp = std::make_shared<const traceopt::TraceProgram>(
      traceopt::form_traces(*program_, exec_.profile, topt));
  if (chk != nullptr) {
    check::check_trace_program(*tp, cache.line_size, *chk);
    chk->throw_if_errors();
  }
  return tp;
}

void Workbench::prepare_casa(PreparedJob& pj, obs::MetricsRegistry* reg,
                             check::CheckRunner* chk) const {
  const cachesim::CacheConfig& cache = pj.job.cache;
  const Bytes spm_size = pj.job.size;
  pj.tp = form_stage(reg, chk, cache, spm_size);
  pj.layout = layout_stage(reg, chk, *pj.tp, cache.line_size);

  std::unique_ptr<conflict::ConflictGraph> graph;
  {
    const obs::Span s(reg, obs::trace_names::kConflictGraph);
    conflict::BuildOptions bopt;
    bopt.cache = cache;
    graph = std::make_unique<conflict::ConflictGraph>(
        conflict::build_conflict_graph(*pj.tp, *pj.layout, exec_.walk, bopt));
    if (reg != nullptr) {
      reg->add(obs::metric_names::kConflictNodes, graph->node_count());
      reg->add(obs::metric_names::kConflictEdges, graph->edge_count());
    }
    if (chk) {
      check::check_conflict_graph(*pj.tp, *pj.layout, *graph, cache, *chk);
      chk->throw_if_errors();
    }
  }

  Outcome& out = pj.partial;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    pj.energies = energy_stage(chk, cache, spm_size, 0, 0);
    const core::CasaProblem problem =
        core::CasaProblem::from(*pj.tp, *graph, pj.energies, spm_size);
    const core::CasaOptions& copt = pj.job.casa;
    if (chk) {
      // The model the generic solver would consume must be well-formed no
      // matter which engine actually runs — the formulation stage is an
      // artifact in its own right.
      const core::SavingsProblem sp = core::presolve(problem);
      const core::CasaModel cm = core::build_casa_model(sp, copt.linearization);
      check::check_casa_model(cm, sp, copt.linearization, *chk);
      chk->throw_if_errors();
    }
    const core::CasaAllocator allocator(copt);
    fault::at(fault::site_names::kSolverAllocate);
    out.set_alloc(allocator.allocate(problem));
    record_alloc(reg, out.alloc());
    if (chk) {
      check::check_allocation(problem, out.alloc(), *chk);
      chk->throw_if_errors();
    }
    // A truncated solve must never be reported as an allocation — an empty
    // incumbent would masquerade as "nothing fits" and a partial one as the
    // optimum. This guard also covers runs with check_artifacts disabled.
    CASA_CHECK(out.alloc().solver_status == ilp::SolveStatus::kOptimal,
               "CASA solve was truncated (status " +
                   std::string(ilp::to_string(out.alloc().solver_status)) +
                   "); raise max_nodes instead of reporting a partial "
                   "allocation");
  }
  out.object_count = pj.tp->object_count();
  out.set_conflict_edges(graph->edge_count());
  out.spm_used = out.alloc().used_bytes;
  // Copy semantics: the main-memory image keeps every object; fetches of
  // scratchpad objects simply go to the scratchpad.
  pj.on_spm = out.alloc().on_spm;
}

void Workbench::prepare_steinke(PreparedJob& pj, obs::MetricsRegistry* reg,
                                check::CheckRunner* chk) const {
  const cachesim::CacheConfig& cache = pj.job.cache;
  const Bytes spm_size = pj.job.size;
  pj.tp = form_stage(reg, chk, cache, spm_size);
  pj.energies = energy_stage(chk, cache, spm_size, 0, 0);

  baseline::SteinkeResult sel;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    sel = baseline::allocate_steinke(
        *pj.tp, spm_size, pj.energies.cache_hit - pj.energies.spm_access);
    if (chk) {
      std::vector<Bytes> sizes;
      sizes.reserve(pj.tp->object_count());
      for (const auto& mo : pj.tp->objects()) sizes.push_back(mo.raw_size);
      check::check_spm_selection(sizes, spm_size, sel.on_spm, sel.used_bytes,
                                 *chk);
      chk->throw_if_errors();
    }
  }
  pj.partial.object_count = pj.tp->object_count();
  pj.partial.spm_used = sel.used_bytes;
  // Move semantics: scratchpad objects leave the image; the residue is
  // compacted, changing every remaining object's cache mapping.
  pj.layout = layout_stage(reg, chk, *pj.tp, cache.line_size,
                           opt_.steinke_moves ? &sel.on_spm : nullptr);
  pj.on_spm = std::move(sel.on_spm);
}

void Workbench::prepare_loopcache(PreparedJob& pj, obs::MetricsRegistry* reg,
                                  check::CheckRunner* chk) const {
  const cachesim::CacheConfig& cache = pj.job.cache;
  const Bytes lc_size = pj.job.size;
  // Fair comparison (paper §5): the loop-cache flow also runs on the
  // trace-formed program, laid out in full (nothing leaves the image).
  pj.tp = form_stage(reg, chk, cache, lc_size);
  pj.layout = layout_stage(reg, chk, *pj.tp, cache.line_size);
  pj.energies = energy_stage(chk, cache, 0, lc_size, pj.job.max_regions);

  loopcache::RossResult sel;
  {
    const obs::Span s(reg, obs::trace_names::kAllocation);
    const std::vector<loopcache::Region> candidates =
        loopcache::enumerate_regions(*pj.tp, *pj.layout, exec_.profile);
    loopcache::LoopCacheConfig lcfg;
    lcfg.size = lc_size;
    lcfg.max_regions = pj.job.max_regions;
    sel = loopcache::allocate_ross(candidates, lcfg);
  }
  pj.partial.object_count = pj.tp->object_count();
  pj.partial.spm_used = sel.used_bytes;
  pj.partial.set_lc_regions(
      static_cast<unsigned>(sel.selected.regions().size()));
  if (reg != nullptr) {
    reg->add(obs::metric_names::kLcRegions, pj.partial.lc_regions());
  }
  pj.regions =
      std::make_shared<const loopcache::RegionSet>(std::move(sel.selected));
}

void Workbench::prepare_cache_only(PreparedJob& pj, obs::MetricsRegistry* reg,
                                   check::CheckRunner* chk) const {
  const cachesim::CacheConfig& cache = pj.job.cache;
  pj.tp = form_stage(reg, chk, cache, 1_KiB);
  pj.layout = layout_stage(reg, chk, *pj.tp, cache.line_size);
  pj.energies = energy_stage(chk, cache, /*spm_size=*/kWordBytes * 2, 0, 0);
  pj.partial.object_count = pj.tp->object_count();
  pj.on_spm.assign(pj.tp->object_count(), false);
}

Workbench::PreparedJob Workbench::prepare(const Job& job,
                                          obs::MetricsRegistry* reg,
                                          check::CheckRunner* chk) const {
  fault::at(fault::site_names::kSimPrepare);
  PreparedJob pj;
  pj.job = job;
  pj.partial = Outcome(job.kind);
  switch (job.kind) {
    case Job::Kind::kCasa:
      prepare_casa(pj, reg, chk);
      break;
    case Job::Kind::kSteinke:
      prepare_steinke(pj, reg, chk);
      break;
    case Job::Kind::kLoopCache:
      prepare_loopcache(pj, reg, chk);
      break;
    case Job::Kind::kCacheOnly:
      prepare_cache_only(pj, reg, chk);
      break;
  }
  return pj;
}

Workbench::PreparedJob Workbench::prepare_job(const Job& job,
                                              obs::MetricsRegistry* reg) const {
  const obs::Span flow(reg, flow_name(job.kind));
  const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
  return prepare(job, reg, chk.get());
}

Outcome Workbench::simulate(const PreparedJob& pj,
                            obs::MetricsRegistry* reg) const {
  fault::at(fault::site_names::kSimFinish);
  Outcome out = pj.partial;
  const obs::Span s(reg, obs::trace_names::kSimulation);
  if (pj.regions != nullptr) {
    out.sim = memsim::simulate_loopcache_system(*pj.tp, *pj.layout, exec_.walk,
                                                *pj.regions, pj.job.cache,
                                                pj.energies, sim_opts(reg));
  } else {
    out.sim = memsim::simulate_spm_system(*pj.tp, *pj.layout, exec_.walk,
                                          pj.on_spm, pj.job.cache,
                                          pj.energies, sim_opts(reg));
  }
  return out;
}

Outcome Workbench::finish_job(const PreparedJob& pj,
                              obs::MetricsRegistry* reg) const {
  const obs::Span flow(reg, flow_name(pj.job.kind));
  return simulate(pj, reg);
}

Outcome Workbench::finish_with_counters(const PreparedJob& pj,
                                        const memsim::SimCounters& counters,
                                        obs::MetricsRegistry* reg) const {
  fault::at(fault::site_names::kSimFinish);
  const obs::Span flow(reg, flow_name(pj.job.kind));
  Outcome out = pj.partial;
  const obs::Span s(reg, obs::trace_names::kSimulation);
  out.sim = memsim::report_from_counters(counters, pj.energies,
                                         pj.regions != nullptr);
  memsim::record_sim_counters(reg, counters);
  return out;
}

JobResult Workbench::evaluate(const Job& job) const {
  // The batch containment contract without the fan-out or the stream
  // grouping: one flow span around every stage, recorded into
  // options().metrics directly (one job needs no shard ordering to stay
  // deterministic), merged only on success.
  const fault::ScopedArg scope(0);
  JobResult res;
  obs::MetricsSnapshot recorded;
  const Attempts run = run_contained(BatchOptions{}, [&] {
    obs::MetricsRegistry temp;
    obs::MetricsRegistry* const reg = opt_.metrics != nullptr ? &temp : nullptr;
    {
      const obs::Span flow(reg, flow_name(job.kind));
      const std::unique_ptr<check::CheckRunner> chk = make_checker(opt_, reg);
      res.outcome = simulate(prepare(job, reg, chk.get()), reg);
    }
    recorded = temp.snapshot();
  });
  if (run.error != nullptr) return failed_job_result(run.error, run.count);
  if (opt_.metrics != nullptr) opt_.metrics->merge_from(recorded);
  return res;
}

std::vector<JobResult> Workbench::evaluate_batch(
    std::span<const Job> jobs, const BatchOptions& bopt,
    sim::MetricsShards* shards) const {
  CASA_CHECK(shards == nullptr || shards->size() == jobs.size(),
             "MetricsShards size must match the job count");
  // Root trace span for the batch; the prepare and group tasks the runner
  // fans out are flow-linked back into it.
  const obs::TraceSpan batch(obs::Tracer::current(), obs::trace_names::kSweep,
                             obs::trace_names::kCatSim);
  const fault::InjectorStats faults_before = fault::stats();
  sim::RunnerOptions ropt;
  ropt.threads = bopt.threads;
  const sim::ParallelRunner runner(ropt);

  // Identical jobs produce identical outcomes (flows are deterministic), so
  // repeated sweep points run once: each job maps to the index of its first
  // equal occurrence, duplicates copy that JobResult and record nothing.
  std::vector<std::size_t> unique;
  std::vector<std::size_t> rep_of(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::size_t rep = i;
    for (const std::size_t u : unique) {
      if (jobs[u] == jobs[i]) {
        rep = u;
        break;
      }
    }
    rep_of[i] = rep;
    if (rep == i) unique.push_back(i);
  }

  // Tasks never record into opt_.metrics directly: each job gets a private
  // shard, and the shards merge in job order afterwards — that is what
  // keeps merged counters identical on 1 thread and on N.
  std::unique_ptr<sim::MetricsShards> local;
  sim::MetricsShards* sh = shards;
  if (sh == nullptr && opt_.metrics != nullptr) {
    local = std::make_unique<sim::MetricsShards>(jobs.size());
    sh = local.get();
  }
  const auto shard_of = [sh](std::size_t job_idx) -> obs::MetricsRegistry* {
    return sh != nullptr ? &sh->shard(job_idx) : nullptr;
  };

  // Phase 1: every stage but the replay, in parallel over unique jobs.
  // Every flow is internally seeded, so the per-task seed is unused: a job
  // produces the same outcome in a batch or alone. Each attempt records
  // into a fresh registry whose snapshot is held back until the job
  // finishes, so a job that dies mid-prepare leaves no partial counts.
  const std::vector<Prep> prepared = runner.map<Prep>(
      unique.size(), [this, &jobs, &unique, &bopt, sh](std::size_t i,
                                                        std::uint64_t) {
        const std::size_t job_idx = unique[i];
        // Bind the job index as the thread's fault argument: spec clauses
        // with arg=N target exactly this job, on any schedule.
        const fault::ScopedArg scope(job_idx);
        Prep p;
        const Attempts run = run_contained(bopt, [&] {
          obs::MetricsRegistry temp;
          p.pj = prepare_job(jobs[job_idx], sh != nullptr ? &temp : nullptr);
          p.recorded = temp.snapshot();
        });
        p.attempts = run.count;
        p.error = run.error;
        return p;
      });

  // Phase 2: group the prepared jobs (indices into `prepared`) by stream
  // key. Failed prepares carry no artifacts to group; loop-cache jobs
  // replay regions and never share a group.
  std::vector<Group> groups;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (prepared[i].error != nullptr) continue;
    StreamKey key = key_of(prepared[i].pj, opt_.steinke_moves);
    Group* home = nullptr;
    if (!key.loop_cache) {
      for (Group& g : groups) {
        if (g.key == key) {
          home = &g;
          break;
        }
      }
    }
    if (home == nullptr) home = &groups.emplace_back(Group{std::move(key), {}});
    home->members.push_back(i);
  }

  // Phase 3: one task per group. An LRU group of two or more replays its
  // shared stream once; every other group finishes each member by direct
  // simulation. A failing stack pass degrades its group to the direct path
  // in containment mode and propagates under fail_fast (a stack-engine
  // regression must fail the batch, not be papered over).
  const std::vector<GroupDone> finished = runner.map<GroupDone>(
      groups.size(), [this, &groups, &prepared, &unique, &bopt, &shard_of](
                         std::size_t g, std::uint64_t) {
        const Group& grp = groups[g];
        GroupDone out;
        out.size = grp.members.size();
        if (grp.key.policy == cachesim::ReplacementPolicy::kLru &&
            grp.members.size() >= 2) {
          try {
            // The first member's job index is the fault argument for the
            // pass-wide machinery.
            const std::size_t rep_job = unique[grp.members.front()];
            const fault::ScopedArg pass_scope(rep_job);
            std::vector<const PreparedJob*> members;
            for (const std::size_t idx : grp.members) {
              members.push_back(&prepared[idx].pj);
            }
            const StackPass pass =
                run_stack_pass(members, exec_.walk, opt_.check_artifacts,
                               shard_of(rep_job) != nullptr);
            for (std::size_t k = 0; k < grp.members.size(); ++k) {
              const std::size_t job_idx = unique[grp.members[k]];
              const fault::ScopedArg member_scope(job_idx);
              const Prep& prep = prepared[grp.members[k]];
              const memsim::SimCounters& c = pass.counters[k];
              JobResult res = finish_contained(
                  prep, bopt, shard_of(job_idx),
                  [this, &prep, &c, &pass](obs::MetricsRegistry* reg) {
                    Outcome o = finish_with_counters(prep.pj, c, reg);
                    if (reg != nullptr) {
                      // The stream.* telemetry a direct replay records.
                      reg->add(obs::metric_names::kStreamCompiledRuns,
                               pass.compiled_runs);
                      reg->add(obs::metric_names::kStreamReplayedRuns,
                               pass.replayed_runs);
                      reg->add(obs::metric_names::kStreamReplayedWords,
                               c.cache_hits + c.cache_misses);
                    }
                    return o;
                  });
              // The group's check.* validation counters ride with the
              // sampled member.
              if (k == 0 && res.ok() && shard_of(job_idx) != nullptr) {
                shard_of(job_idx)->merge_from(pass.validation);
              }
              out.done.emplace_back(grp.members[k], std::move(res));
            }
            out.stack_pass = true;
            return out;
          } catch (...) {
            if (bopt.fail_fast) throw;
            // The shared machinery itself failed (injected fault, stack /
            // direct divergence). The members are still individually
            // healthy jobs: degrade the group to direct simulation — exact
            // by construction — and account for it.
            out.degraded = true;
            if (obs::Tracer* tracer = obs::Tracer::current()) {
              tracer->instant(obs::trace_names::kSweepDegraded,
                              static_cast<double>(grp.members.size()),
                              obs::trace_names::kCatFault);
            }
          }
        }
        for (const std::size_t idx : grp.members) {
          const std::size_t job_idx = unique[idx];
          const fault::ScopedArg scope(job_idx);
          const Prep& prep = prepared[idx];
          out.done.emplace_back(
              idx, finish_contained(prep, bopt, shard_of(job_idx),
                                    [this, &prep](obs::MetricsRegistry* reg) {
                                      return finish_job(prep.pj, reg);
                                    }));
        }
        return out;
      });

  // Reassemble in job order: unique results land at their indices,
  // duplicates copy their representative's.
  std::vector<JobResult> by_unique(unique.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (prepared[i].error != nullptr) {
      by_unique[i] = failed_job_result(prepared[i].error, prepared[i].attempts);
    }
  }
  for (const GroupDone& gd : finished) {
    for (const auto& [idx, res] : gd.done) by_unique[idx] = res;
  }
  std::vector<std::size_t> unique_pos(jobs.size());
  for (std::size_t i = 0; i < unique.size(); ++i) unique_pos[unique[i]] = i;
  std::vector<JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(by_unique[unique_pos[rep_of[i]]]);
  }

  if (opt_.metrics != nullptr && sh != nullptr) {
    record_batch(*opt_.metrics, sh->merged(), jobs.size(),
                 jobs.size() - unique.size(), runner.threads(), results,
                 finished, fault::stats().fires - faults_before.fires);
  }

  if (bopt.fail_fast) {
    for (const JobResult& r : results) {
      if (r.status == JobStatus::kFailed) std::rethrow_exception(r.error);
    }
  } else if (opt_.check_artifacts) {
    // Degraded batches are reported, not thrown: the diagnostic lands in
    // the check.* counters (and any check artifact the caller writes), the
    // healthy outcomes stay usable data.
    check::CheckRunner chk(opt_.metrics);
    check::check_batch(batch_summary_of(results), chk);
  }
  return results;
}

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRetriedOk:
      return "retried_ok";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

JobResult failed_job_result(std::exception_ptr error, unsigned attempts) {
  JobResult res;
  res.status = JobStatus::kFailed;
  res.attempts = attempts;
  res.error = error;
  classify_error(error, res.error_kind, res.message);
  return res;
}

check::BatchSummary batch_summary_of(const std::vector<JobResult>& results) {
  check::BatchSummary summary;
  summary.jobs = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    if (r.status == JobStatus::kRetriedOk) ++summary.retried;
    if (r.status != JobStatus::kFailed) continue;
    ++summary.failed;
    std::ostringstream line;
    line << "job " << i << ": " << r.error_kind << ": " << r.message;
    summary.failures.push_back(line.str());
  }
  return summary;
}

}  // namespace casa::report
