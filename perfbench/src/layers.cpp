#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "casa/baseline/steinke.hpp"
#include "casa/cachesim/stack_sim.hpp"
#include "casa/check/rules.hpp"
#include "casa/check/runner.hpp"
#include "casa/conflict/graph_builder.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/core/greedy.hpp"
#include "casa/core/problem.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/loopcache/ross_allocator.hpp"
#include "casa/memsim/hierarchy.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/sim/sweep_planner.hpp"
#include "casa/svc/protocol.hpp"
#include "casa/svc/service.hpp"
#include "casa/trace/executor.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "requests.hpp"

namespace perfbench {

namespace {

using namespace casa;
using Kind = Job::Kind;

/// Calls `fn` and adds its wall time to `acc`.
template <class Fn>
auto timed(double& acc, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  acc += seconds_since(t0);
  return result;
}

/// Runs `fn` `reps` times and returns the median wall time, for steps too
/// short to time alone.
template <class Fn>
double median_time(unsigned reps, Fn&& fn) {
  std::vector<double> t;
  for (unsigned i = 0; i < reps; ++i) {
    double once = 0;
    timed(once, [&] {
      fn();
      return 0;
    });
    t.push_back(once);
  }
  return median(t);
}

/// Workbench::form: the flow's trace-formation budget, floored at a line.
traceopt::TraceProgram form(const Bench& b, const cachesim::CacheConfig& cache,
                            Bytes budget) {
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = cache.line_size;
  topt.max_trace_size = std::max<Bytes>(budget, cache.line_size);
  topt.fuse_ratio = b.wb->options().fuse_ratio;
  return traceopt::form_traces(*b.program, b.wb->execution().profile, topt);
}

void expect_no_worse_than_greedy(const core::CasaProblem& problem,
                                 double alloc_saving, const std::string& what,
                                 Checker& chk) {
  const core::SavingsProblem sp = core::presolve(problem);
  const double greedy = core::solve_greedy(sp).saving;
  chk.expect(alloc_saving >= greedy - 1e-9 * std::max(1.0, std::fabs(greedy)),
             what + ": CASA saving " + std::to_string(alloc_saving) +
                 " is below the greedy engine's " + std::to_string(greedy));
}

bool same_result(const report::JobResult& a, const report::JobResult& b) {
  return a.ok() == b.ok() && (!a.ok() || a.outcome == b.outcome);
}

/// The sweep planner's stream key (sim/sweep_planner.cpp): jobs with equal
/// keys feed the cache the same line-run sequence.
struct StreamKey {
  Bytes line_size = 0;
  Bytes budget = 0;
  bool excluding = false;
  std::vector<bool> on_spm;
  friend bool operator==(const StreamKey&, const StreamKey&) = default;
};

/// Prepares the jobs through Workbench::prepare_job, groups them by stream
/// key and replays every LRU group (singletons too) once through
/// cachesim::StackSimulator. Each member's counters must equal the cache
/// counters of its reference outcome.
void compose_stack_passes(const Bench& b,
                          const std::vector<const TracedJob*>& jobs,
                          TraceRound& r, Checker& chk) {
  struct Member {
    const TracedJob* tj;
    Workbench::PreparedJob pj;
  };
  struct Group {
    StreamKey key;
    std::vector<Member> members;
  };
  std::vector<Group> groups;
  for (const TracedJob* tj : jobs) {
    Workbench::PreparedJob pj =
        timed(r.prepare_s, [&] { return b.wb->prepare_job(tj->job, nullptr); });
    if (pj.regions != nullptr ||
        tj->job.cache.policy != cachesim::ReplacementPolicy::kLru) {
      continue;
    }
    StreamKey key;
    key.line_size = tj->job.cache.line_size;
    key.budget = std::max<Bytes>(
        tj->job.kind == Kind::kCacheOnly ? 1_KiB : tj->job.size,
        key.line_size);
    key.excluding =
        tj->job.kind == Kind::kSteinke && b.wb->options().steinke_moves;
    key.on_spm = pj.on_spm;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const Group& g) { return g.key == key; });
    if (it == groups.end()) {
      groups.push_back(Group{std::move(key), {}});
      it = std::prev(groups.end());
    }
    it->members.push_back(Member{tj, std::move(pj)});
  }

  const trace::BlockWalk& walk = b.wb->execution().walk;
  for (const Group& g : groups) {
    const Workbench::PreparedJob& rep = g.members.front().pj;
    cachesim::ConfigFamily family;
    family.line_size = g.key.line_size;
    for (const Member& m : g.members) {
      if (std::find(family.configs.begin(), family.configs.end(),
                    m.tj->job.cache) == family.configs.end()) {
        family.configs.push_back(m.tj->job.cache);
      }
    }
    std::uint64_t spm_words = 0;
    const cachesim::StackSimulator sim = timed(r.stack_pass_s, [&] {
      const trace::CompiledStream stream =
          traceopt::compile_fetch_stream(*rep.tp, *rep.layout, g.key.line_size);
      cachesim::StackSimulator s(family);
      for (const BasicBlockId bb : walk.seq) {
        const MemoryObjectId mo = rep.tp->object_of(bb);
        if (!rep.on_spm.empty() && rep.on_spm[mo.index()]) {
          spm_words += stream.words_of(bb);
          continue;
        }
        for (const trace::LineRun& run : stream.runs(bb)) {
          s.access_line(run.addr, run.words);
        }
      }
      return s;
    });
    r.stack_passes += 1;
    r.stack_configs += static_cast<double>(family.configs.size());
    if (g.members.size() >= 2) {
      // With artifact checks on, the planner cross-checks a group's first
      // member against a direct replay before trusting the pass.
      const memsim::SimReport direct = timed(r.cross_check_s, [&] {
        return memsim::simulate_spm_system(*rep.tp, *rep.layout, walk,
                                           rep.on_spm, rep.job.cache,
                                           rep.energies);
      });
      chk.expect(direct.counters == g.members.front().tj->reference.outcome.sim.counters,
                 job_label(b.name, rep.job) + ": direct replay differs");
    }
    for (const Member& m : g.members) {
      const cachesim::StackCounters sc = sim.counters(m.tj->job.cache);
      const memsim::SimCounters& c = m.tj->reference.outcome.sim.counters;
      chk.expect(sc.hits == c.cache_hits && sc.misses == c.cache_misses &&
                     sc.evictions == c.cache_evictions &&
                     spm_words == c.spm_accesses,
                 job_label(b.name, m.tj->job) +
                     ": stack-pass counters differ from the replay's");
    }
  }
}

/// One planner batch: its results, wall time and process CPU time.
struct PlannerRun {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<report::JobResult> results;
};

PlannerRun run_planner(const Workbench& wb, const std::vector<Job>& jobs,
                       unsigned threads) {
  report::BatchOptions bopt;
  bopt.threads = threads;
  bopt.fail_fast = false;
  const sim::SweepPlanner planner(wb);
  PlannerRun run;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  run.results = planner.run_jobs(jobs, bopt);
  run.wall_s = seconds_since(t0);
  run.cpu_s = cpu_seconds() - cpu0;
  return run;
}

std::uint64_t counter(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto it = s.counters.find(std::string(name));
  return it == s.counters.end() ? 0 : it->second;
}

/// Each job through a fresh EvalService as an `evaluate` request line:
/// first a miss, then a hit whose reply must match the miss reply.
void probe_service(const Bench& b, const std::vector<const TracedJob*>& jobs,
                   const std::vector<double>& direct_s, const Config& cfg,
                   TraceRound& r, Checker& chk) {
  svc::ServiceOptions so;
  so.threads = cfg.threads;
  so.exec_seed = cfg.profile_seed;
  svc::EvalService service(so);
  service.evaluate_batch(b.name, {});  // builds the service's Workbench
  std::vector<std::string> miss_reply(jobs.size());
  std::vector<double> parse_us, lookup_us, render_us, overhead_ms;
  for (const bool hit_pass : {false, true}) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string line = evaluate_line(b.name, jobs[i]->job);
      const std::string label = job_label(b.name, jobs[i]->job);
      const ServedRequest s = serve_line(service, line);
      chk.expect(s.request.jobs.size() == 1 &&
                     s.request.jobs.front() == jobs[i]->job,
                 label + ": request line does not parse back to the job");
      chk.expect(s.responses.size() == 1 &&
                     same_result(s.responses.front().result,
                                 jobs[i]->reference),
                 label + ": service outcome differs from Workbench::evaluate");
      if (s.responses.size() != 1) continue;
      const svc::Provenance want =
          hit_pass ? svc::Provenance::kHit : svc::Provenance::kMiss;
      chk.expect(s.responses.front().provenance == want,
                 label + ": unexpected cache provenance");
      if (!hit_pass) {
        miss_reply[i] = strip_provenance(s.reply);
        overhead_ms.push_back(1e3 * (s.evaluate_s - direct_s[i]));
      } else {
        chk.expect(strip_provenance(s.reply) == miss_reply[i],
                   label + ": hit reply differs from the miss reply");
        parse_us.push_back(1e6 * s.parse_s);
        lookup_us.push_back(1e6 * s.evaluate_s);
        render_us.push_back(1e6 * s.render_s);
      }
    }
  }
  const svc::EvalService::Stats st = service.stats();
  chk.expect(st.misses == jobs.size(),
             b.name + ": a service with room for every job missed " +
                 std::to_string(st.misses) + " times on " +
                 std::to_string(jobs.size()) + " distinct jobs");
  r.parse_us += median(parse_us);
  r.lookup_us += median(lookup_us);
  r.render_us += median(render_us);
  r.miss_overhead_ms += median(overhead_ms);
  r.hits += static_cast<double>(st.hits);
  r.misses += static_cast<double>(st.misses);
  r.evictions += static_cast<double>(st.cache.evictions);
}

}  // namespace

casa::report::Outcome compose_job(const Bench& b, const Job& job,
                                  LayerTimes& t, Checker& chk) {
  const trace::ExecutionResult& exec = b.wb->execution();
  const cachesim::CacheConfig& cache = job.cache;
  // The artifact checks Workbench runs between the stages, timed apart.
  check::CheckRunner rules;
  const auto run_check = [&](auto&& rule) {
    timed(t.check_s, [&] {
      rule();
      return 0;
    });
  };
  const traceopt::TraceProgram tp = timed(t.form_s, [&] {
    return form(b, cache, job.kind == Kind::kCacheOnly ? 1_KiB : job.size);
  });
  run_check([&] { check::check_trace_program(tp, cache.line_size, rules); });
  report::Outcome out(job.kind);
  out.object_count = tp.object_count();

  switch (job.kind) {
    case Kind::kCasa: {
      const traceopt::Layout layout =
          timed(t.layout_s, [&] { return traceopt::layout_all(tp); });
      run_check([&] { check::check_layout(tp, layout, cache.line_size, rules); });
      const conflict::ConflictGraph graph = timed(t.conflict_s, [&] {
        conflict::BuildOptions bopt;
        bopt.cache = cache;
        return conflict::build_conflict_graph(tp, layout, exec.walk, bopt);
      });
      run_check([&] {
        check::check_conflict_graph(tp, layout, graph, cache, rules);
      });
      t.conflict_fetches += exec.total_fetches;
      t.conflict_edges += graph.edge_count();
      const energy::EnergyTable energies = timed(t.energy_s, [&] {
        return energy::EnergyTable::build(cache, job.size, 0, 0);
      });
      const core::CasaProblem problem = timed(t.allocate_s, [&] {
        return core::CasaProblem::from(tp, graph, energies, job.size);
      });
      run_check([&] {
        check::check_energy_table(energies, job.size > 0, false, rules);
        const core::SavingsProblem sp = core::presolve(problem);
        const core::CasaModel cm =
            core::build_casa_model(sp, job.casa.linearization);
        check::check_casa_model(cm, sp, job.casa.linearization, rules);
      });
      core::AllocationResult alloc = timed(t.allocate_s, [&] {
        return core::CasaAllocator(job.casa).allocate(problem);
      });
      run_check([&] { check::check_allocation(problem, alloc, rules); });
      expect_no_worse_than_greedy(problem, alloc.predicted_saving,
                                  job_label(b.name, job), chk);
      t.ilp_nodes += alloc.solver_nodes;
      out.set_conflict_edges(graph.edge_count());
      out.spm_used = alloc.used_bytes;
      out.sim = timed(t.replay_s, [&] {
        return memsim::simulate_spm_system(tp, layout, exec.walk, alloc.on_spm,
                                           cache, energies);
      });
      out.set_alloc(std::move(alloc));
      break;
    }
    case Kind::kSteinke: {
      const energy::EnergyTable energies = timed(t.energy_s, [&] {
        return energy::EnergyTable::build(cache, job.size, 0, 0);
      });
      run_check([&] {
        check::check_energy_table(energies, job.size > 0, false, rules);
      });
      const baseline::SteinkeResult sel = timed(t.select_s, [&] {
        return baseline::allocate_steinke(
            tp, job.size, energies.cache_hit - energies.spm_access);
      });
      run_check([&] {
        std::vector<Bytes> sizes;
        for (const traceopt::MemoryObject& mo : tp.objects()) {
          sizes.push_back(mo.raw_size);
        }
        check::check_spm_selection(sizes, job.size, sel.on_spm, sel.used_bytes,
                                   rules);
      });
      out.spm_used = sel.used_bytes;
      const traceopt::Layout layout = timed(t.layout_s, [&] {
        return b.wb->options().steinke_moves
                   ? traceopt::layout_excluding(tp, sel.on_spm)
                   : traceopt::layout_all(tp);
      });
      run_check([&] { check::check_layout(tp, layout, cache.line_size, rules); });
      out.sim = timed(t.replay_s, [&] {
        return memsim::simulate_spm_system(tp, layout, exec.walk, sel.on_spm,
                                           cache, energies);
      });
      break;
    }
    case Kind::kLoopCache: {
      const traceopt::Layout layout =
          timed(t.layout_s, [&] { return traceopt::layout_all(tp); });
      run_check([&] { check::check_layout(tp, layout, cache.line_size, rules); });
      const energy::EnergyTable energies = timed(t.energy_s, [&] {
        return energy::EnergyTable::build(cache, 0, job.size, job.max_regions);
      });
      run_check([&] {
        check::check_energy_table(energies, false, job.size > 0, rules);
      });
      const loopcache::RossResult sel = timed(t.loopcache_s, [&] {
        loopcache::LoopCacheConfig lcfg;
        lcfg.size = job.size;
        lcfg.max_regions = job.max_regions;
        return loopcache::allocate_ross(
            loopcache::enumerate_regions(tp, layout, exec.profile), lcfg);
      });
      out.spm_used = sel.used_bytes;
      out.set_lc_regions(static_cast<unsigned>(sel.selected.regions().size()));
      out.sim = timed(t.lc_replay_s, [&] {
        return memsim::simulate_loopcache_system(tp, layout, exec.walk,
                                                 sel.selected, cache, energies);
      });
      break;
    }
    case Kind::kCacheOnly: {
      const traceopt::Layout layout =
          timed(t.layout_s, [&] { return traceopt::layout_all(tp); });
      run_check([&] { check::check_layout(tp, layout, cache.line_size, rules); });
      const energy::EnergyTable energies = timed(t.energy_s, [&] {
        return energy::EnergyTable::build(cache, 2 * kWordBytes, 0, 0);
      });
      run_check([&] { check::check_energy_table(energies, true, false, rules); });
      const std::vector<bool> none(tp.object_count(), false);
      out.sim = timed(t.replay_s, [&] {
        return memsim::simulate_spm_system(tp, layout, exec.walk, none, cache,
                                           energies);
      });
      break;
    }
  }
  chk.expect(rules.error_count() == 0,
             job_label(b.name, job) + ": artifact checks report errors");
  t.replay_fetches += out.sim.counters.total_fetches;
  return out;
}

void check_against_greedy(const Bench& b, const Job& job, double alloc_saving,
                          Checker& chk) {
  const trace::ExecutionResult& exec = b.wb->execution();
  const traceopt::TraceProgram tp = form(b, job.cache, job.size);
  const traceopt::Layout layout = traceopt::layout_all(tp);
  conflict::BuildOptions bopt;
  bopt.cache = job.cache;
  const conflict::ConflictGraph graph =
      conflict::build_conflict_graph(tp, layout, exec.walk, bopt);
  const energy::EnergyTable energies =
      energy::EnergyTable::build(job.cache, job.size, 0, 0);
  expect_no_worse_than_greedy(
      core::CasaProblem::from(tp, graph, energies, job.size), alloc_saving,
      job_label(b.name, job), chk);
}

void trace_executor(const std::vector<const Bench*>& benches,
                    const Config& cfg, TraceRound& round, Checker& chk) {
  std::uint64_t fetches = 0;
  round.executor_s = median_time(kSetupReps, [&] {
    fetches = 0;
    for (const Bench* b : benches) {
      trace::ExecutorOptions eopt;
      eopt.seed = cfg.profile_seed;
      const trace::ExecutionResult exec = trace::Executor::run(*b->program, eopt);
      chk.expect(exec.total_fetches == b->wb->execution().total_fetches &&
                     exec.walk.seq == b->wb->execution().walk.seq,
                 b->name + ": executor run is not deterministic");
      fetches += exec.total_fetches;
    }
  });
  round.fetches = static_cast<double>(fetches);
}

void trace_sample(const std::vector<TracedJob>& sample, bool planner_path,
                  const Config& cfg, TraceRound& r, Checker& chk) {
  // Programs in first-appearance order, each with its jobs.
  std::vector<const Bench*> benches;
  for (const TracedJob& tj : sample) {
    if (std::find(benches.begin(), benches.end(), tj.bench) == benches.end()) {
      benches.push_back(tj.bench);
    }
  }
  double evaluate_s = 0, composed_s = 0;
  double planner_cpu_s = 0, planner_wall_s = 0;
  for (const Bench* b : benches) {
    std::vector<const TracedJob*> all, ok;
    for (const TracedJob& tj : sample) {
      if (tj.bench != b) continue;
      all.push_back(&tj);
      if (tj.reference.ok()) ok.push_back(&tj);
    }

    // Workbench::evaluate (twice, the faster counts), then the same job
    // composed from the layers.
    std::vector<double> direct_s;
    for (const TracedJob* tj : ok) {
      const std::string label = job_label(b->name, tj->job);
      double direct = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        double once = 0;
        const report::JobResult again =
            timed(once, [&] { return b->wb->evaluate(tj->job); });
        chk.expect(same_result(again, tj->reference),
                   label + ": evaluate is not deterministic");
        direct = std::min(direct, once);
      }
      LayerTimes lt;
      const report::Outcome composed = compose_job(*b, tj->job, lt, chk);
      chk.expect(composed == tj->reference.outcome,
                 label + ": outcome composed from the layers differs from "
                         "Workbench::evaluate");
      direct_s.push_back(direct);
      evaluate_s += direct;
      composed_s += lt.total_s();
      LayerTimes& acc = r.layers;
      acc.form_s += lt.form_s;
      acc.layout_s += lt.layout_s;
      acc.conflict_s += lt.conflict_s;
      acc.allocate_s += lt.allocate_s;
      acc.select_s += lt.select_s;
      acc.loopcache_s += lt.loopcache_s;
      acc.replay_s += lt.replay_s;
      acc.lc_replay_s += lt.lc_replay_s;
      acc.energy_s += lt.energy_s;
      acc.check_s += lt.check_s;
      acc.conflict_fetches += lt.conflict_fetches;
      acc.conflict_edges += lt.conflict_edges;
      acc.ilp_nodes += lt.ilp_nodes;
      acc.replay_fetches += lt.replay_fetches;
    }

    compose_stack_passes(*b, ok, r, chk);

    // The sweep planner over the same jobs, with the pipeline's telemetry
    // on for its stack-group counts.
    std::vector<Job> jobs;
    for (const TracedJob* tj : all) jobs.push_back(tj->job);
    const obs::MetricsSnapshot before = b->registry->snapshot();
    const PlannerRun planned = run_planner(*b->metered, jobs, cfg.threads);
    const obs::MetricsSnapshot after = b->registry->snapshot();
    for (std::size_t i = 0; i < all.size(); ++i) {
      chk.expect(same_result(planned.results[i], all[i]->reference),
                 job_label(b->name, all[i]->job) +
                     ": sweep planner result differs");
    }
    using namespace obs::metric_names;
    r.stack_groups += static_cast<double>(counter(after, kSweepStackPasses) -
                                          counter(before, kSweepStackPasses));
    r.fallback_configs +=
        static_cast<double>(counter(after, kSweepFallbackConfigs) -
                            counter(before, kSweepFallbackConfigs));
    planner_cpu_s += planned.cpu_s;
    planner_wall_s += planned.wall_s;

    probe_service(*b, ok, direct_s, cfg, r, chk);
  }
  const double n = static_cast<double>(benches.size());
  r.parse_us /= n;
  r.lookup_us /= n;
  r.render_us /= n;
  r.miss_overhead_ms /= n;
  r.busy_ratio = planner_wall_s > 0
                     ? planner_cpu_s / (cfg.threads * planner_wall_s)
                     : 0;
  r.check_overhead_s =
      r.layers.check_s + (planner_path ? r.cross_check_s : 0.0);
  r.tracing_overhead_s = composed_s - evaluate_s;
}

Metrics layer_metrics(const std::vector<TraceRound>& rounds) {
  Metrics m;
  const auto put = [&](const char* name, const char* unit, auto field) {
    std::vector<double> v;
    for (const TraceRound& r : rounds) v.push_back(field(r));
    m[name] = Metric{median(v), unit};
  };
  const auto per = [](double num, double den, double scale) {
    return den > 0 ? scale * num / den : 0.0;
  };
  put("trace.executor_s", "s", [](const TraceRound& r) { return r.executor_s; });
  put("trace.fetches", "count", [](const TraceRound& r) { return r.fetches; });
  put("traceopt.form_s", "s", [](const TraceRound& r) { return r.layers.form_s; });
  put("traceopt.layout_s", "s",
      [](const TraceRound& r) { return r.layers.layout_s; });
  put("conflict.build_s", "s",
      [](const TraceRound& r) { return r.layers.conflict_s; });
  put("conflict.ns_per_fetch", "ns", [&](const TraceRound& r) {
    return per(r.layers.conflict_s,
               static_cast<double>(r.layers.conflict_fetches), 1e9);
  });
  put("conflict.edges", "count", [](const TraceRound& r) {
    return static_cast<double>(r.layers.conflict_edges);
  });
  put("core.allocate_s", "s",
      [](const TraceRound& r) { return r.layers.allocate_s; });
  put("ilp.nodes", "count", [](const TraceRound& r) {
    return static_cast<double>(r.layers.ilp_nodes);
  });
  put("ilp.us_per_node", "us", [&](const TraceRound& r) {
    return per(r.layers.allocate_s, static_cast<double>(r.layers.ilp_nodes),
               1e6);
  });
  put("loopcache.select_s", "s",
      [](const TraceRound& r) { return r.layers.loopcache_s; });
  put("memsim.replay_s", "s",
      [](const TraceRound& r) { return r.layers.replay_s; });
  put("memsim.loopcache_replay_s", "s",
      [](const TraceRound& r) { return r.layers.lc_replay_s; });
  put("memsim.ns_per_fetch", "ns", [&](const TraceRound& r) {
    return per(r.layers.replay_s + r.layers.lc_replay_s,
               static_cast<double>(r.layers.replay_fetches), 1e9);
  });
  put("cachesim.stack_pass_s", "s",
      [](const TraceRound& r) { return r.stack_pass_s; });
  put("cachesim.configs_per_pass", "configs", [&](const TraceRound& r) {
    return per(r.stack_configs, r.stack_passes, 1);
  });
  put("sim.prepare_s", "s", [](const TraceRound& r) { return r.prepare_s; });
  put("sim.stack_groups", "count",
      [](const TraceRound& r) { return r.stack_groups; });
  put("sim.fallback_configs", "count",
      [](const TraceRound& r) { return r.fallback_configs; });
  put("sim.busy_ratio", "ratio", [](const TraceRound& r) { return r.busy_ratio; });
  put("check.overhead_s", "s",
      [](const TraceRound& r) { return r.check_overhead_s; });
  put("svc.parse_us", "us", [](const TraceRound& r) { return r.parse_us; });
  put("svc.lookup_us", "us", [](const TraceRound& r) { return r.lookup_us; });
  put("svc.render_us", "us", [](const TraceRound& r) { return r.render_us; });
  put("svc.hits", "count", [](const TraceRound& r) { return r.hits; });
  put("svc.misses", "count", [](const TraceRound& r) { return r.misses; });
  put("svc.evictions", "count", [](const TraceRound& r) { return r.evictions; });
  put("svc.miss_overhead_ms", "ms",
      [](const TraceRound& r) { return r.miss_overhead_ms; });
  put("tracing.overhead_s", "s",
      [](const TraceRound& r) { return r.tracing_overhead_s; });
  return m;
}

}  // namespace perfbench
