#include "casa/memsim/hierarchy.hpp"

#include "casa/obs/metric_names.hpp"
#include "casa/support/error.hpp"

namespace casa::memsim {

namespace {

/// Derives the energy report from event counters. Both replay granularities
/// share this, so energies are byte-identical whenever counters are — and
/// the hot loops carry no floating-point accumulation at all.
void finish(SimReport& rep, const energy::EnergyTable& energies,
            bool loop_cache) {
  const SimCounters& c = rep.counters;
  rep.spm_energy =
      static_cast<double>(c.spm_accesses) * energies.spm_access;
  rep.cache_energy =
      static_cast<double>(c.cache_hits) * energies.cache_hit +
      static_cast<double>(c.cache_misses) * energies.cache_miss;
  if (loop_cache) {
    // The controller compares bounds on every fetch it does not serve.
    rep.lc_energy =
        static_cast<double>(c.lc_accesses) * energies.lc_access +
        static_cast<double>(c.cache_accesses) * energies.lc_controller;
  }
  rep.total_energy = rep.spm_energy + rep.cache_energy + rep.lc_energy;
}

/// Records the finished replay's counters into the attached registry (a
/// handful of adds per *simulation*, never per access — the instrumentation
/// stays off the hot path entirely).
void record_metrics(obs::MetricsRegistry* reg, const SimCounters& c) {
  if (reg == nullptr) return;
  reg->add(obs::metric_names::kSimFetches, c.total_fetches);
  reg->add(obs::metric_names::kSimSpmAccesses, c.spm_accesses);
  reg->add(obs::metric_names::kSimLcAccesses, c.lc_accesses);
  reg->add(obs::metric_names::kCacheAccesses, c.cache_accesses);
  reg->add(obs::metric_names::kCacheHits, c.cache_hits);
  reg->add(obs::metric_names::kCacheMisses, c.cache_misses);
  reg->add(obs::metric_names::kCacheEvictions, c.cache_evictions);
  reg->add(obs::metric_names::kSimMainmemWords, c.mainmem_words);
  reg->add(obs::metric_names::kSimCycles, c.cycles);
}

/// Word-granular reference inner loop. `spm_mo` marks scratchpad-resident
/// objects (empty = none); `regions` enables the loop-cache path (nullptr =
/// none).
SimReport run_words(const traceopt::TraceProgram& tp,
                    const traceopt::Layout& layout,
                    const trace::BlockWalk& walk,
                    const std::vector<bool>& spm_mo,
                    const loopcache::RegionSet* regions,
                    const cachesim::CacheConfig& cache_cfg,
                    const energy::EnergyTable& energies,
                    const SimOptions& opt) {
  const prog::Program& program = tp.program();
  cachesim::Cache cache(cache_cfg, opt.seed);
  const std::uint64_t line_words = cache_cfg.line_size / kWordBytes;
  const LatencyParams& lat = opt.latency;

  SimReport rep;
  SimCounters& c = rep.counters;

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const Bytes size = program.block(bb).size;
    const std::uint64_t words = size / kWordBytes;

    if (!spm_mo.empty() && spm_mo[mo.index()]) {
      // Whole block fetched from the scratchpad.
      c.total_fetches += words;
      c.spm_accesses += words;
      c.cycles += words * lat.spm_access;
      continue;
    }

    const Addr base = layout.block_addr(bb);
    for (std::uint64_t w = 0; w < words; ++w) {
      const Addr addr = base + w * kWordBytes;
      ++c.total_fetches;

      if (regions != nullptr && regions->contains(addr)) {
        ++c.lc_accesses;
        c.cycles += lat.lc_access;
        continue;
      }

      const cachesim::AccessResult r = cache.access(addr);
      ++c.cache_accesses;
      if (r.hit) {
        ++c.cache_hits;
        c.cycles += lat.cache_hit;
      } else {
        ++c.cache_misses;
        c.mainmem_words += line_words;
        c.cycles += lat.cache_hit + lat.miss_base_penalty +
                    line_words * lat.miss_per_word;
      }
    }
  }

  c.cache_evictions = cache.evictions();
  finish(rep, energies, regions != nullptr);
  record_metrics(opt.metrics, c);
  return rep;
}

/// Line-granular inner loop over a compiled stream (no loop-cache path; see
/// SimOptions::use_compiled_stream).
SimReport run_lines(const traceopt::TraceProgram& tp,
                    const trace::CompiledStream& stream,
                    const trace::BlockWalk& walk,
                    const std::vector<bool>& spm_mo,
                    const cachesim::CacheConfig& cache_cfg,
                    const energy::EnergyTable& energies,
                    const SimOptions& opt) {
  cachesim::Cache cache(cache_cfg, opt.seed);
  const std::uint64_t line_words = cache_cfg.line_size / kWordBytes;
  const LatencyParams& lat = opt.latency;
  const std::uint64_t miss_cycles =
      lat.cache_hit + lat.miss_base_penalty + line_words * lat.miss_per_word;

  SimReport rep;
  SimCounters& c = rep.counters;
  std::uint64_t runs_replayed = 0;

  for (const BasicBlockId bb : walk.seq) {
    const MemoryObjectId mo = tp.object_of(bb);
    const std::uint64_t words = stream.words_of(bb);

    if (!spm_mo.empty() && spm_mo[mo.index()]) {
      c.total_fetches += words;
      c.spm_accesses += words;
      c.cycles += words * lat.spm_access;
      continue;
    }

    CASA_CHECK(stream.cached(bb),
               "cached block missing from the compiled layout");
    runs_replayed += stream.runs(bb).size();
    for (const trace::LineRun& run : stream.runs(bb)) {
      c.total_fetches += run.words;
      c.cache_accesses += run.words;
      const cachesim::AccessResult r = cache.access_line(run.addr, run.words);
      if (r.hit) {
        c.cache_hits += run.words;
        c.cycles += run.words * lat.cache_hit;
      } else {
        // Same-line run: the first word misses, the rest hit.
        c.cache_hits += run.words - 1;
        ++c.cache_misses;
        c.mainmem_words += line_words;
        c.cycles += (run.words - 1) * lat.cache_hit + miss_cycles;
      }
    }
  }

  c.cache_evictions = cache.evictions();
  finish(rep, energies, /*loop_cache=*/false);
  record_metrics(opt.metrics, c);
  if (opt.metrics != nullptr) {
    // Compiled-stream run-length telemetry: static runs in the compiled
    // image, dynamic runs replayed, and the words they collapsed.
    opt.metrics->add(obs::metric_names::kStreamCompiledRuns, stream.total_runs());
    opt.metrics->add(obs::metric_names::kStreamReplayedRuns, runs_replayed);
    opt.metrics->add(obs::metric_names::kStreamReplayedWords,
                     c.cache_hits + c.cache_misses);
  }
  return rep;
}

SimReport run(const traceopt::TraceProgram& tp, const traceopt::Layout& layout,
              const trace::BlockWalk& walk, const std::vector<bool>& spm_mo,
              const loopcache::RegionSet* regions,
              const cachesim::CacheConfig& cache_cfg,
              const energy::EnergyTable& energies, const SimOptions& opt) {
  if (regions == nullptr && opt.use_compiled_stream) {
    const trace::CompiledStream stream =
        traceopt::compile_fetch_stream(tp, layout, cache_cfg.line_size);
    return run_lines(tp, stream, walk, spm_mo, cache_cfg, energies, opt);
  }
  return run_words(tp, layout, walk, spm_mo, regions, cache_cfg, energies,
                   opt);
}

/// The scratchpad system's precondition, shared by the direct replay and
/// the counter-derived report so both reject the same inputs with the
/// same error.
void require_spm_entry(const energy::EnergyTable& energies) {
  CASA_CHECK(energies.spm_access > 0, "energy table lacks an SPM entry");
}

}  // namespace

SimReport simulate_spm_system(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const std::vector<bool>& on_spm,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt) {
  CASA_CHECK(on_spm.size() == tp.object_count(), "on_spm mask size mismatch");
  require_spm_entry(energies);
  return run(tp, layout, walk, on_spm, nullptr, cache_cfg, energies, opt);
}

SimReport simulate_loopcache_system(const traceopt::TraceProgram& tp,
                                    const traceopt::Layout& layout,
                                    const trace::BlockWalk& walk,
                                    const loopcache::RegionSet& regions,
                                    const cachesim::CacheConfig& cache_cfg,
                                    const energy::EnergyTable& energies,
                                    const SimOptions& opt) {
  CASA_CHECK(energies.lc_access > 0, "energy table lacks a loop-cache entry");
  return run(tp, layout, walk, {}, &regions, cache_cfg, energies, opt);
}

SimReport simulate_cache_only(const traceopt::TraceProgram& tp,
                              const traceopt::Layout& layout,
                              const trace::BlockWalk& walk,
                              const cachesim::CacheConfig& cache_cfg,
                              const energy::EnergyTable& energies,
                              const SimOptions& opt) {
  return run(tp, layout, walk, {}, nullptr, cache_cfg, energies, opt);
}

SimReport report_from_counters(const SimCounters& counters,
                               const energy::EnergyTable& energies,
                               bool loop_cache) {
  if (!loop_cache) require_spm_entry(energies);
  SimReport rep;
  rep.counters = counters;
  finish(rep, energies, loop_cache);
  return rep;
}

void record_sim_counters(obs::MetricsRegistry* reg,
                         const SimCounters& counters) {
  record_metrics(reg, counters);
}

}  // namespace casa::memsim
