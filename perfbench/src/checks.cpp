#include "checks.hpp"

#include <cstdint>
#include <vector>

#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"

namespace perfbench {

using namespace casa;

void check_outcome(const Bench& b, const Job& job,
                   const report::Outcome& out, Checker& chk) {
  const std::string label = job_label(b.name, job);
  const memsim::SimCounters& c = out.sim.counters;
  chk.expect(out.flow() == job.kind, label + ": outcome has the wrong flow");
  chk.expect(c.total_fetches == b.wb->execution().total_fetches,
             label + ": fetch count differs from the executor's");
  chk.expect(c.spm_accesses + c.lc_accesses + c.cache_accesses ==
                 c.total_fetches,
             label + ": SPM + loop-cache + cache accesses do not sum to the "
                     "fetches");
  chk.expect(c.cache_hits + c.cache_misses == c.cache_accesses,
             label + ": cache hits + misses differ from cache accesses");
  chk.expect(out.spm_used <= job.size,
             label + ": " + std::to_string(out.spm_used) +
                 " bytes placed in a " + std::to_string(job.size) +
                 "-byte memory");
}

namespace {

/// Set-associative LRU cache: per set, lines ordered most recent first.
class ReferenceLru {
 public:
  ReferenceLru(Bytes size, Bytes line, unsigned ways)
      : line_(line), ways_(ways), sets_(size / (line * ways)), set_(sets_) {}

  void access(Addr addr) {
    const std::uint64_t line = addr / line_;
    std::vector<std::uint64_t>& s = set_[line % sets_];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == line) {
        s.erase(s.begin() + static_cast<std::ptrdiff_t>(i));
        s.insert(s.begin(), line);
        ++hits;
        return;
      }
    }
    ++misses;
    if (s.size() == ways_) {
      s.pop_back();
      ++evictions;
    }
    s.insert(s.begin(), line);
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  Bytes line_;
  unsigned ways_;
  Bytes sets_;
  std::vector<std::vector<std::uint64_t>> set_;
};

}  // namespace

void check_reference_cache(const Bench& b, const Job& job,
                           const report::Outcome& out, Checker& chk) {
  // The cache-only flow's program image: traces formed with a 1 KiB
  // budget, every object laid out; every fetched word goes to the cache.
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = job.cache.line_size;
  topt.max_trace_size = std::max<Bytes>(1_KiB, job.cache.line_size);
  topt.fuse_ratio = b.wb->options().fuse_ratio;
  const traceopt::TraceProgram tp =
      traceopt::form_traces(*b.program, b.wb->execution().profile, topt);
  const traceopt::Layout layout = traceopt::layout_all(tp);
  ReferenceLru cache(job.cache.size, job.cache.line_size,
                     job.cache.associativity);
  for (const BasicBlockId bb : b.wb->execution().walk.seq) {
    const Addr base = layout.block_addr(bb);
    const Bytes size = b.program->block(bb).size;
    for (Bytes off = 0; off < size; off += kWordBytes) cache.access(base + off);
  }
  const memsim::SimCounters& c = out.sim.counters;
  chk.expect(cache.hits == c.cache_hits && cache.misses == c.cache_misses &&
                 cache.evictions == c.cache_evictions,
             job_label(b.name, job) + ": reference LRU model counts " +
                 std::to_string(cache.misses) + " misses, the simulator " +
                 std::to_string(c.cache_misses));
}

void check_lru_monotone(
    const std::string& workload,
    const std::vector<std::pair<Job, const report::Outcome*>>& points,
    Checker& chk) {
  for (const auto& [a, oa] : points) {
    for (const auto& [b, ob] : points) {
      if (a.cache.sets() != b.cache.sets() ||
          a.cache.associativity >= b.cache.associativity) {
        continue;
      }
      chk.expect(ob->sim.counters.cache_misses <= oa->sim.counters.cache_misses,
                 job_label(workload, b) + " misses more than " +
                     job_label(workload, a) + " at the same set count");
    }
  }
}

void check_zero_point(const std::string& workload, const Job& job,
                      const report::Outcome& out,
                      const report::Outcome& cache_only, Checker& chk) {
  chk.expect(out.spm_used == 0 && out.sim == cache_only.sim,
             job_label(workload, job) +
                 ": zero-size point differs from the cache-only outcome");
}

}  // namespace perfbench
