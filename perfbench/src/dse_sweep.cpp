// dse_sweep: a design-space sweep over all seven bundled programs. Each
// program's jobs — cache-only, Steinke and CASA at a small scratchpad over
// a family of LRU cache geometries (size x associativity, 16-byte lines),
// plus zero-size CASA and Steinke points at every geometry — go to
// sim::SweepPlanner::run_jobs as one batch with a fixed worker count.
#include <algorithm>
#include <iostream>
#include <map>

#include "casa/sim/sweep_planner.hpp"
#include "casa/support/rng.hpp"
#include "casa/workloads/workloads.hpp"
#include "checks.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace casa;

/// Scratchpad size of the CASA and Steinke points: small enough that the
/// branch and bound stays cheap, so the sweep's time goes to the conflict
/// graphs and the cache passes.
constexpr Bytes kSpm = 128;

std::vector<cachesim::CacheConfig> geometries() {
  std::vector<cachesim::CacheConfig> out;
  for (const Bytes size : {256, 512, 1024, 2048, 4096}) {
    for (const unsigned ways : {1u, 2u, 4u, 8u}) {
      cachesim::CacheConfig c;
      c.size = size;
      c.line_size = 16;
      c.associativity = ways;
      c.policy = cachesim::ReplacementPolicy::kLru;
      out.push_back(c);
    }
  }
  return out;
}

bool zero_size(const Job& job) {
  return job.kind != Job::Kind::kCacheOnly && job.size == 0;
}

class DseSweep final : public Workload {
 public:
  DseSweep(const Config& cfg, Checker& chk) : cfg_(cfg), chk_(chk) {}

  std::unique_ptr<State> build() const override {
    return build_benches(workloads::names(), cfg_);
  }

  void use(std::unique_ptr<State> state) override {
    benches_ = std::move(static_cast<Benches&>(*state).list);
    Rng rng(cfg_.seed);
    for (std::size_t p = 0; p < benches_.size(); ++p) {
      std::vector<Job> jobs;
      for (const cachesim::CacheConfig& c : geometries()) {
        jobs.push_back(Job::cache_only_job(c));
        jobs.push_back(Job::steinke_job(c, kSpm));
        jobs.push_back(Job::casa_job(c, kSpm));
        jobs.push_back(Job::steinke_job(c, 0));
        jobs.push_back(Job::casa_job(c, 0));
      }
      // Submission order is the seed's; outcomes do not depend on it.
      for (std::size_t i = jobs.size(); i > 1; --i) {
        std::swap(jobs[i - 1], jobs[rng.next_below(i)]);
      }
      jobs_.push_back(std::move(jobs));
    }
  }

  std::vector<const Bench*> benches() const override {
    std::vector<const Bench*> out;
    for (const auto& b : benches_) out.push_back(b.get());
    return out;
  }

  RoundOut round() override {
    RoundOut out;
    last_.clear();
    report::BatchOptions bopt;
    bopt.threads = cfg_.threads;
    bopt.fail_fast = false;
    for (std::size_t p = 0; p < benches_.size(); ++p) {
      const sim::SweepPlanner planner(*benches_[p]->wb);
      const Clock::time_point t0 = Clock::now();
      std::vector<report::JobResult> results = planner.run_jobs(jobs_[p], bopt);
      out.op_s.push_back(seconds_since(t0));
      out.op_kind.push_back(p);
      out.attempted += results.size();
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok()) continue;
        ++out.failed;
        if (!zero_size(jobs_[p][i])) {
          std::cerr << "perfbench: "
                    << job_label(benches_[p]->name, jobs_[p][i])
                    << " failed: " << results[i].message << "\n";
        }
      }
      last_.push_back(std::move(results));
    }
    if (first_.empty()) {
      first_ = last_;
    } else {
      for (std::size_t p = 0; p < benches_.size(); ++p) {
        for (std::size_t i = 0; i < jobs_[p].size(); ++i) {
          const report::JobResult& a = first_[p][i];
          const report::JobResult& b = last_[p][i];
          chk_.expect(a.ok() == b.ok() && (!a.ok() || a.outcome == b.outcome),
                      job_label(benches_[p]->name, jobs_[p][i]) +
                          ": outcome changed between rounds");
        }
      }
    }
    return out;
  }

  /// One program per traced round, in turn from a seeded start: its
  /// cache-only jobs at every geometry, and the scratchpad jobs (zero-size
  /// ones too) at four seeded geometries, with the loop-cache job of the
  /// same capacity beside each Steinke point so that the loop-cache layers
  /// are timed here as well.
  void trace(TraceRound& tr) override {
    const std::size_t p = (cfg_.seed + traced_++) % benches_.size();
    const Bench* b = benches_[p].get();
    const std::vector<cachesim::CacheConfig> geo = geometries();
    Rng rng(cfg_.seed * 1000003ull + traced_);
    std::vector<cachesim::CacheConfig> picked;
    while (picked.size() < 4) {
      const cachesim::CacheConfig& c = geo[rng.next_below(geo.size())];
      if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
        picked.push_back(c);
      }
    }
    std::vector<TracedJob> sample;
    for (std::size_t i = 0; i < jobs_[p].size(); ++i) {
      const Job& job = jobs_[p][i];
      const bool at_picked =
          std::find(picked.begin(), picked.end(), job.cache) != picked.end();
      if (job.kind == Job::Kind::kCacheOnly || at_picked) {
        sample.push_back({b, job, last_[p][i]});
      }
      if (at_picked && job.kind == Job::Kind::kSteinke && job.size > 0) {
        const Job lc = Job::loopcache_job(job.cache, job.size, 4);
        sample.push_back({b, lc, b->wb->evaluate(lc)});
      }
    }
    trace_sample(sample, /*planner_path=*/true, cfg_, tr, chk_);
  }

  void check() override {
    std::map<std::string, std::uint64_t> zero_failures;
    Rng rng(cfg_.seed ^ 0xd5e5ull);
    for (std::size_t p = 0; p < benches_.size(); ++p) {
      const Bench& b = *benches_[p];
      std::vector<std::pair<Job, const report::Outcome*>> cache_only;
      std::vector<std::size_t> casa;
      for (std::size_t i = 0; i < jobs_[p].size(); ++i) {
        const Job& job = jobs_[p][i];
        const report::JobResult& r = first_[p][i];
        if (!r.ok()) {
          if (zero_size(job)) {
            ++zero_failures[std::string(to_string(job.kind)) + " (" +
                            r.error_kind + "): " + summary(r.message)];
          }
          continue;
        }
        check_outcome(b, job, r.outcome, chk_);
        if (job.kind == Job::Kind::kCacheOnly) {
          cache_only.emplace_back(job, &r.outcome);
        }
        if (job.kind == Job::Kind::kCasa && job.size > 0) casa.push_back(i);
      }
      check_lru_monotone(b.name, cache_only, chk_);
      for (std::size_t i = 0; i < jobs_[p].size(); ++i) {
        const Job& job = jobs_[p][i];
        if (!zero_size(job) || !first_[p][i].ok()) continue;
        for (const auto& [co, out] : cache_only) {
          if (co.cache == job.cache) {
            check_zero_point(b.name, job, first_[p][i].outcome, *out, chk_);
          }
        }
      }
      // A seeded sample against the reference cache model and the greedy
      // engine: one cache-only and one CASA point on a program in turn.
      if (p == cfg_.seed % benches_.size() && !cache_only.empty()) {
        const auto& [job, out] = cache_only[rng.next_below(cache_only.size())];
        check_reference_cache(b, job, *out, chk_);
      }
      if (p == (cfg_.seed + 3) % benches_.size() && !casa.empty()) {
        const std::size_t i = casa[rng.next_below(casa.size())];
        check_against_greedy(b, jobs_[p][i],
                             first_[p][i].outcome.alloc().predicted_saving, chk_);
      }
    }
    for (const auto& [what, n] : zero_failures) {
      std::cout << "dse_sweep: zero-size points failed: " << n << " x " << what
                << "\n";
    }
  }

 private:
  /// The line of a failure message that names the fault: a check
  /// diagnostic's rule line when there is one, else the first line.
  static std::string summary(const std::string& s) {
    const std::size_t rule = s.find("error[");
    const std::size_t from = rule == std::string::npos ? 0 : rule;
    return s.substr(from, s.find('\n', from) - from);
  }

  const Config& cfg_;
  Checker& chk_;
  std::vector<std::unique_ptr<Bench>> benches_;
  std::vector<std::vector<Job>> jobs_;
  std::vector<std::vector<report::JobResult>> first_;
  std::vector<std::vector<report::JobResult>> last_;
  std::uint64_t traced_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dse_sweep(const Config& cfg, Checker& chk) {
  return std::make_unique<DseSweep>(cfg, chk);
}

}  // namespace perfbench
