// table1: the paper's Table 1 points. adpcm/128 B, g721/1 kB and mpeg/2 kB
// direct-mapped I-caches, each at its paper scratchpad sizes; CASA, Steinke
// and loop-cache jobs through Workbench::evaluate, one call at a time on one
// thread, plus one cache-only job per program.
#include <cstdio>
#include <iostream>

#include "casa/support/rng.hpp"
#include "casa/workloads/workloads.hpp"
#include "checks.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace casa;

constexpr const char* kPrograms[] = {"adpcm", "g721", "mpeg"};

struct Point {
  const Bench* bench = nullptr;
  Job job;
};

class Table1 final : public Workload {
 public:
  Table1(const Config& cfg, Checker& chk) : cfg_(cfg), chk_(chk) {}

  std::unique_ptr<State> build() const override {
    return build_benches(kPrograms, cfg_);
  }

  void use(std::unique_ptr<State> state) override {
    benches_ = std::move(static_cast<Benches&>(*state).list);
    for (const auto& bench : benches_) {
      const Bench* b = bench.get();
      const cachesim::CacheConfig cache = workloads::paper_cache_for(b->name);
      points_.push_back({b, Job::cache_only_job(cache)});
      for (const Bytes size : workloads::paper_spm_sizes_for(b->name)) {
        points_.push_back({b, Job::casa_job(cache, size)});
        points_.push_back({b, Job::steinke_job(cache, size)});
        points_.push_back({b, Job::loopcache_job(cache, size, 4)});
      }
    }
    // The call order is the seed's; outcomes do not depend on it.
    Rng rng(cfg_.seed);
    for (std::size_t i = points_.size(); i > 1; --i) {
      std::swap(points_[i - 1], points_[rng.next_below(i)]);
    }
  }

  std::vector<const Bench*> benches() const override {
    std::vector<const Bench*> out;
    for (const auto& b : benches_) out.push_back(b.get());
    return out;
  }

  /// One regeneration of the table: the operation latency_ms times.
  RoundOut round() override {
    RoundOut out;
    last_.clear();
    const Clock::time_point start = Clock::now();
    for (const Point& p : points_) {
      const Clock::time_point t0 = Clock::now();
      report::JobResult r = p.bench->wb->evaluate(p.job);
      job_s_.push_back(seconds_since(t0));
      ++out.attempted;
      if (!r.ok()) {
        ++out.failed;
        std::cerr << "perfbench: " << job_label(p.bench->name, p.job)
                  << " failed: " << r.message << "\n";
      }
      last_.push_back(std::move(r));
    }
    out.op_s.push_back(seconds_since(start));
    out.op_kind.push_back(0);
    if (first_.empty()) {
      first_ = last_;
    } else {
      for (std::size_t i = 0; i < points_.size(); ++i) {
        chk_.expect(last_[i].ok() == first_[i].ok() &&
                        (!last_[i].ok() || last_[i].outcome == first_[i].outcome),
                    job_label(points_[i].bench->name, points_[i].job) +
                        ": outcome changed between rounds");
      }
    }
    return out;
  }

  void trace(TraceRound& tr) override {
    std::vector<TracedJob> sample;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      sample.push_back({points_[i].bench, points_[i].job, last_[i]});
    }
    trace_sample(sample, /*planner_path=*/false, cfg_, tr, chk_);
  }

  void check() override {
    std::vector<std::size_t> casa_points;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      if (!first_[i].ok()) continue;
      const report::Outcome& out = first_[i].outcome;
      check_outcome(*p.bench, p.job, out, chk_);
      if (p.job.kind == Job::Kind::kCacheOnly) {
        check_reference_cache(*p.bench, p.job, out, chk_);
      }
      if (p.job.kind == Job::Kind::kCasa) casa_points.push_back(i);
    }
    // CASA against greedy on a seeded sample of the CASA points (each
    // check rebuilds the conflict graph).
    Rng rng(cfg_.seed ^ 0x7ab1e1ull);
    for (int k = 0; k < 3 && !casa_points.empty(); ++k) {
      const std::size_t pick = rng.next_below(casa_points.size());
      const Point& p = points_[casa_points[pick]];
      check_against_greedy(*p.bench, p.job,
                           first_[casa_points[pick]].outcome.alloc().predicted_saving,
                           chk_);
      casa_points.erase(casa_points.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    print_table();
    std::cout << "table1: Workbench::evaluate calls: " << job_s_.size()
              << ", p50 " << 1e3 * median(job_s_) << " ms\n";
  }

 private:
  const report::Outcome* find(const Bench* b, const Job& job) const {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].bench == b && points_[i].job == job && first_[i].ok()) {
        return &first_[i].outcome;
      }
    }
    return nullptr;
  }

  /// The simulated Table 1: total energy per flow, in microjoules.
  void print_table() const {
    std::printf("table1: %-6s %5s %10s %10s %10s %10s %8s %8s\n", "bench",
                "size", "cache_uJ", "casa_uJ", "steinke_uJ", "lc_uJ",
                "vsStk_%", "vsLC_%");
    for (const auto& b : benches_) {
      const cachesim::CacheConfig cache = workloads::paper_cache_for(b->name);
      const report::Outcome* co = find(b.get(), Job::cache_only_job(cache));
      for (const Bytes size : workloads::paper_spm_sizes_for(b->name)) {
        const report::Outcome* c = find(b.get(), Job::casa_job(cache, size));
        const report::Outcome* s = find(b.get(), Job::steinke_job(cache, size));
        const report::Outcome* l =
            find(b.get(), Job::loopcache_job(cache, size, 4));
        if (co == nullptr || c == nullptr || s == nullptr || l == nullptr) {
          continue;
        }
        const double e = c->sim.total_energy;
        std::printf("table1: %-6s %5llu %10.2f %10.2f %10.2f %10.2f %8.1f %8.1f\n",
                    b->name.c_str(), static_cast<unsigned long long>(size),
                    to_micro_joules(co->sim.total_energy), to_micro_joules(e),
                    to_micro_joules(s->sim.total_energy),
                    to_micro_joules(l->sim.total_energy),
                    100.0 * (1.0 - e / s->sim.total_energy),
                    100.0 * (1.0 - e / l->sim.total_energy));
      }
    }
  }

  const Config& cfg_;
  Checker& chk_;
  std::vector<std::unique_ptr<Bench>> benches_;
  std::vector<Point> points_;
  std::vector<report::JobResult> first_;
  std::vector<report::JobResult> last_;
  std::vector<double> job_s_;  ///< every evaluate call's latency
};

}  // namespace

std::unique_ptr<Workload> make_table1(const Config& cfg, Checker& chk) {
  return std::make_unique<Table1>(cfg, chk);
}

}  // namespace perfbench
