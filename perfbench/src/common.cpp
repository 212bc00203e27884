#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <thread>

#include "casa/workloads/workloads.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<Bench> make_bench(const std::string& name,
                                  const Config& cfg) {
  auto b = std::make_unique<Bench>();
  b->name = name;
  b->program =
      std::make_unique<casa::prog::Program>(casa::workloads::by_name(name));
  casa::report::WorkbenchOptions opt;
  opt.exec_seed = cfg.profile_seed;
  b->wb = std::make_unique<Workbench>(*b->program, opt);
  if (cfg.trace) {
    b->registry = std::make_unique<casa::obs::MetricsRegistry>();
    casa::report::WorkbenchOptions metered = opt;
    metered.metrics = b->registry.get();
    b->metered = std::make_unique<Workbench>(*b->program, metered);
  }
  return b;
}

void Checker::expect(bool cond, const std::string& what) {
  ++checks_;
  if (cond) return;
  if (failures_ < 8) std::cerr << "perfbench: check failed: " << what << "\n";
  ++failures_;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

unsigned worker_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

std::string job_label(const std::string& workload, const Job& job) {
  std::ostringstream os;
  os << to_string(job.kind) << " " << workload << " " << job.cache.size
     << "B/" << job.cache.associativity << "w";
  if (job.kind != Job::Kind::kCacheOnly) os << " size=" << job.size;
  return os.str();
}

}  // namespace perfbench
