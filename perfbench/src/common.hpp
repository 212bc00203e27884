// Shared pieces of the CASA end-to-end benchmark: run configuration,
// profiled programs, the correctness log, metric output and small
// statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "casa/prog/program.hpp"
#include "casa/report/workbench.hpp"

namespace perfbench {

using casa::report::Workbench;
using Job = Workbench::Job;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;           ///< operation order and sampling
  std::uint64_t profile_seed = 42;  ///< Workbench profiling (exec_seed)
  std::uint64_t stream_seed = 1;    ///< serve: job popularity and requests
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;  ///< batch / sweep / service workers
};

/// One profiled program. Heap-held, because a Workbench keeps a pointer to
/// its Program. In traced runs a second Workbench shares the program and
/// records the pipeline's own telemetry into `registry`.
struct Bench {
  std::string name;
  std::unique_ptr<casa::prog::Program> program;
  std::unique_ptr<Workbench> wb;
  std::unique_ptr<casa::obs::MetricsRegistry> registry;
  std::unique_ptr<Workbench> metered;
};

std::unique_ptr<Bench> make_bench(const std::string& name,
                                  const Config& cfg);

/// Correctness log. A failed expectation marks the run incorrect and is
/// reported on stderr (the first few of each run).
class Checker {
 public:
  void expect(bool cond, const std::string& what);
  bool ok() const { return failures_ == 0; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t failures() const { return failures_; }

 private:
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mib();
/// User + system CPU time of this process so far.
double cpu_seconds();
unsigned worker_threads();

/// Human-readable job label, e.g. "casa g721 1024B/1w size=512".
std::string job_label(const std::string& workload, const Job& job);

/// Set-up samples per run; setup_s is their median.
inline constexpr unsigned kSetupReps = 11;

}  // namespace perfbench
