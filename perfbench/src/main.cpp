// casa_perfbench: the end-to-end benchmark of the CASA flows.
//
//   casa_perfbench --workload table1|dse_sweep|serve --seed N --seconds S
//                  --trace 0|1 [--profile-seed N] [--stream-seed N]
//
// Sets the workload up, runs whole rounds of it until S seconds are spent
// (setting it up again between rounds: setup_s is the median), checks
// every output, and prints
// one JSON object as the last line of stdout: the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// perfbench/README.md describes the workloads and metrics.
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "casa/obs/build_info.hpp"
#include "casa/obs/export.hpp"
#include "casa/support/args.hpp"
#include "casa/support/error.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_provenance(const Config& cfg) {
  const casa::obs::BuildInfo& bi = casa::obs::build_info();
  using casa::obs::json_escape;
  std::cout << "{\"provenance\":{\"workload\":\"" << json_escape(cfg.workload)
            << "\",\"seed\":" << cfg.seed
            << ",\"profile_seed\":" << cfg.profile_seed
            << ",\"stream_seed\":" << cfg.stream_seed
            << ",\"seconds\":" << cfg.seconds
            << ",\"trace\":" << (cfg.trace ? 1 : 0)
            << ",\"threads\":" << cfg.threads
            << ",\"build_type\":\"" << json_escape(bi.build_type)
            << "\",\"git\":\"" << json_escape(bi.git_describe)
            << "\",\"compiler\":\"" << json_escape(bi.compiler)
            << "\",\"cpu\":\"" << json_escape(cpu_model())
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << "}}\n";
}

void print_result(bool correct, const RunResult& r) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::cout << (first ? "" : ",") << "\"" << name
              << "\":{\"value\":" << casa::obs::format_double(m.value)
              << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

/// Times one build of the workload's set-up state. The state is handed to
/// `keep`, or freed outside the timed span.
double time_setup(const Workload& w, std::unique_ptr<Workload::State>* keep) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Workload::State> state = w.build();
  const double s = seconds_since(t0);
  if (keep != nullptr) *keep = std::move(state);
  return s;
}

RunResult drive(Workload& w, const Config& cfg, Checker& chk) {
  RunResult r;
  // The rounds run on the first set-up. Further set-ups are built and
  // thrown away between rounds at evenly spaced times, so setup_s samples
  // the whole run rather than its first moments.
  std::unique_ptr<Workload::State> state;
  std::vector<double> setups{time_setup(w, &state)};
  w.use(std::move(state));
  const auto due = [&](double elapsed) {
    return !cfg.trace && setups.size() < kSetupReps &&
           elapsed >= cfg.seconds * static_cast<double>(setups.size()) /
                          kSetupReps;
  };
  std::size_t rounds = 0;
  std::map<std::size_t, std::vector<double>> op_s;  // by operation kind
  std::vector<TraceRound> traced;
  double busy_s = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const RoundOut round = w.round();
    busy_s += seconds_since(t0);
    ++rounds;
    r.attempted += round.attempted;
    r.failed += round.failed;
    for (std::size_t i = 0; i < round.op_s.size(); ++i) {
      op_s[round.op_kind[i]].push_back(round.op_s[i]);
    }
    if (cfg.trace) {
      TraceRound tr;
      w.trace(tr);
      trace_executor(w.benches(), cfg, tr, chk);
      traced.push_back(tr);
    }
    while (due(seconds_since(start))) setups.push_back(time_setup(w, nullptr));
  } while (seconds_since(start) < cfg.seconds);
  while (due(cfg.seconds)) setups.push_back(time_setup(w, nullptr));
  w.check();

  if (cfg.trace) {
    r.metrics = layer_metrics(traced);
  } else {
    r.metrics["setup_s"] = {median(setups), "s"};
    r.metrics["jobs_per_s"] = {
        static_cast<double>(r.attempted - r.failed) / busy_s, "jobs/s"};
    double log_sum = 0;
    for (const auto& [kind, s] : op_s) log_sum += std::log(median(s));
    r.metrics["latency_ms"] = {
        1e3 * std::exp(log_sum / static_cast<double>(op_s.size())), "ms"};
    r.metrics["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  }
  std::cout << cfg.workload << ": " << r.attempted << " jobs attempted, "
            << r.failed << " failed, " << rounds << " rounds, "
            << chk.checks() << " checks, " << chk.failures()
            << " check failures\n";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    casa::ArgParser args(argc, argv);
    Config cfg;
    cfg.workload = args.get("workload", "", "table1, dse_sweep or serve");
    cfg.seed = args.get_u64("seed", 1, "operation order and sampling seed");
    cfg.profile_seed =
        args.get_u64("profile-seed", 42, "Workbench profiling seed");
    cfg.stream_seed = args.get_u64(
        "stream-seed", 1, "serve: job popularity and request draw seed");
    cfg.seconds = static_cast<double>(
        args.get_u64("seconds", 10, "length of the timed phase"));
    const std::uint64_t trace = args.get_u64("trace", 0, "1: traced run");
    args.reject_unknown();
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    CASA_CHECK(trace <= 1, "--trace must be 0 or 1");
    cfg.trace = trace == 1;
    cfg.threads = worker_threads();

    Checker chk;
    std::unique_ptr<Workload> w;
    if (cfg.workload == "table1") {
      w = make_table1(cfg, chk);
    } else if (cfg.workload == "dse_sweep") {
      w = make_dse_sweep(cfg, chk);
    } else if (cfg.workload == "serve") {
      w = make_serve(cfg, chk);
    } else {
      std::cerr << "casa_perfbench: unknown --workload '" << cfg.workload
                << "' (table1, dse_sweep, serve)\n";
      return 2;
    }
    print_provenance(cfg);
    const RunResult r = drive(*w, cfg, chk);
    print_result(chk.ok(), r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "casa_perfbench: " << e.what() << "\n";
    return 1;
  }
}
