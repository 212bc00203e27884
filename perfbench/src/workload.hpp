// The interface the three workloads implement, and their factories.
// main.cpp builds a workload's set-up state, runs whole rounds of it until
// the run's time is spent, samples the set-up time again between rounds,
// and then checks the outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

struct RoundOut {
  std::uint64_t attempted = 0;  ///< jobs attempted
  std::uint64_t failed = 0;
  std::vector<double> op_s;     ///< latency of each timed operation
  /// What each operation was (the whole table, one program's sweep batch,
  /// a cache-hit request): latency_ms is the geometric mean over kinds of
  /// each kind's median latency.
  std::vector<std::size_t> op_kind;
};

class Workload {
 public:
  /// What set-up builds: the programs, their Workbenches (the profiling
  /// runs) and the service.
  struct State {
    virtual ~State() = default;
  };

  virtual ~Workload() = default;
  /// Builds a fresh set-up state. main.cpp times this several times per
  /// run; only the first state is used by the rounds.
  virtual std::unique_ptr<State> build() const = 0;
  /// Hands the workload the state its rounds run on.
  virtual void use(std::unique_ptr<State> state) = 0;
  /// Programs the workload profiles (for the traced executor timing).
  virtual std::vector<const Bench*> benches() const = 0;
  /// One whole round of the workload's operations.
  virtual RoundOut round() = 0;
  /// Traces a sample of the last round's jobs.
  virtual void trace(TraceRound& tr) = 0;
  /// Output checks after the timed phase.
  virtual void check() = 0;
};

/// Set-up state of the workloads that only profile programs.
struct Benches final : Workload::State {
  std::vector<std::unique_ptr<Bench>> list;
};

template <class Names>
std::unique_ptr<Benches> build_benches(const Names& names, const Config& cfg) {
  auto state = std::make_unique<Benches>();
  for (const auto& name : names) state->list.push_back(make_bench(name, cfg));
  return state;
}

std::unique_ptr<Workload> make_table1(const Config& cfg, Checker& chk);
std::unique_ptr<Workload> make_dse_sweep(const Config& cfg, Checker& chk);
std::unique_ptr<Workload> make_serve(const Config& cfg, Checker& chk);

}  // namespace perfbench
