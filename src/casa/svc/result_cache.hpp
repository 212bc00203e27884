// Content-addressed Outcome cache for the evaluation service.
//
// The cache is keyed by a canonical text serialization of everything the
// evaluation provably depends on: the Workbench::Job (normalized per flow,
// so fields a flow ignores cannot split the key space), the workload id,
// the Workbench profiling parameters, and the build provenance
// (obs::build_info: a hash of the library sources taken at build time, the
// build type and the compiler) — a binary rebuilt from edited sources never
// serves results computed by a different build. Two jobs map to the same
// key if and only if the pipeline would produce bit-identical Outcomes for
// them.
//
// Entries hold the finished JobResult plus its rendered `casa-result v1`
// artifact text; a hit streams the stored bytes back without re-rendering.
// The cache is thread-safe and LRU-evicted under a byte budget.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "casa/obs/metrics.hpp"
#include "casa/report/workbench.hpp"

namespace casa::svc {

/// The evaluation context a key must capture beyond the job itself: which
/// workload the Workbench profiled, and the profiling knobs that shape the
/// trace every flow replays.
struct KeyContext {
  std::string workload;
  std::uint64_t exec_seed = 42;
  double fuse_ratio = 0.5;
  bool steinke_moves = true;
};

/// Canonical cache key (`casa-result-key v1`). Deterministic, pure, and
/// flow-normalized: kCacheOnly drops size/regions/solver options,
/// kSteinke keeps only the capacity (plus the move-vs-copy knob),
/// kLoopCache keeps capacity + region budget, kCasa keeps capacity +
/// every solver option. Defaulted and explicitly-spelled-out option sets
/// therefore serialize identically.
std::string result_key(const KeyContext& ctx,
                       const report::Workbench::Job& job);

/// Stable 64-bit FNV-1a of a key, hex-encoded — the persisted artifact's
/// file name (process-independent, unlike std::hash).
std::string key_digest(const std::string& key);

/// One finished evaluation: the result and its rendered artifact.
struct CachedResult {
  report::JobResult result;  ///< always ok() — failures are never cached
  std::string artifact;      ///< `casa-result v1` text for this result
};

class ResultCache {
 public:
  /// `metrics` may be null; when set, svc.evictions / svc.bytes record
  /// eviction pressure (hit/miss accounting belongs to the service, which
  /// also sees single-flight joins and persisted loads).
  explicit ResultCache(std::size_t byte_budget,
                       obs::MetricsRegistry* metrics = nullptr);

  /// Returns the entry for `key` (refreshing its LRU position), or null.
  std::shared_ptr<const CachedResult> find(const std::string& key);

  /// Inserts (or replaces) `key`, then evicts least-recently-used entries
  /// until the byte budget holds again. The newest entry always survives,
  /// even when it alone exceeds the budget.
  void insert(const std::string& key, CachedResult value);

  /// Drops every entry (the `flush` protocol op).
  void clear();

  struct Stats {
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< key + artifact bytes currently held
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  /// Entry cost in budget bytes (the dominant strings; struct overhead is
  /// deliberately ignored — the budget is a bound on payload, not RSS).
  static std::size_t cost(const std::string& key, const CachedResult& value);

  void evict_over_budget_locked();

  const std::size_t budget_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  /// Most-recently-used at the front; nodes hold their LRU position so
  /// refresh and eviction are O(1).
  std::list<std::string> lru_;
  struct Node {
    std::shared_ptr<const CachedResult> value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator pos;
  };
  std::unordered_map<std::string, Node> map_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace casa::svc
