#include "casa/svc/result_cache.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/obs/build_info.hpp"
#include "casa/obs/metric_names.hpp"
#include "casa/support/error.hpp"

namespace casa::svc {

namespace {

/// Exact (hexfloat) spelling, so a key never depends on decimal rounding.
std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

std::string result_key(const KeyContext& ctx,
                       const report::Workbench::Job& job) {
  using FlowKind = report::FlowKind;
  std::ostringstream key;
  const obs::BuildInfo& info = obs::build_info();
  key << "casa-result-key v1|build=" << info.source_hash << '/'
      << info.build_type << '/' << info.compiler
      << "|workload=" << ctx.workload << "|seed=" << ctx.exec_seed
      << "|fuse=" << hexfloat(ctx.fuse_ratio) << "|cache=" << job.cache.size
      << '/' << job.cache.line_size << '/' << job.cache.associativity << '/'
      << to_string(job.cache.policy) << "|kind=" << to_string(job.kind);
  switch (job.kind) {
    case FlowKind::kCasa: {
      const core::CasaOptions& o = job.casa;
      key << "|spm=" << job.size << "|casa=" << to_string(o.engine) << '/'
          << (o.linearization == core::Linearization::kPaper ? "paper"
                                                             : "tight")
          << '/' << o.max_nodes << '/'
          << o.ilp_threads << '/' << o.ilp_subtree_depth << '/'
          << (o.ilp_warm_start ? 1 : 0) << '/' << (o.ilp_presolve ? 1 : 0);
      break;
    }
    case FlowKind::kSteinke:
      key << "|spm=" << job.size << "|moves=" << (ctx.steinke_moves ? 1 : 0);
      break;
    case FlowKind::kLoopCache:
      key << "|lc=" << job.size << '/' << job.max_regions;
      break;
    case FlowKind::kCacheOnly:
      break;
  }
  return std::move(key).str();
}

std::string key_digest(const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

ResultCache::ResultCache(std::size_t byte_budget,
                         obs::MetricsRegistry* metrics)
    : budget_(byte_budget), metrics_(metrics) {}

std::size_t ResultCache::cost(const std::string& key,
                              const CachedResult& value) {
  return key.size() + value.artifact.size();
}

std::shared_ptr<const CachedResult> ResultCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  return it->second.value;
}

void ResultCache::insert(const std::string& key, CachedResult value) {
  CASA_CHECK(value.result.ok(), "result cache: only ok() results are cached");
  const std::size_t bytes = cost(key, value);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ -= it->second.bytes;
    it->second.value = std::make_shared<CachedResult>(std::move(value));
    it->second.bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
  } else {
    lru_.push_front(key);
    Node node;
    node.value = std::make_shared<CachedResult>(std::move(value));
    node.bytes = bytes;
    node.pos = lru_.begin();
    map_.emplace(key, std::move(node));
    bytes_ += bytes;
  }
  evict_over_budget_locked();
  if (metrics_ != nullptr) {
    metrics_->set_gauge(obs::metric_names::kSvcBytes,
                        static_cast<double>(bytes_));
  }
}

void ResultCache::evict_over_budget_locked() {
  while (bytes_ > budget_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    const auto it = map_.find(victim);
    bytes_ -= it->second.bytes;
    map_.erase(it);
    lru_.pop_back();
    ++evictions_;
    if (metrics_ != nullptr) {
      metrics_->add(obs::metric_names::kSvcEvictions);
    }
  }
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  bytes_ = 0;
  if (metrics_ != nullptr) {
    metrics_->set_gauge(obs::metric_names::kSvcBytes, 0.0);
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.entries = map_.size();
  return s;
}

}  // namespace casa::svc
