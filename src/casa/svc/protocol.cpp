#include "casa/svc/protocol.hpp"

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string_view>

#include "casa/cachesim/cache.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/formulation.hpp"
#include "casa/io/json.hpp"
#include "casa/obs/export.hpp"
#include "casa/support/error.hpp"

namespace casa::svc {

namespace {

using io::JsonValue;

/// Rejects a malformed request, naming the offending field by its path in
/// the request ("job.cache.size", "jobs[2]"); never assertion text.
[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw PreconditionError("serve request: '" + path + "' " + what);
}

/// Requires the value at `prefix` (the request itself when empty) to be an
/// object.
void require_object(const JsonValue& v, const std::string& prefix) {
  if (v.kind == JsonValue::Kind::kObject) return;
  if (prefix.empty()) {
    throw PreconditionError("serve request: expected a JSON object");
  }
  reject(prefix.substr(0, prefix.size() - 1), "must be an object");
}

/// A JSON number spelt as an unsigned 64-bit integer: signs, fractions,
/// exponents and overflow are refused rather than wrapped or truncated.
std::uint64_t u64_value(const JsonValue& v, const std::string& path) {
  if (v.kind != JsonValue::Kind::kNumber) {
    reject(path, "must be an unsigned 64-bit integer");
  }
  try {
    return io::to_u64(v.str);
  } catch (const PreconditionError&) {
    reject(path, "must be an unsigned 64-bit integer, got " + v.str);
  }
}

// Optional members of `obj`; `prefix` locates `obj` in the request ("" for
// the request itself, "job." for its job) so errors name the member's path.
std::uint64_t u64_field(const JsonValue& obj, const std::string& prefix,
                        const std::string& key, std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : u64_value(*v, prefix + key);
}

std::string str_field(const JsonValue& obj, const std::string& prefix,
                      const std::string& key, const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::kString) {
    reject(prefix + key, "must be a string");
  }
  return v->str;
}

/// The array member `key`, required and non-empty.
const JsonValue& array_field(const JsonValue& obj, const std::string& prefix,
                             const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kArray ||
      v->items.empty()) {
    reject(prefix + key, "must be a non-empty array");
  }
  return *v;
}

/// Rejects every member of `obj` not in `known`, naming it by its path in
/// the request (`path` + key): a misspelt field is an error, never a
/// silently applied default.
void check_keys(const JsonValue& obj,
                std::initializer_list<std::string_view> known,
                const std::string& path) {
  for (const auto& member : obj.members) {
    if (std::find(known.begin(), known.end(), member.first) == known.end()) {
      throw PreconditionError("serve request: unknown key '" + path +
                              member.first + "'");
    }
  }
}

report::FlowKind flow_from(const std::string& s, const std::string& path) {
  using FlowKind = report::FlowKind;
  for (const FlowKind f : {FlowKind::kCasa, FlowKind::kSteinke,
                           FlowKind::kLoopCache, FlowKind::kCacheOnly}) {
    if (s == to_string(f)) return f;
  }
  reject(path, "is not a flow: '" + s + "'");
}

cachesim::CacheConfig cache_from(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"size", "line_size", "associativity", "policy"}, path);
  cachesim::CacheConfig config;
  config.size = u64_field(v, path, "size", config.size);
  config.line_size = u64_field(v, path, "line_size", config.line_size);
  config.associativity = static_cast<unsigned>(
      u64_field(v, path, "associativity", config.associativity));
  const std::string policy = str_field(v, path, "policy", "LRU");
  bool known = false;
  for (const auto p :
       {cachesim::ReplacementPolicy::kLru, cachesim::ReplacementPolicy::kFifo,
        cachesim::ReplacementPolicy::kRoundRobin,
        cachesim::ReplacementPolicy::kRandom}) {
    if (policy == to_string(p)) {
      config.policy = p;
      known = true;
    }
  }
  if (!known) reject(path + "policy", "is not a policy: '" + policy + "'");
  return config;
}

/// Parses one job object; `path` locates it in the request ("job." or
/// "jobs[i].") for unknown-key errors.
report::Workbench::Job job_from(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"kind", "cache", "size", "max_regions", "casa"}, path);
  report::Workbench::Job job;
  job.kind = flow_from(str_field(v, path, "kind", "casa"), path + "kind");
  if (const JsonValue* cache = v.find("cache")) {
    job.cache = cache_from(*cache, path + "cache.");
  }
  job.size = u64_field(v, path, "size", job.size);
  job.max_regions = static_cast<unsigned>(
      u64_field(v, path, "max_regions", job.max_regions));
  if (const JsonValue* casa = v.find("casa")) {
    const std::string cpath = path + "casa.";
    require_object(*casa, cpath);
    check_keys(*casa,
               {"engine", "linearization", "max_nodes", "ilp_threads",
                "ilp_subtree_depth", "ilp_warm_start", "ilp_presolve"},
               cpath);
    core::CasaOptions& o = job.casa;
    const std::string engine = str_field(*casa, cpath, "engine", "auto");
    bool known = false;
    for (const auto e :
         {core::CasaEngine::kAuto, core::CasaEngine::kSpecializedBnB,
          core::CasaEngine::kGenericIlp, core::CasaEngine::kGreedy}) {
      if (engine == to_string(e)) {
        o.engine = e;
        known = true;
      }
    }
    if (!known) {
      reject(cpath + "engine", "is not an engine: '" + engine + "'");
    }
    const std::string lin = str_field(*casa, cpath, "linearization", "tight");
    if (lin != "paper" && lin != "tight") {
      reject(cpath + "linearization",
             "must be 'paper' or 'tight', got '" + lin + "'");
    }
    o.linearization = lin == "paper" ? core::Linearization::kPaper
                                     : core::Linearization::kTight;
    o.max_nodes = u64_field(*casa, cpath, "max_nodes", o.max_nodes);
    o.ilp_threads = static_cast<unsigned>(
        u64_field(*casa, cpath, "ilp_threads", o.ilp_threads));
    o.ilp_subtree_depth = static_cast<unsigned>(
        u64_field(*casa, cpath, "ilp_subtree_depth", o.ilp_subtree_depth));
    o.ilp_warm_start =
        u64_field(*casa, cpath, "ilp_warm_start", o.ilp_warm_start ? 1 : 0) !=
        0;
    o.ilp_presolve =
        u64_field(*casa, cpath, "ilp_presolve", o.ilp_presolve ? 1 : 0) != 0;
  }
  return job;
}

/// Compact, deterministic outcome rendering: a pure function of the
/// Outcome, so equal Outcomes always serialize to identical bytes (the
/// warm-cache byte-identity contract).
void write_outcome(std::ostream& os, const report::Outcome& out) {
  const memsim::SimCounters& c = out.sim.counters;
  os << "{\"flow\":\"" << to_string(out.flow())
     << "\",\"object_count\":" << out.object_count
     << ",\"spm_used\":" << out.spm_used
     << ",\"total_fetches\":" << c.total_fetches
     << ",\"spm_accesses\":" << c.spm_accesses
     << ",\"lc_accesses\":" << c.lc_accesses
     << ",\"cache_accesses\":" << c.cache_accesses
     << ",\"cache_hits\":" << c.cache_hits
     << ",\"cache_misses\":" << c.cache_misses
     << ",\"cache_evictions\":" << c.cache_evictions
     << ",\"mainmem_words\":" << c.mainmem_words << ",\"cycles\":" << c.cycles
     << ",\"total_energy\":" << obs::format_double(out.sim.total_energy)
     << ",\"spm_energy\":" << obs::format_double(out.sim.spm_energy)
     << ",\"cache_energy\":" << obs::format_double(out.sim.cache_energy)
     << ",\"lc_energy\":" << obs::format_double(out.sim.lc_energy);
  if (out.flow() == report::FlowKind::kCasa) {
    const core::AllocationResult& a = out.alloc();
    os << ",\"conflict_edges\":" << out.conflict_edges()
       << ",\"predicted_energy\":" << obs::format_double(a.predicted_energy)
       << ",\"predicted_saving\":" << obs::format_double(a.predicted_saving)
       << ",\"engine_used\":\"" << to_string(a.engine_used)
       << "\",\"solver_nodes\":" << a.solver_nodes
       << ",\"exact\":" << (a.exact ? 1 : 0);
  } else if (out.flow() == report::FlowKind::kLoopCache) {
    os << ",\"lc_regions\":" << out.lc_regions();
  }
  os << "}";
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue root = io::JsonReader(line).parse();
  require_object(root, "");
  Request req;
  const std::string op = str_field(root, "", "op", "");
  if (op == "stats" || op == "flush") {
    check_keys(root, {"op"}, "");
    req.op = op == "stats" ? Request::Op::kStats : Request::Op::kFlush;
    return req;
  }
  if (op != "evaluate" && op != "batch" && op != "sweep") {
    reject("op", "is not an op: '" + op + "'");
  }
  req.workload = str_field(root, "", "workload", "");
  if (req.workload.empty()) reject("workload", "is required by '" + op + "'");
  if (op == "evaluate") {
    check_keys(root, {"op", "workload", "job"}, "");
    req.op = Request::Op::kEvaluate;
    const JsonValue* job = root.find("job");
    if (job == nullptr) reject("job", "is required by 'evaluate'");
    req.jobs.push_back(job_from(*job, "job."));
    return req;
  }
  if (op == "batch") {
    check_keys(root, {"op", "workload", "jobs"}, "");
    req.op = Request::Op::kBatch;
    const JsonValue& jobs = array_field(root, "", "jobs");
    for (std::size_t i = 0; i < jobs.items.size(); ++i) {
      req.jobs.push_back(
          job_from(jobs.items[i], "jobs[" + std::to_string(i) + "]."));
    }
    return req;
  }
  if (op == "sweep") {
    check_keys(root, {"op", "workload", "cache", "spm", "flows", "max_regions"},
               "");
    req.op = Request::Op::kSweep;
    cachesim::CacheConfig cache;
    if (const JsonValue* c = root.find("cache")) {
      cache = cache_from(*c, "cache.");
    }
    const JsonValue* spm = root.find("spm");
    if (spm == nullptr || spm->kind != JsonValue::Kind::kArray) {
      reject("spm", "must be an array");
    }
    const JsonValue& flows = array_field(root, "", "flows");
    const unsigned regions =
        static_cast<unsigned>(u64_field(root, "", "max_regions", 4));
    for (std::size_t i = 0; i < flows.items.size(); ++i) {
      const std::string fpath = "flows[" + std::to_string(i) + "]";
      const JsonValue& f = flows.items[i];
      if (f.kind != JsonValue::Kind::kString) reject(fpath, "must be a string");
      const report::FlowKind kind = flow_from(f.str, fpath);
      if (kind == report::FlowKind::kCacheOnly) {
        req.jobs.push_back(report::Workbench::Job::cache_only_job(cache));
        continue;
      }
      if (spm->items.empty()) reject("spm", "must be a non-empty array");
      for (std::size_t j = 0; j < spm->items.size(); ++j) {
        const Bytes bytes =
            u64_value(spm->items[j], "spm[" + std::to_string(j) + "]");
        switch (kind) {
          case report::FlowKind::kCasa:
            req.jobs.push_back(
                report::Workbench::Job::casa_job(cache, bytes));
            break;
          case report::FlowKind::kSteinke:
            req.jobs.push_back(
                report::Workbench::Job::steinke_job(cache, bytes));
            break;
          case report::FlowKind::kLoopCache:
            req.jobs.push_back(
                report::Workbench::Job::loopcache_job(cache, bytes, regions));
            break;
          case report::FlowKind::kCacheOnly:
            break;
        }
      }
    }
    return req;
  }
  reject("op", "is not an op: '" + op + "'");
}

void write_response_line(std::ostream& os, std::size_t index,
                         const EvalResponse& resp) {
  if (resp.rejected) {
    os << "{\"reply\":\"rejected\",\"index\":" << index
       << ",\"retry_after_ms\":" << resp.retry_after_ms << "}\n";
    return;
  }
  os << "{\"reply\":\"result\",\"index\":" << index << ",\"status\":\""
     << to_string(resp.result.status) << "\",\"provenance\":\""
     << to_string(resp.provenance)
     << "\",\"attempts\":" << resp.result.attempts;
  if (resp.result.ok()) {
    os << ",\"outcome\":";
    write_outcome(os, resp.result.outcome);
  } else {
    os << ",\"error_kind\":\"" << obs::json_escape(resp.result.error_kind)
       << "\",\"message\":\"" << obs::json_escape(resp.result.message)
       << "\"";
  }
  os << "}\n";
}

void write_stats_line(std::ostream& os, const EvalService::Stats& stats) {
  os << "{\"reply\":\"stats\",\"requests\":" << stats.requests
     << ",\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
     << ",\"inflight_joins\":" << stats.inflight_joins
     << ",\"rejections\":" << stats.rejections
     << ",\"persist_loads\":" << stats.persist_loads
     << ",\"persist_errors\":" << stats.persist_errors
     << ",\"verified_hits\":" << stats.verified_hits
     << ",\"queue_depth\":" << stats.queue_depth
     << ",\"cache_entries\":" << stats.cache.entries
     << ",\"cache_bytes\":" << stats.cache.bytes
     << ",\"cache_evictions\":" << stats.cache.evictions << "}\n";
}

void write_ok_line(std::ostream& os) { os << "{\"reply\":\"ok\"}\n"; }

void write_done_line(std::ostream& os, std::size_t results) {
  os << "{\"reply\":\"done\",\"results\":" << results << "}\n";
}

void write_error_line(std::ostream& os, const std::string& message) {
  os << "{\"reply\":\"error\",\"message\":\"" << obs::json_escape(message)
     << "\"}\n";
}

}  // namespace casa::svc
