// serve: a seeded, closed-loop stream of casa_serve request lines from one
// client. Each line goes through svc::parse_request ->
// svc::EvalService::evaluate_batch -> svc::write_response_line, the path
// tools/casa_serve takes. Jobs are drawn Zipf-skewed from a fixed set over
// five programs; every run starts a fresh service whose cache budget is
// below the working set, so hits sit beside misses, evictions and
// recomputes.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "casa/support/rng.hpp"
#include "casa/workloads/workloads.hpp"
#include "checks.hpp"
#include "requests.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace casa;

constexpr const char* kPrograms[] = {"adpcm", "g721", "mpeg", "gsm", "jpeg"};
/// Requests per round.
constexpr std::size_t kRoundRequests = 40;
/// Result-cache budget: about a third of the working set's bytes.
constexpr std::size_t kCacheBytes = 64 * 1024;
/// Zipf exponent of the job popularity.
constexpr double kZipfExponent = 1.3;

/// Scratchpad / loop-cache sizes: the paper's, without g721's 1 kB, whose
/// CASA solve alone takes seconds.
std::vector<Bytes> sizes_for(const std::string& program) {
  std::vector<Bytes> sizes = workloads::paper_spm_sizes_for(program);
  if (program == "g721") sizes.pop_back();
  return sizes;
}

/// 2- and 4-way caches of the paper's cache size. There every miss costs
/// well under 200 ms; the direct-mapped points, whose branch and bound runs
/// up to seconds, are table1's.
std::vector<cachesim::CacheConfig> caches_for(const std::string& program) {
  cachesim::CacheConfig two = workloads::paper_cache_for(program);
  two.associativity = 2;
  cachesim::CacheConfig four = two;
  four.associativity = 4;
  return {two, four};
}

struct Entry {
  std::string program;
  Job job;
};

std::vector<Entry> universe() {
  std::vector<Entry> u;
  for (const char* p : kPrograms) {
    for (const cachesim::CacheConfig& c : caches_for(p)) {
      u.push_back({p, Job::cache_only_job(c)});
      for (const Bytes s : sizes_for(p)) {
        u.push_back({p, Job::casa_job(c, s)});
        u.push_back({p, Job::steinke_job(c, s)});
        u.push_back({p, Job::loopcache_job(c, s, 4)});
      }
    }
  }
  return u;
}

/// A generated request: its line and the jobs it must parse to.
struct Generated {
  std::string program;
  std::string line;
  std::vector<Job> jobs;
};

/// Seeded request stream: 80% evaluate, 15% batch of 2-4 jobs of one
/// program, 5% sweep of one cache over two sizes and one or two flows.
/// The stream seed fixes the jobs' popularity order and draws the
/// requests; the order seed shuffles each round's requests. Runs with
/// different order seeds thus see the same request mix, so their figures
/// differ by the code and the host, not by a lucky draw.
class Stream {
 public:
  Stream(const std::vector<Entry>& u, std::uint64_t stream_seed,
         std::uint64_t order_seed)
      : u_(u), rng_(stream_seed), order_(order_seed), rank_(u.size()) {
    for (std::size_t i = 0; i < u.size(); ++i) rank_[i] = i;
    for (std::size_t i = u.size(); i > 1; --i) {
      std::swap(rank_[i - 1], rank_[rng_.next_below(i)]);
    }
    double sum = 0;
    for (std::size_t k = 1; k <= u.size(); ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  std::vector<Generated> round(std::size_t requests) {
    std::vector<Generated> out;
    for (std::size_t i = 0; i < requests; ++i) out.push_back(next());
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[order_.next_below(i)]);
    }
    return out;
  }

 private:
  Generated next() {
    const double op = rng_.next_unit();
    const Entry& first = u_[pick()];
    Generated g{first.program, "", {first.job}};
    if (op < 0.8) {
      g.line = evaluate_line(first.program, first.job);
      return g;
    }
    if (op < 0.95) {
      const std::size_t want = 2 + rng_.next_below(3);
      for (int tries = 0; g.jobs.size() < want && tries < 64; ++tries) {
        const Entry& e = u_[pick()];
        if (e.program == first.program) g.jobs.push_back(e.job);
      }
      g.line = "{\"op\":\"batch\",\"workload\":\"" + first.program +
               "\",\"jobs\":[";
      for (std::size_t i = 0; i < g.jobs.size(); ++i) {
        if (i > 0) g.line += ",";
        g.line += job_json(g.jobs[i]);
      }
      g.line += "]}";
      return g;
    }
    // Sweep: the first job's cache, two of its program's sizes, one or two
    // flows; parse_request expands flows x sizes, cache-only once.
    std::vector<Bytes> sizes = sizes_for(first.program);
    const std::size_t a = rng_.next_below(sizes.size());
    std::size_t b = rng_.next_below(sizes.size() - 1);
    if (b >= a) ++b;
    const Bytes spm[2] = {sizes[a], sizes[b]};
    std::vector<Job::Kind> flows = {Job::Kind::kCasa, Job::Kind::kSteinke,
                                    Job::Kind::kLoopCache,
                                    Job::Kind::kCacheOnly};
    std::swap(flows[0], flows[rng_.next_below(4)]);
    std::swap(flows[1], flows[1 + rng_.next_below(3)]);
    flows.resize(1 + rng_.next_below(2));
    const cachesim::CacheConfig& c = first.job.cache;
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"workload\":\"" << first.program
       << "\",\"cache\":{\"size\":" << c.size << ",\"line_size\":"
       << c.line_size << ",\"associativity\":" << c.associativity
       << "},\"spm\":[" << spm[0] << "," << spm[1] << "],\"flows\":[";
    g.jobs.clear();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      os << (f ? "," : "") << "\"" << to_string(flows[f]) << "\"";
      for (const Bytes s : spm) {
        switch (flows[f]) {
          case Job::Kind::kCasa:
            g.jobs.push_back(Job::casa_job(c, s));
            break;
          case Job::Kind::kSteinke:
            g.jobs.push_back(Job::steinke_job(c, s));
            break;
          case Job::Kind::kLoopCache:
            g.jobs.push_back(Job::loopcache_job(c, s, 4));
            break;
          case Job::Kind::kCacheOnly:
            break;
        }
      }
      if (flows[f] == Job::Kind::kCacheOnly) {
        g.jobs.push_back(Job::cache_only_job(c));
      }
    }
    os << "]}";
    g.line = os.str();
    return g;
  }

  std::size_t pick() {
    const double u = rng_.next_unit();
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_[std::min(k, rank_.size() - 1)];
  }

  const std::vector<Entry>& u_;
  Rng rng_;
  Rng order_;
  std::vector<std::size_t> rank_;
  std::vector<double> cdf_;
};

/// The documented result-cache policy, written independently: entries cost
/// key + artifact bytes, a lookup refreshes recency, an insert evicts least
/// recent entries while over budget but always keeps the newest.
class ModelCache {
 public:
  explicit ModelCache(std::size_t budget) : budget_(budget) {}

  bool find(const std::string& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return true;
  }

  void insert(const std::string& key, std::size_t bytes) {
    lru_.push_front(key);
    map_[key] = Node{bytes, lru_.begin()};
    total_ += bytes;
    while (total_ > budget_ && lru_.size() > 1) {
      const auto victim = map_.find(lru_.back());
      total_ -= victim->second.bytes;
      map_.erase(victim);
      lru_.pop_back();
      ++evictions;
    }
  }

  std::uint64_t evictions = 0;

 private:
  struct Node {
    std::size_t bytes = 0;
    std::list<std::string>::iterator pos;
  };
  std::size_t budget_;
  std::size_t total_ = 0;
  std::list<std::string> lru_;
  std::unordered_map<std::string, Node> map_;
};

/// What the stream has seen of one key.
struct Seen {
  std::string program;
  Job job;
  report::Outcome outcome;
  std::string reply;  ///< its miss reply line, provenance stripped
};

class Serve final : public Workload {
 public:
  Serve(const Config& cfg, Checker& chk)
      : cfg_(cfg), chk_(chk), universe_(universe()) {}

  /// A fresh service whose Workbenches are already built: an empty batch
  /// makes the service profile a program without evaluating anything.
  struct Service final : State {
    std::unique_ptr<svc::EvalService> service;
  };

  std::unique_ptr<State> build() const override {
    svc::ServiceOptions so;
    so.cache_bytes = kCacheBytes;
    so.threads = cfg_.threads;
    so.exec_seed = cfg_.profile_seed;
    auto state = std::make_unique<Service>();
    state->service = std::make_unique<svc::EvalService>(so);
    for (const char* p : kPrograms) state->service->evaluate_batch(p, {});
    return state;
  }

  void use(std::unique_ptr<State> state) override {
    service_ = std::move(static_cast<Service&>(*state).service);
    stream_ = std::make_unique<Stream>(universe_, cfg_.stream_seed, cfg_.seed);
    model_ = std::make_unique<ModelCache>(kCacheBytes);
  }

  /// The service owns its Workbenches; the benchmark profiles its own
  /// copies (outside set-up) for the checks and the traced run.
  std::vector<const Bench*> benches() const override {
    std::vector<const Bench*> out;
    for (const auto& [name, b] : benches_) out.push_back(b.get());
    return out;
  }

  RoundOut round() override {
    RoundOut out;
    last_hits_.clear();
    stats_before_ = service_->stats();
    for (const Generated& g : stream_->round(kRoundRequests)) {
      const ServedRequest s = serve_line(*service_, g.line);
      out.attempted += s.responses.size();
      chk_.expect(s.request.workload == g.program && s.request.jobs == g.jobs,
                  "request does not parse back to its jobs: " + g.line);
      bool any_miss = false;
      std::vector<std::string> lines;
      std::istringstream reply(s.reply);
      for (std::string line; std::getline(reply, line);) lines.push_back(line);
      chk_.expect(lines.size() == s.responses.size() + 1,
                  "reply has the wrong number of lines: " + g.line);
      // The model's prediction: lookups in request order, misses inserted
      // after all lookups, repeated misses join the first.
      std::set<std::string> pending;
      std::vector<std::size_t> inserts;
      for (std::size_t i = 0; i < s.responses.size() && i < g.jobs.size();
           ++i) {
        const svc::EvalResponse& r = s.responses[i];
        const std::string key = g.program + " " + job_json(g.jobs[i]);
        svc::Provenance want = svc::Provenance::kMiss;
        if (model_->find(key)) {
          want = svc::Provenance::kHit;
          ++model_hits_;
        } else if (pending.count(key) != 0) {
          want = svc::Provenance::kInflightJoin;
          ++model_joins_;
        } else {
          pending.insert(key);
          inserts.push_back(i);
          ++model_misses_;
        }
        chk_.expect(r.provenance == want,
                    job_label(g.program, g.jobs[i]) + ": provenance " +
                        std::string(to_string(r.provenance)) +
                        ", the cache model expects " +
                        std::string(to_string(want)));
        if (!r.result.ok()) {
          ++out.failed;
          std::cerr << "perfbench: " << job_label(g.program, g.jobs[i])
                    << " failed: " << r.result.message << "\n";
          continue;
        }
        any_miss = any_miss || r.provenance == svc::Provenance::kMiss;
        const std::string stripped =
            i < lines.size() ? strip_provenance(lines[i]) : std::string();
        const auto [it, fresh] =
            seen_.try_emplace(key, Seen{g.program, g.jobs[i], r.result.outcome,
                                        stripped});
        if (!fresh) {
          chk_.expect(r.result.outcome == it->second.outcome &&
                          stripped == it->second.reply,
                      job_label(g.program, g.jobs[i]) +
                          ": reply differs from the key's miss reply");
        }
      }
      for (const std::size_t i : inserts) {
        const svc::EvalResponse& r = s.responses[i];
        if (r.result.ok()) {
          model_->insert(g.program + " " + job_json(g.jobs[i]),
                         r.key.size() + r.artifact.size());
        }
      }
      (any_miss ? miss_s_ : hit_s_).push_back(s.total_s());
      if (!any_miss) {
        // latency_ms is the latency of requests answered from the cache.
        out.op_s.push_back(s.total_s());
        out.op_kind.push_back(0);
        last_hits_.push_back(s);
      }
    }
    return out;
  }

  /// Twelve distinct jobs of the stream's set, seeded per traced round;
  /// the service figures come from the last stream round.
  void trace(TraceRound& tr) override {
    profile_benches();
    Rng rng(cfg_.seed * 7919ull + traced_++);
    std::set<std::size_t> picked;
    while (picked.size() < 12) picked.insert(rng.next_below(universe_.size()));
    std::vector<TracedJob> sample;
    for (const std::size_t i : picked) {
      const Bench* b = benches_.at(universe_[i].program).get();
      sample.push_back({b, universe_[i].job, b->wb->evaluate(universe_[i].job)});
    }
    trace_sample(sample, /*planner_path=*/false, cfg_, tr, chk_);
    std::vector<double> parse, lookup, render;
    for (const ServedRequest& s : last_hits_) {
      parse.push_back(1e6 * s.parse_s);
      lookup.push_back(1e6 * s.evaluate_s);
      render.push_back(1e6 * s.render_s);
    }
    const svc::EvalService::Stats now = service_->stats();
    tr.parse_us = median(parse);
    tr.lookup_us = median(lookup);
    tr.render_us = median(render);
    tr.hits = static_cast<double>(now.hits - stats_before_.hits);
    tr.misses = static_cast<double>(now.misses - stats_before_.misses);
    tr.evictions = static_cast<double>(now.cache.evictions -
                                       stats_before_.cache.evictions);
  }

  void check() override {
    profile_benches();
    for (const auto& [key, seen] : seen_) {
      check_outcome(*benches_.at(seen.program), seen.job, seen.outcome, chk_);
    }
    const svc::EvalService::Stats st = service_->stats();
    chk_.expect(st.misses == model_misses_ && st.hits == model_hits_ &&
                    st.inflight_joins == model_joins_ &&
                    st.cache.evictions == model_->evictions,
                "service hit/miss/join/eviction counts differ from the cache "
                "model's");
    // Cache-only jobs seen: one against the reference cache model.
    std::vector<const Seen*> cache_only;
    for (const auto& [key, seen] : seen_) {
      if (seen.job.kind == Job::Kind::kCacheOnly) cache_only.push_back(&seen);
    }
    if (!cache_only.empty()) {
      Rng rng(cfg_.seed ^ 0x5e7eull);
      const Seen* s = cache_only[rng.next_below(cache_only.size())];
      check_reference_cache(*benches_.at(s->program), s->job, s->outcome, chk_);
    }
    const std::uint64_t requests = hit_s_.size() + miss_s_.size();
    std::cout << "serve: requests " << requests << ", jobs "
              << model_hits_ + model_misses_ + model_joins_ << " (hits "
              << model_hits_ << ", misses " << model_misses_ << ", joins "
              << model_joins_ << "), distinct keys " << seen_.size()
              << ", recomputes " << model_misses_ - seen_.size()
              << ", evictions " << model_->evictions << "\n"
              << "serve: hit requests " << hit_s_.size() << ": p50 "
              << 1e6 * median(hit_s_) << " us, p99 "
              << 1e6 * quantile(hit_s_, 0.99) << " us; miss requests "
              << miss_s_.size() << ": p50 " << 1e3 * median(miss_s_)
              << " ms\n";
  }

 private:
  void profile_benches() {
    if (!benches_.empty()) return;
    for (const char* p : kPrograms) benches_[p] = make_bench(p, cfg_);
  }

  const Config& cfg_;
  Checker& chk_;
  const std::vector<Entry> universe_;
  std::unique_ptr<svc::EvalService> service_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<ModelCache> model_;
  std::map<std::string, std::unique_ptr<Bench>> benches_;
  std::map<std::string, Seen> seen_;
  std::vector<double> hit_s_;
  std::vector<double> miss_s_;
  std::vector<ServedRequest> last_hits_;
  svc::EvalService::Stats stats_before_;
  std::uint64_t model_hits_ = 0;
  std::uint64_t model_misses_ = 0;
  std::uint64_t model_joins_ = 0;
  std::uint64_t traced_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Config& cfg, Checker& chk) {
  return std::make_unique<Serve>(cfg, chk);
}

}  // namespace perfbench
