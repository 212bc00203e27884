#include "requests.hpp"

#include <sstream>

namespace perfbench {

std::string job_json(const Job& job) {
  std::ostringstream os;
  os << "{\"kind\":\"" << to_string(job.kind) << "\",\"cache\":{\"size\":"
     << job.cache.size << ",\"line_size\":" << job.cache.line_size
     << ",\"associativity\":" << job.cache.associativity << ",\"policy\":\""
     << casa::cachesim::to_string(job.cache.policy) << "\"},\"size\":"
     << job.size << ",\"max_regions\":" << job.max_regions << "}";
  return os.str();
}

std::string evaluate_line(const std::string& workload, const Job& job) {
  return "{\"op\":\"evaluate\",\"workload\":\"" + workload +
         "\",\"job\":" + job_json(job) + "}";
}

std::string strip_provenance(const std::string& reply) {
  std::string out = reply;
  for (const std::string tag : {"\"provenance\":\"", "\"index\":"}) {
    const std::size_t at = out.find(tag);
    if (at == std::string::npos) continue;
    const std::size_t from = at + tag.size();
    const std::size_t to = out.find_first_of(",}", from);
    out.erase(from, to - from);
  }
  return out;
}

ServedRequest serve_line(casa::svc::EvalService& service,
                         const std::string& line) {
  ServedRequest s;
  const Clock::time_point t0 = Clock::now();
  s.request = casa::svc::parse_request(line);
  const Clock::time_point t1 = Clock::now();
  s.responses = service.evaluate_batch(s.request.workload, s.request.jobs);
  const Clock::time_point t2 = Clock::now();
  std::ostringstream os;
  for (std::size_t i = 0; i < s.responses.size(); ++i) {
    casa::svc::write_response_line(os, i, s.responses[i]);
  }
  casa::svc::write_done_line(os, s.responses.size());
  s.reply = std::move(os).str();
  const Clock::time_point t3 = Clock::now();
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  s.parse_s = secs(t0, t1);
  s.evaluate_s = secs(t1, t2);
  s.render_s = secs(t2, t3);
  return s;
}

}  // namespace perfbench
