// casa_serve request lines: rendering jobs as protocol JSON and serving one
// line the way tools/casa_serve does (parse_request -> evaluate_batch ->
// write_response_line per job -> write_done_line), timing each step.
#pragma once

#include <string>
#include <vector>

#include "casa/svc/protocol.hpp"
#include "casa/svc/service.hpp"
#include "common.hpp"

namespace perfbench {

/// `{"kind":...,"cache":{...},"size":N,"max_regions":N}`; CASA options are
/// left at their defaults.
std::string job_json(const Job& job);

/// `{"op":"evaluate","workload":W,"job":J}`.
std::string evaluate_line(const std::string& workload, const Job& job);

/// A reply line with its provenance tag and result index blanked, so a
/// hit's reply can be compared with the miss reply of the same key.
std::string strip_provenance(const std::string& reply);

struct ServedRequest {
  casa::svc::Request request;
  std::vector<casa::svc::EvalResponse> responses;
  std::string reply;  ///< every response line plus the done line
  double parse_s = 0;
  double evaluate_s = 0;
  double render_s = 0;
  double total_s() const { return parse_s + evaluate_s + render_s; }
};

/// Serves one evaluate / batch / sweep request line.
ServedRequest serve_line(casa::svc::EvalService& service,
                         const std::string& line);

}  // namespace perfbench
