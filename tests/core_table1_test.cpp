// The paper's Table 1 through the production CASA engine.
//
// The 11 CASA points of Table 1 — adpcm / 128 B, g721 / 1 kB and
// mpeg / 2 kB direct-mapped I-caches, each at its paper scratchpad sizes —
// are built once, exactly as Workbench builds them, and solved by the
// allocator's default engine. Each chosen object set must equal the one
// recorded from the engines that produced Table 1 before the Lagrangian
// bound existed (the generic ILP for adpcm, the specialized branch & bound
// for g721 and mpeg): the stronger bound may only shrink the search, never
// move the answer. g721 / 1 kB, the slowest point, also carries a
// deterministic node ceiling.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "casa/conflict/graph_builder.hpp"
#include "casa/core/allocator.hpp"
#include "casa/core/casa_branch_bound.hpp"
#include "casa/energy/energy_table.hpp"
#include "casa/report/workbench.hpp"
#include "casa/traceopt/layout.hpp"
#include "casa/traceopt/trace_formation.hpp"
#include "casa/workloads/workloads.hpp"

namespace casa {
namespace {

struct Point {
  const char* program;
  Bytes spm;
  std::vector<std::uint32_t> on_spm;  ///< memory objects placed on the SPM
};

const std::vector<Point>& table1_points() {
  static const std::vector<Point> points = {
      {"adpcm", 64, {3, 8, 13, 26}},
      {"adpcm", 128, {6, 8, 9, 22, 25, 27}},
      {"adpcm", 256, {0, 1, 2, 4, 22, 25, 27}},
      {"g721", 128, {5, 9, 24, 43, 71, 72, 73, 74}},
      {"g721", 256, {8, 9, 21, 33, 35, 38, 52, 54, 55, 56, 57, 58}},
      {"g721", 512, {1, 7, 8, 9, 10, 15, 16, 33, 34, 37, 52, 53, 54, 56, 58}},
      {"g721",
       1024,
       {1,  2,  4,  5,  6,  8,  9,  10, 11, 12, 13, 14,
        15, 16, 28, 33, 34, 35, 52, 53, 54, 55, 56, 58}},
      {"mpeg", 128, {93, 97, 228, 229, 230}},
      {"mpeg", 256, {32, 54, 55, 64, 69, 70, 141, 143}},
      {"mpeg", 512, {37, 38, 39, 41, 48, 49, 50, 55, 93}},
      {"mpeg",
       1024,
       {5, 22, 26, 27, 28, 36, 40, 47, 48, 53, 54, 81, 82, 83, 84, 85}},
  };
  return points;
}

/// One Table-1 CASA problem. `CasaProblem` points at the conflict graph, so
/// both live together on the heap.
struct Instance {
  conflict::ConflictGraph graph;
  core::CasaProblem problem;
};

/// Builds the problem the way Workbench::prepare_casa does: the
/// workbench's profile, traces capped at the scratchpad size, the full
/// layout and the paper cache of the program.
std::unique_ptr<Instance> build(const report::Workbench& wb,
                                const prog::Program& program,
                                const std::string& name, Bytes spm) {
  const cachesim::CacheConfig cache = workloads::paper_cache_for(name);
  traceopt::TraceFormationOptions topt;
  topt.cache_line_size = cache.line_size;
  topt.max_trace_size = std::max<Bytes>(spm, cache.line_size);
  topt.fuse_ratio = report::WorkbenchOptions{}.fuse_ratio;
  const traceopt::TraceProgram tp =
      traceopt::form_traces(program, wb.execution().profile, topt);
  const traceopt::Layout layout = traceopt::layout_all(tp);
  conflict::BuildOptions bopt;
  bopt.cache = cache;
  auto inst = std::make_unique<Instance>(Instance{
      conflict::build_conflict_graph(tp, layout, wb.execution().walk, bopt),
      core::CasaProblem{}});
  inst->problem = core::CasaProblem::from(
      tp, inst->graph, energy::EnergyTable::build(cache, spm, 0, 0), spm);
  return inst;
}

/// All 11 problems, built on first use and shared by every test.
const std::vector<std::unique_ptr<Instance>>& instances() {
  static const auto built = [] {
    std::vector<std::unique_ptr<Instance>> out;
    std::string name;
    std::unique_ptr<prog::Program> program;
    std::unique_ptr<report::Workbench> wb;
    for (const Point& pt : table1_points()) {
      if (name != pt.program) {
        name = pt.program;
        wb.reset();
        program = std::make_unique<prog::Program>(workloads::by_name(name));
        wb = std::make_unique<report::Workbench>(*program);
      }
      out.push_back(build(*wb, *program, name, pt.spm));
    }
    return out;
  }();
  return built;
}

std::vector<std::uint32_t> placed(const std::vector<bool>& on_spm) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < on_spm.size(); ++i) {
    if (on_spm[i]) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

TEST(Table1Casa, DefaultEngineKeepsTheRecordedChosenSets) {
  const auto& points = table1_points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::AllocationResult r =
        core::CasaAllocator().allocate(instances()[i]->problem);
    const std::string label =
        std::string(points[i].program) + " / " +
        std::to_string(points[i].spm) + " B";
    EXPECT_EQ(r.engine_used, core::CasaEngine::kSpecializedBnB) << label;
    EXPECT_TRUE(r.exact) << label;
    EXPECT_EQ(placed(r.on_spm), points[i].on_spm) << label;
  }
}

TEST(Table1Casa, G721OneKilobyteStaysUnderTheNodeCeiling) {
  // 972,637 nodes with bounds (a) and (b) alone; the Lagrangian bound
  // brings the same proof under 60,000.
  const auto& points = table1_points();
  std::size_t g721_1k = 0;
  while (std::string(points[g721_1k].program) != "g721" ||
         points[g721_1k].spm != 1024) {
    ++g721_1k;
  }
  const core::SavingsProblem sp =
      core::presolve(instances()[g721_1k]->problem);
  const core::CasaBranchBoundResult r = core::CasaBranchBound().solve(sp);
  ASSERT_TRUE(r.exact);
  EXPECT_LE(r.nodes, 60'000u);
  EXPECT_GT(r.lagrangian_prunes, 0u);
  EXPECT_EQ(placed(core::expand_choice(instances()[g721_1k]->problem, sp,
                                       r.chosen)),
            points[g721_1k].on_spm);
}

TEST(Table1Casa, SpecializedAndGenericEnginesAgreeOnAdpcm) {
  // The adpcm points are small enough for the paper-literal generic ILP.
  const auto& points = table1_points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (std::string(points[i].program) != "adpcm") continue;
    core::CasaOptions generic;
    generic.engine = core::CasaEngine::kGenericIlp;
    const core::AllocationResult g =
        core::CasaAllocator(generic).allocate(instances()[i]->problem);
    const core::AllocationResult s =
        core::CasaAllocator().allocate(instances()[i]->problem);
    ASSERT_TRUE(g.exact);
    EXPECT_NEAR(s.predicted_saving, g.predicted_saving, 1e-6)
        << "adpcm / " << points[i].spm << " B";
  }
}

}  // namespace
}  // namespace casa
