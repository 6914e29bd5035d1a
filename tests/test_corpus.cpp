#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "alloc/allocator.hpp"
#include "ir/parser.hpp"
#include "sched/schedule.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/problem_io.hpp"

/// The data/ corpus: every shipped .lt instance must parse, allocate
/// and reproduce the behaviour of its programmatic twin (where one
/// exists). Failing here means the on-disk examples drifted from the
/// library.

namespace lera::workloads {
namespace {

/// Reads data/<name> from the source tree; LERA_DATA_DIR is the absolute
/// data directory (tests/CMakeLists.txt), so any build directory works.
std::string corpus(const std::string& name) {
  const std::string path = std::string(LERA_DATA_DIR) + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Corpus, AllInstancesParseAndAllocate) {
  for (const char* name :
       {"figure3.lt", "figure4.lt", "figure1c.lt", "spill_demo.lt"}) {
    const std::string text = corpus(name);
    if (text.empty()) continue;
    const ProblemParseResult parsed = parse_problem(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
    const alloc::AllocationResult r = alloc::allocate(*parsed.problem);
    EXPECT_TRUE(r.feasible) << name << ": " << r.message;
    EXPECT_TRUE(
        alloc::validate_assignment(*parsed.problem, r.assignment).empty())
        << name;
  }
}

TEST(Corpus, Figure3FileMatchesProgrammaticInstance) {
  const std::string text = corpus("figure3.lt");
  if (text.empty()) return;
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  const ProblemParseResult parsed = parse_problem(text, params);
  ASSERT_TRUE(parsed.ok());
  const alloc::AllocationResult from_file = alloc::allocate(*parsed.problem);
  const alloc::AllocationResult programmatic =
      alloc::allocate(figure3_problem(params));
  ASSERT_TRUE(from_file.feasible && programmatic.feasible);
  EXPECT_NEAR(from_file.activity_energy.total(),
              programmatic.activity_energy.total(), 1e-9);
}

TEST(Corpus, Figure1cFileHasForcedSegments) {
  const std::string text = corpus("figure1c.lt");
  if (text.empty()) return;
  const ProblemParseResult parsed = parse_problem(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  int forced = 0;
  for (const auto& seg : parsed.problem->segments) {
    forced += seg.forced_register ? 1 : 0;
  }
  // b, e (both halves) and c's first segment — as in the paper's figure.
  EXPECT_GE(forced, 3);
}

TEST(Corpus, KernelFileParsesSchedulesAndAllocates) {
  const std::string text = corpus("complex_mac.lera");
  if (text.empty()) return;
  const ir::ParseResult parsed = ir::parse_block(text, "complex_mac");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ir::BasicBlock& bb = *parsed.block;
  EXPECT_TRUE(bb.verify().empty());
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  const alloc::AllocationProblem p =
      alloc::make_problem_from_block(bb, s, 4, params);
  const alloc::AllocationResult r = alloc::allocate(p);
  EXPECT_TRUE(r.feasible) << r.message;
}

}  // namespace
}  // namespace lera::workloads
