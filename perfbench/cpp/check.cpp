#include "check.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "alloc/two_phase.hpp"
#include "audit/audit.hpp"
#include "energy/voltage.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_examples.hpp"

namespace perfbench {

using namespace lera;

std::string check_answer(const alloc::AllocationProblem& p,
                         const alloc::AllocationResult& r,
                         const alloc::AllocatorOptions& options) {
  if (!r.feasible) return "no answer: " + r.message;
  if (r.degraded) return "degraded: " + r.message;

  audit::AuditOptions audit_options;
  audit_options.level = audit::AuditLevel::kFullCost;
  const audit::AuditReport report = audit::audit_result(p, r, audit_options);
  if (!report.clean()) return report.summary();

  const netflow::SolverKind used = r.solve_diagnostics.solver_used;
  const netflow::SolverKind other =
      used == netflow::SolverKind::kNetworkSimplex
          ? netflow::SolverKind::kSuccessiveShortestPaths
          : netflow::SolverKind::kNetworkSimplex;
  alloc::AllocatorOptions second = options;
  second.solver = other;
  second.solve = netflow::SolveOptions{};
  second.solve.chain = {other};
  second.fallback_to_baseline = false;
  const alloc::AllocationResult reference = alloc::allocate(p, second);
  if (!reference.feasible) {
    return "second backend " + netflow::to_string(other) +
           " found no answer: " + reference.message;
  }
  // Arc costs are quantised, so two optimal answers may differ in their
  // replayed energy by up to half a tick per arc on their flow paths.
  const double slack =
      options.quantizer.resolution() *
      static_cast<double>(2 * (p.segments.size() + p.num_registers + 1));
  if (std::fabs(r.energy(p) - reference.energy(p)) > slack) {
    std::ostringstream os;
    os.precision(17);
    os << "energy " << r.energy(p) << " differs from "
       << netflow::to_string(other) << "'s " << reference.energy(p);
    return os.str();
  }
  // Answers that came out of a flow solve also carry the exact integer
  // objective; a second optimal backend must reach the same value.
  if (!r.solve_diagnostics.attempts.empty() &&
      r.flow_cost != reference.flow_cost) {
    return "flow cost " + std::to_string(r.flow_cost) + " differs from " +
           netflow::to_string(other) + "'s " +
           std::to_string(reference.flow_cost);
  }
  return "";
}

double two_phase_energy(const alloc::AllocationProblem& p) {
  const alloc::AllocationResult r = alloc::two_phase_allocate(p);
  return r.feasible ? r.energy(p) : 0.0;
}

bool corrupt_result(alloc::AllocationResult& r) {
  for (std::size_t s = 0; s < r.assignment.size(); ++s) {
    if (r.assignment.in_register(s)) {
      r.assignment.assign_memory(s);
      return true;
    }
  }
  return false;
}

namespace {

/// The numbers the paper's examples produce, computed by the library
/// under test (the expectations themselves come from the file).
std::map<std::string, double> paper_numbers() {
  std::map<std::string, double> got;

  // Figure 3: simultaneous allocation against partition-after-allocation.
  for (auto model : {energy::RegisterModel::kStatic,
                     energy::RegisterModel::kActivity}) {
    energy::EnergyParams params;
    params.register_model = model;
    const alloc::AllocationProblem p = workloads::figure3_problem(params);
    const alloc::AllocationResult ours = alloc::allocate(p);
    const alloc::AllocationResult baseline = alloc::two_phase_allocate(p);
    const std::string prefix =
        model == energy::RegisterModel::kStatic ? "fig3.static."
                                                : "fig3.activity.";
    if (ours.feasible && baseline.feasible) {
      got[prefix + "improvement"] = baseline.energy(p) / ours.energy(p);
      got[prefix + "mem_accesses.two_phase"] = baseline.stats.mem_accesses();
      got[prefix + "mem_accesses.lera"] = ours.stats.mem_accesses();
    }
  }
  {
    // The previous-research binding keeps both chains in registers.
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    alloc::AllocationProblem p = workloads::figure3_problem(params);
    p.num_registers = 2;
    const alloc::AllocationResult r = alloc::two_phase_allocate(p);
    if (r.feasible) {
      got["fig3.baseline_switching"] =
          r.activity_energy.total() / p.params.reg_full_swing;
    }
  }

  // Figure 4: two-phase on the graph of [8] against the density-region
  // graph with the long-lived f split.
  {
    workloads::Figure4Options opts;
    opts.params.register_model = energy::RegisterModel::kActivity;
    const alloc::AllocationProblem p = workloads::figure4_problem(opts);
    opts.split_f = true;
    const alloc::AllocationProblem split = workloads::figure4_problem(opts);
    const alloc::AllocationResult a = alloc::two_phase_allocate(p);
    const alloc::AllocationResult c = alloc::allocate(split);
    if (a.feasible && c.feasible) {
      got["fig4.improvement"] = a.energy(p) / c.energy(split);
    }
  }

  // Table 1: the radar proxy with memory at f, f/2 and f/4.
  {
    const ir::BasicBlock bb = workloads::make_rsp(6);
    const sched::Schedule schedule = sched::list_schedule(bb, {2, 2});
    const auto inputs = workloads::random_inputs(bb, 64, 2026);
    std::map<int, double> memory_energy;
    for (int period : {1, 2, 4}) {
      energy::EnergyParams params;
      params.register_model = energy::RegisterModel::kActivity;
      params.v_mem = energy::voltage_for_slowdown(period);
      lifetime::SplitOptions split;
      split.access.period = period;
      const alloc::AllocationProblem p = alloc::make_problem_from_block(
          bb, schedule, 8, params, inputs, split);
      const alloc::AllocationResult r = alloc::allocate(p);
      if (r.feasible) memory_energy[period] = r.static_energy.memory;
    }
    if (memory_energy.size() == 3 && memory_energy[4] > 0) {
      got["tab1.emem.f"] = memory_energy[1] / memory_energy[4];
      got["tab1.emem.f2"] = memory_energy[2] / memory_energy[4];
    }
  }
  return got;
}

}  // namespace

std::vector<std::string> check_paper(const std::string& path, int& checked) {
  std::vector<std::string> mismatches;
  checked = 0;
  std::ifstream in(path);
  if (!in) {
    mismatches.push_back("cannot read paper expectations " + path);
    return mismatches;
  }
  const std::map<std::string, double> got = paper_numbers();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    double expected = 0;
    double tolerance = 0;
    if (!(fields >> name >> expected >> tolerance)) {
      mismatches.push_back("malformed expectation: " + line);
      continue;
    }
    ++checked;
    const auto it = got.find(name);
    if (it == got.end()) {
      mismatches.push_back("paper " + name + ": not produced");
    } else if (std::fabs(it->second - expected) > tolerance) {
      std::ostringstream os;
      os << "paper " << name << ": got " << it->second << ", expected "
         << expected << " +- " << tolerance;
      mismatches.push_back(os.str());
    }
  }
  if (checked == 0) mismatches.push_back("no paper expectations in " + path);
  return mismatches;
}

}  // namespace perfbench
