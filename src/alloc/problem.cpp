#include "alloc/problem.hpp"

#include <sstream>

#include "ir/eval.hpp"

namespace lera::alloc {

int AllocationProblem::max_density() const {
  return lifetime::max_density(density);
}

std::vector<int> AllocationProblem::first_segment_of_var() const {
  std::vector<int> first(lifetimes.size(), -1);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const int var = segments[s].var;
    if (first[static_cast<std::size_t>(var)] < 0) {
      first[static_cast<std::size_t>(var)] = static_cast<int>(s);
    }
  }
  return first;
}

void AllocationProblem::refresh_density() {
  density = lifetime::density_profile(lifetimes, num_steps);
  is_max_density = lifetime::max_density_boundaries(density);
}

std::string AllocationProblem::verify() const {
  std::ostringstream os;
  if (activity.size() != lifetimes.size()) {
    os << "activity matrix size " << activity.size() << " != #lifetimes "
       << lifetimes.size() << "; ";
  }
  if (num_registers < 0) os << "negative register count; ";
  int prev_var = -1;
  int prev_index = -1;
  int prev_end = 0;
  for (const lifetime::Segment& s : segments) {
    if (s.var < 0 || static_cast<std::size_t>(s.var) >= lifetimes.size()) {
      os << "segment references unknown variable " << s.var << "; ";
      continue;
    }
    if (s.var == prev_var) {
      if (s.index != prev_index + 1) {
        os << "segments of var " << s.var << " not consecutive; ";
      }
      if (s.start != prev_end) {
        os << "segments of var " << s.var << " not contiguous; ";
      }
    } else if (s.var < prev_var) {
      os << "segments not sorted by variable; ";
    } else if (s.index != 0) {
      os << "first segment of var " << s.var << " has index " << s.index
         << "; ";
    }
    prev_var = s.var;
    prev_index = s.index;
    prev_end = s.end;
  }
  return os.str();
}

AllocationProblem make_problem(std::vector<lifetime::Lifetime> lifetimes,
                               int num_steps, int num_registers,
                               const energy::EnergyParams& params,
                               energy::ActivityMatrix activity,
                               const lifetime::SplitOptions& split) {
  AllocationProblem p;
  p.lifetimes = std::move(lifetimes);
  p.num_steps = num_steps;
  p.num_registers = num_registers;
  p.params = params;
  p.activity = std::move(activity);
  p.access = split.access;
  p.segments = lifetime::build_segments(p.lifetimes, num_steps, split);
  p.refresh_density();
  assert(p.verify().empty());
  return p;
}

namespace {

/// Activities measured by evaluating \p bb on every input row, with the
/// per-ValueId trace projected onto the allocation variables.
energy::ActivityMatrix measure_activity(
    const ir::BasicBlock& bb,
    const std::vector<lifetime::Lifetime>& lifetimes,
    const std::vector<std::vector<std::int64_t>>& trace_inputs) {
  std::vector<int> widths;
  widths.reserve(lifetimes.size());
  for (const lifetime::Lifetime& lt : lifetimes) {
    widths.push_back(lt.width);
  }
  std::vector<std::vector<std::int64_t>> var_trace;
  var_trace.reserve(trace_inputs.size());
  for (const std::vector<std::int64_t>& inputs : trace_inputs) {
    const std::vector<std::int64_t> values = ir::evaluate(bb, inputs);
    std::vector<std::int64_t>& row = var_trace.emplace_back();
    row.reserve(lifetimes.size());
    for (const lifetime::Lifetime& lt : lifetimes) {
      row.push_back(values[static_cast<std::size_t>(lt.value)]);
    }
  }
  return energy::ActivityMatrix::from_trace(var_trace, widths);
}

}  // namespace

AllocationProblem make_problem_from_block(
    const ir::BasicBlock& bb, const sched::Schedule& sched,
    int num_registers, const energy::EnergyParams& params,
    const std::vector<std::vector<std::int64_t>>& trace_inputs,
    const lifetime::SplitOptions& split,
    const lifetime::LifetimeOptions& lifetime_opts) {
  std::vector<lifetime::Lifetime> lifetimes =
      lifetime::analyze(bb, sched, lifetime_opts);

  energy::ActivityMatrix activity =
      trace_inputs.empty()
          ? energy::ActivityMatrix(lifetimes.size())
          : measure_activity(bb, lifetimes, trace_inputs);

  return make_problem(std::move(lifetimes), sched.length(bb), num_registers,
                      params, std::move(activity), split);
}

}  // namespace lera::alloc
