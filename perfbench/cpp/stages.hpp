#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "common.hpp"
#include "trace.hpp"

/// \file stages.hpp
/// The traced replay of alloc::allocate() through the library's public
/// stage functions, the comparison that proves the replay computed the
/// same answer, and the fixed lists of metric names every run prints.

namespace perfbench {

/// allocate(p, options) stage by stage, one child span of \p parent per
/// stage: alloc.flow_graph (build_flow_graph), netflow.solve
/// (solve_st_flow_robust, with the robust layer's own validate and
/// certify timers as its netflow.validate / netflow.certify children),
/// alloc.extract (assignment_from_flow + validate_assignment) and
/// alloc.replay (finish_result). Uses the fallback chain and
/// certification level allocate() derives from \p options. A failed
/// flow solve comes back infeasible; the caller counts it as failed.
lera::alloc::AllocationResult traced_allocate(
    const lera::alloc::AllocationProblem& p,
    const lera::alloc::AllocatorOptions& options, Tracer& tracer, int parent);

/// "" when \p a and \p b carry the same answer bit for bit (feasibility,
/// assignment, flow cost, model energy, replayed energies and stats);
/// otherwise the first difference.
std::string diff_results(const lera::alloc::AllocationResult& a,
                         const lera::alloc::AllocationResult& b);

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// The end-to-end metrics every untraced run reports, with units.
const MetricList& end_to_end_metrics();
/// The per-layer metrics every traced run reports, with units. Layers a
/// workload never calls report 0.
const MetricList& per_layer_metrics();

/// Span-derived per-layer values: <layer>.self_ms and <layer>.calls as
/// means per request, plus the solver and flow-graph counters.
void add_span_metrics(const Tracer& tracer, double requests,
                      std::map<std::string, double>& values);

/// Appends every name of \p list to \p out, taking values from
/// \p values (0 when absent); fails the run on a value not in the list.
void emit_metrics(const MetricList& list,
                  const std::map<std::string, double>& values,
                  RunResult& out);

}  // namespace perfbench
