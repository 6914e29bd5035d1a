#include "stages.hpp"

#include <algorithm>
#include <iterator>

#include "alloc/flow_graph.hpp"
#include "netflow/robust.hpp"
#include "server/admission.hpp"

namespace perfbench {

using namespace lera;

namespace {

/// The layers on the request path, named as in src/.
const char* const kLayers[] = {
    "workloads.parse",  "sched.list_schedule", "alloc.problem",
    "alloc.fingerprint", "alloc.flow_graph",   "netflow.validate",
    "netflow.solve",    "netflow.certify",     "alloc.extract",
    "alloc.replay",     "alloc.relayout",      "engine",
    "server"};

/// The robust-solve options allocate() derives from AllocatorOptions
/// (allocator.cpp): the configured solver leads the default fallback
/// chain, and `certify` picks the certification level.
netflow::SolveOptions robust_options(const alloc::AllocatorOptions& options) {
  netflow::SolveOptions solve = options.solve;
  if (solve.chain.empty()) {
    solve.chain = {options.solver, netflow::SolverKind::kNetworkSimplex,
                   netflow::SolverKind::kSuccessiveShortestPaths,
                   netflow::SolverKind::kCycleCanceling};
  }
  solve.certify = options.certify ? netflow::CertifyLevel::kOptimal
                                  : netflow::CertifyLevel::kFeasible;
  return solve;
}

}  // namespace

alloc::AllocationResult traced_allocate(const alloc::AllocationProblem& p,
                                        const alloc::AllocatorOptions& options,
                                        Tracer& tracer, int parent) {
  alloc::AllocationResult result;
  const std::string problem_issues = p.verify();
  if (!problem_issues.empty()) {
    result.message = "invalid problem: " + problem_issues;
    return result;
  }

  alloc::FlowGraphSpec spec;
  {
    ScopedSpan span(tracer, "alloc.flow_graph", parent);
    spec = alloc::build_flow_graph(p, options.style, options.quantizer);
  }
  tracer.count("alloc.flow_graph.arcs", spec.graph.num_arcs());
  tracer.count("alloc.flow_graph.nodes", spec.graph.num_nodes());

  const int solve_span = tracer.open("netflow.solve", parent);
  const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
      spec.graph, spec.s, spec.t, p.num_registers, robust_options(options),
      &result.solve_diagnostics);
  tracer.close(solve_span);
  // validate_instance and the certificate run inside the robust solve;
  // its own timers place them as children of the solve span.
  const netflow::SolveDiagnostics& diag = result.solve_diagnostics;
  const std::int64_t solve_start = tracer.start_ns(solve_span);
  tracer.add("netflow.validate", solve_span, solve_start,
             diag.perf.validate_ns);
  tracer.add("netflow.certify", solve_span,
             solve_start + tracer.duration_ns(solve_span) -
                 diag.perf.certify_ns,
             diag.perf.certify_ns);
  tracer.count("netflow.solve.solves", 1);
  tracer.count("netflow.solve.augmentations",
               static_cast<double>(diag.perf.augmentations));
  tracer.count("netflow.solve.pivots",
               static_cast<double>(diag.perf.simplex_pivots));
  if (!sol.optimal()) {
    result.message = "flow solve failed: " + diag.message;
    return result;
  }
  if (diag.attempts.size() == 1) tracer.count("netflow.solve.first_try", 1);

  std::string assignment_issues;
  {
    ScopedSpan span(tracer, "alloc.extract", parent);
    result.assignment = alloc::assignment_from_flow(p, spec, sol.arc_flow);
    assignment_issues = alloc::validate_assignment(p, result.assignment);
  }
  if (!assignment_issues.empty()) {
    result.message = "invalid assignment: " + assignment_issues;
    return result;
  }
  result.feasible = true;
  result.flow_cost = sol.cost;
  result.model_energy =
      spec.base_energy + options.quantizer.dequantize(sol.cost);
  {
    ScopedSpan span(tracer, "alloc.replay", parent);
    alloc::finish_result(p, result);
  }
  return result;
}

std::string diff_results(const alloc::AllocationResult& a,
                         const alloc::AllocationResult& b) {
  if (a.feasible != b.feasible) return "feasibility differs";
  if (a.degraded != b.degraded) return "degradation differs";
  if (a.assignment.size() != b.assignment.size()) {
    return "segment count differs";
  }
  for (std::size_t s = 0; s < a.assignment.size(); ++s) {
    if (a.assignment.location(s) != b.assignment.location(s)) {
      return "segment " + std::to_string(s) + " placed differently";
    }
  }
  if (a.flow_cost != b.flow_cost) return "flow cost differs";
  if (a.model_energy != b.model_energy) return "model energy differs";
  if (a.static_energy.total() != b.static_energy.total() ||
      a.activity_energy.total() != b.activity_energy.total()) {
    return "replayed energy differs";
  }
  if (a.stats.mem_accesses() != b.stats.mem_accesses() ||
      a.stats.reg_accesses() != b.stats.reg_accesses() ||
      a.stats.mem_locations != b.stats.mem_locations ||
      a.registers_used != b.registers_used) {
    return "access statistics differ";
  }
  return "";
}

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"throughput_rps", "req/s"},
      {"energy_vs_two_phase", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = [] {
    MetricList l;
    for (const char* layer : kLayers) {
      l.push_back({std::string(layer) + ".self_ms", "ms"});
      l.push_back({std::string(layer) + ".calls", "count"});
    }
    l.insert(l.end(), {
                          {"netflow.solve.augmentations", "count"},
                          {"netflow.solve.pivots", "count"},
                          {"netflow.solve.first_try_ratio", "ratio"},
                          {"alloc.flow_graph.arcs", "count"},
                          {"alloc.flow_graph.nodes", "count"},
                          {"engine.parallel_efficiency", "ratio"},
                          {"server.cache_hit_ratio", "ratio"},
                          {"server.cache_text_hits", "count"},
                          {"server.cache_hit_ms_p50", "ms"},
                          {"server.cache_first_occurrence_hits", "count"},
                          {"server.queue_wait_ms_p50", "ms"},
                          {"server.queue_wait_ms_p95", "ms"},
                          {"server.service_ms_p50", "ms"},
                          {"server.wire_ms_p50", "ms"},
                          {"server.capacity_rps", "req/s"},
                      });
    for (int r = 0; r < server::kNumRejectReasons; ++r) {
      l.push_back({"server.rejects." +
                       server::to_string(static_cast<server::RejectReason>(r)),
                   "count"});
    }
    l.insert(l.end(), {
                          {"server.generator_lag_ms_p90", "ms"},
                          {"trace.attributed_share", "ratio"},
                          {"trace.overhead_ratio", "ratio"},
                      });
    return l;
  }();
  return list;
}

void add_span_metrics(const Tracer& tracer, double requests,
                      std::map<std::string, double>& values) {
  if (requests <= 0) return;
  for (const auto& [name, layer] : tracer.layers()) {
    // Request roots that are not a layer (scale_cold's) hold only glue.
    if (std::find(std::begin(kLayers), std::end(kLayers), name) ==
        std::end(kLayers)) {
      continue;
    }
    values[name + ".self_ms"] = layer.self_ms / requests;
    values[name + ".calls"] = static_cast<double>(layer.calls) / requests;
  }
  const double solves = tracer.counter("netflow.solve.solves");
  if (solves > 0) {
    values["netflow.solve.augmentations"] =
        tracer.counter("netflow.solve.augmentations") / solves;
    values["netflow.solve.pivots"] =
        tracer.counter("netflow.solve.pivots") / solves;
    values["netflow.solve.first_try_ratio"] =
        tracer.counter("netflow.solve.first_try") / solves;
    values["alloc.flow_graph.arcs"] =
        tracer.counter("alloc.flow_graph.arcs") / solves;
    values["alloc.flow_graph.nodes"] =
        tracer.counter("alloc.flow_graph.nodes") / solves;
  }
}

void emit_metrics(const MetricList& list,
                  const std::map<std::string, double>& values,
                  RunResult& out) {
  for (const auto& [name, unit] : list) {
    const auto it = values.find(name);
    out.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const auto& entry : list) declared = declared || entry.first == name;
    if (!declared) out.fail("metric " + name + " is not declared");
  }
}

}  // namespace perfbench
