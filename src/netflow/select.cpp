#include "netflow/select.hpp"

#include "netflow/graph.hpp"

namespace lera::netflow {

namespace {

/// Calibrated crossover points (bench_solvers --smoke, BENCH_pr7.json,
/// single-core Release; see DESIGN.md for the measured curves).
///
/// The measured picture is simpler than the classical "SSP for small
/// supply" folklore: with negative costs present, SSP pays an O(n*m)
/// Bellman-Ford (or a saturation wave) before its first augmentation,
/// which buried it on every benched class (6.5 s vs simplex's 0.2 s on
/// 32k arcs even at supply 16). Simplex's candidate-list pivoting won
/// everywhere except the large sparse negative-cost classes with small
/// supply, where cost scaling's phase structure took over (2.2 s vs
/// 3.5 s at 128k arcs / supply 32). The selector therefore never picks
/// SSP; it stays the allocator's default solver (AllocatorOptions) and
/// a member of the default fallback chain.

/// Below this arc count the simplex's per-pivot costs are tiny and its
/// scratch arrays stay cache-resident; nothing else was ever close on
/// the 12..4k-arc allocation shapes.
constexpr std::int64_t kSmallInstanceArcs = 4096;

/// Cost scaling only overtakes simplex on genuinely large graphs: at
/// 32k arcs simplex still won every supply level benched, at 128k arcs
/// cost scaling won the small-supply classes.
constexpr std::int64_t kCostScalingMinArcs = 65536;

/// ...and only while the supply stays below ~one unit per sixteen
/// nodes: at 128k arcs cost scaling won supply 32 and 512 (2.2 s and
/// 3.9 s vs simplex's 3.5 s and 5.2 s) but lost supply 2048 (14.6 s vs
/// 11.9 s), i.e. the crossover sits between n/64 and n/16.
constexpr Flow kCostScalingSupplyPerNodeNum = 1;
constexpr Flow kCostScalingSupplyPerNodeDen = 16;

}  // namespace

std::string InstanceShape::summary() const {
  std::string out = "nodes=" + std::to_string(nodes);
  out += " arcs=" + std::to_string(arcs);
  out += " arcs_per_node=" + std::to_string(arcs_per_node);
  out += " supply_volume=" + std::to_string(supply_volume);
  out += " supply_nodes=" + std::to_string(supply_nodes);
  out += negative_costs ? " negative_costs=1" : " negative_costs=0";
  return out;
}

InstanceShape measure_shape(const Graph& g) {
  InstanceShape shape;
  shape.nodes = g.num_nodes();
  shape.arcs = g.num_arcs();
  shape.arcs_per_node =
      shape.nodes > 0
          ? static_cast<double>(shape.arcs) / static_cast<double>(shape.nodes)
          : 0.0;
  for (NodeId v = 0; v < shape.nodes; ++v) {
    const Flow b = g.supply(v);
    if (b != 0) ++shape.supply_nodes;
    if (b > 0) shape.supply_volume += b;
  }
  shape.negative_costs = g.has_negative_costs();
  return shape;
}

SolverKind select_solver(const InstanceShape& shape) {
  // Small instances: simplex constants win and nothing else matters.
  if (shape.arcs <= kSmallInstanceArcs) return SolverKind::kNetworkSimplex;

  // Large sparse negative-cost instances with little supply to route:
  // cost scaling's eps-phases beat the simplex's pivot stream, and SSP
  // is out of the running entirely (its Bellman-Ford prologue alone
  // outweighs a full cost-scaling run).
  const Flow cs_limit =
      (static_cast<Flow>(shape.nodes) * kCostScalingSupplyPerNodeNum) /
      kCostScalingSupplyPerNodeDen;
  if (shape.negative_costs && shape.arcs >= kCostScalingMinArcs &&
      shape.supply_volume < cs_limit) {
    return SolverKind::kCostScaling;
  }

  // Everything else: block-search simplex is the measured all-rounder.
  return SolverKind::kNetworkSimplex;
}

}  // namespace lera::netflow
