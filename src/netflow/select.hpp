#pragma once

#include <cstdint>
#include <string>

#include "netflow/solution.hpp"
#include "netflow/types.hpp"

/// \file select.hpp
/// Shape-based backend selection for SolverKind::kAuto.
///
/// No single min-cost-flow algorithm dominates (Kiraly & Kovacs 2012
/// measure crossovers spanning orders of magnitude), so kAuto measures a
/// handful of cheap instance features and dispatches to the backend the
/// bench calibration says wins in that region. The thresholds below are
/// calibrated by `bench_solvers --smoke` (BENCH_pr7.json), which also
/// gates that the policy is never far from the best fixed backend on the
/// benched classes. Selection is deterministic: the same instance always
/// maps to the same backend.

namespace lera::netflow {

class Graph;

/// The features kAuto considers. Cheap to measure: one O(n) pass over
/// the supplies plus O(1) counts.
struct InstanceShape {
  NodeId nodes = 0;
  std::int64_t arcs = 0;
  /// Density proxy: arcs per node (0 for the empty graph).
  double arcs_per_node = 0;
  /// Total positive supply — SSP's augmentation count is bounded by it,
  /// which makes SSP output-sensitive where the others are not.
  Flow supply_volume = 0;
  /// Nodes with nonzero supply (spread-out vs concentrated imbalance).
  NodeId supply_nodes = 0;
  bool negative_costs = false;

  /// Compact "nodes=... arcs=..." rendering for diagnostics and logs.
  std::string summary() const;
};

/// Measures \p g.
InstanceShape measure_shape(const Graph& g);

/// The calibrated policy: maps a shape to a concrete backend, never
/// kAuto. See select.cpp for the measured crossover points behind each
/// threshold.
SolverKind select_solver(const InstanceShape& shape);

}  // namespace lera::netflow
