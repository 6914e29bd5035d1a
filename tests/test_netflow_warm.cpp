#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

// Warm-start resolve: re-solving a same-topology instance from the
// previous optimal flow must reach the same objective as a cold solve —
// both certified — the cache must stop matching the moment the topology
// changes, and a budget trip must surface typed. The warm path may pick a
// different equal-cost optimum than the cold path, so these tests
// compare objectives and certificates, never raw flow vectors.

namespace lera::netflow {
namespace {

/// A same-topology cost/capacity perturbation, deterministic in seed.
Graph perturb(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Cost> dcost(-5, 5);
  std::uniform_int_distribution<int> dcap(0, 4);
  Graph out = g;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    Cost cost = arc.cost + dcost(rng);
    Flow cap = arc.upper;
    if (dcap(rng) == 0 && cap > 1) cap -= 1;  // Occasionally tighten.
    out.set_arc_cost(a, cost);
    out.set_arc_capacity(a, cap);
  }
  return out;
}

workloads::RandomFlowOptions warm_options() {
  workloads::RandomFlowOptions opts;
  opts.num_nodes = 16;
  opts.num_arcs = 48;
  opts.supply = 6;
  return opts;
}

TEST(WarmStart, CacheMatchesTopologyNotCosts) {
  const Graph g = workloads::random_flow_problem(1, warm_options());
  const FlowSolution cold = solve(g);
  ASSERT_TRUE(cold.optimal());

  WarmStartCache cache;
  EXPECT_FALSE(cache.has_entry());
  EXPECT_FALSE(cache.matches(g));
  cache.store(g, cold.arc_flow);
  EXPECT_TRUE(cache.has_entry());
  EXPECT_TRUE(cache.matches(g));
  EXPECT_TRUE(cache.matches(perturb(g, 99)));  // Same topology.

  Graph grown = g;
  grown.add_arc(0, 1, 1, 0);
  EXPECT_FALSE(cache.matches(grown));  // Arc count changed.

  Graph resupplied = g;
  resupplied.add_supply(0, 1);
  resupplied.add_supply(1, -1);
  EXPECT_FALSE(cache.matches(resupplied));  // Supplies changed.
}

TEST(WarmStart, FiftySeedPerturbationSweepMatchesColdObjective) {
  int warm_optimal = 0;
  SolverWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Graph base = workloads::random_flow_problem(seed, warm_options());
    const FlowSolution cold_base = solve(base);
    if (!cold_base.optimal()) continue;  // Rare; nothing to warm from.

    WarmStartCache cache;
    cache.store(base, cold_base.arc_flow);

    const Graph next = perturb(base, seed * 7919);
    ASSERT_TRUE(cache.matches(next)) << "seed " << seed;
    const FlowSolution cold = solve(next);
    const FlowSolution warm = resolve_warm(next, cache, nullptr, &ws);

    if (!warm.optimal()) {
      // The repair bailed (kMaxCancellations, infeasible after a
      // capacity cut, ...): the contract is only that the caller falls
      // back to cold, which must agree with the cold verdict.
      EXPECT_EQ(warm.status == SolveStatus::kInfeasible,
                cold.status == SolveStatus::kInfeasible)
          << "seed " << seed;
      continue;
    }
    ++warm_optimal;
    ASSERT_TRUE(cold.optimal()) << "seed " << seed;
    // Equal objective, both independently certified.
    EXPECT_EQ(warm.cost, cold.cost) << "seed " << seed;
    EXPECT_TRUE(check_feasible(next, warm.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(check_feasible(next, cold.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(next, warm.arc_flow)) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(next, cold.arc_flow)) << "seed " << seed;
  }
  // The sweep must exercise the warm path for real, not fall back on
  // every seed.
  EXPECT_GT(warm_optimal, 30);
}

TEST(WarmStart, BudgetExceededSurfacesFromWarmPath) {
  const Graph base = workloads::random_flow_problem(31, warm_options());
  const FlowSolution cold = solve(base);
  ASSERT_TRUE(cold.optimal());
  WarmStartCache cache;
  cache.store(base, cold.arc_flow);

  const Graph next = perturb(base, 4242);
  SolveGuard guard;
  guard.max_iterations = 1;
  guard.start();
  const FlowSolution warm = resolve_warm(next, cache, &guard, nullptr);
  EXPECT_TRUE(warm.status == SolveStatus::kBudgetExceeded ||
              warm.optimal());
}

}  // namespace
}  // namespace lera::netflow
