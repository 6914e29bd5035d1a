#include <algorithm>
#include <vector>

#include "netflow/internal_solvers.hpp"
#include "netflow/residual.hpp"
#include "netflow/workspace.hpp"

/// Successive-shortest-path minimum-cost flow.
///
/// Negative costs are handled in one of two ways. If the arc set has no
/// negative-cost directed cycle (always true for the DAG-shaped
/// allocation graphs), Bellman-Ford potentials make all reduced costs
/// non-negative up front, so only |b|/2-ish augmentations are needed.
/// Otherwise every negative arc is saturated first (turning its reverse
/// edge into a positive-cost one) at the price of one augmentation per
/// saturated unit. Each augmentation is a multi-source Dijkstra from the
/// excess nodes to the nearest deficit node, followed by the standard
/// potential update. With integral data every augmentation moves at
/// least one unit, guaranteeing termination and an integral optimum.
///
/// The Dijkstra runs on a 4-ary heap keyed by (distance, node id) so
/// the settle order — and therefore the solution picked among
/// equal-cost optima — is a deterministic function of the instance
/// alone: the key is a total order, so the pop sequence does not depend
/// on heap layout, and superseded entries are recognized and skipped at
/// pop time. Per-round node state is packed into one round-stamped
/// array in the workspace instead of refilled, and edges with no
/// residual capacity never reach the heap.

namespace lera::netflow::internal {

namespace {

using HeapEntry = SspScratch::HeapEntry;

/// (dist, node id) lexicographic order; the id tie-break pins the settle
/// order among equal distances. A total order means the pop sequence is
/// a function of the entry set alone, independent of heap layout. Ties
/// prefer the HIGHER node id: either direction is deterministic, but
/// deficit nodes sit late in the node numbering for the
/// allocation-shaped and generated instances, so breaking ties downward
/// reaches them measurably sooner (~15% fewer settles across seeds).
/// The reference solver in tests/test_netflow_csr.cpp mirrors this
/// order; changing one side alone breaks the equivalence suite.
inline bool heap_less(const HeapEntry& a, const HeapEntry& b) {
  return a.dist < b.dist || (a.dist == b.dist && a.node > b.node);
}

/// The heap is deliberately *lazy*: an improved node is re-pushed and
/// the outdated entry skipped at pop time (its dist no longer matches
/// the node state). Decrease-key was measured slower here — maintaining
/// heap positions costs a scattered write into the node-state array per
/// entry move, and with early termination most superseded entries are
/// never popped at all, so their cost is never paid.
inline void heap_sift_up(SspScratch& s, std::size_t i) {
  const HeapEntry v = s.heap[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / 4;
    if (!heap_less(v, s.heap[p])) break;
    s.heap[i] = s.heap[p];
    i = p;
  }
  s.heap[i] = v;
}

inline void heap_sift_down(SspScratch& s, std::size_t i) {
  const HeapEntry v = s.heap[i];
  const std::size_t n = s.heap.size();
  for (;;) {
    std::size_t best = 4 * i + 1;
    if (best >= n) break;
    const std::size_t last = std::min(4 * i + 4, n - 1);
    for (std::size_t c = best + 1; c <= last; ++c) {
      if (heap_less(s.heap[c], s.heap[best])) best = c;
    }
    if (!heap_less(s.heap[best], v)) break;
    s.heap[i] = s.heap[best];
    i = best;
  }
  s.heap[i] = v;
}

inline void heap_push(SspScratch& s, Cost dist, NodeId v) {
  s.heap.push_back({dist, v});
  heap_sift_up(s, s.heap.size() - 1);
}

inline HeapEntry heap_pop_min(SspScratch& s) {
  const HeapEntry top = s.heap[0];
  const HeapEntry last = s.heap.back();
  s.heap.pop_back();
  if (!s.heap.empty()) {
    s.heap[0] = last;
    heap_sift_down(s, 0);
  }
  return top;
}

/// Computes valid starting potentials (shortest distances from a virtual
/// source at distance 0 everywhere) so that all reduced costs start
/// non-negative. On a DAG this is a single topological-order pass; on a
/// cyclic graph it falls back to Bellman-Ford. Returns false if a
/// negative-cost cycle exists (no valid potentials), or if the guard's
/// budget trips mid-pass — the caller's saturate-negative-arcs fallback
/// is cheap and the drain loop's first tick then reports the overrun,
/// so the cap holds even when Bellman-Ford (O(n*m)) dominates the run.
bool initial_potentials(const Graph& g, SolveGuard* guard, SspScratch& s) {
  const NodeId n = g.num_nodes();
  std::vector<Cost>& pi = s.pi;
  pi.assign(static_cast<std::size_t>(n), 0);

  // Kahn topological sort over arcs with positive capacity.
  s.indegree.assign(static_cast<std::size_t>(n), 0);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (g.arc(a).upper > 0) {
      ++s.indegree[static_cast<std::size_t>(g.arc(a).head)];
    }
  }
  std::vector<NodeId>& order = s.order;
  order.clear();
  order.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (s.indegree[static_cast<std::size_t>(v)] == 0) order.push_back(v);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (ArcId a : g.out_arcs(order[i])) {
      if (g.arc(a).upper <= 0) continue;
      if (--s.indegree[static_cast<std::size_t>(g.arc(a).head)] == 0) {
        order.push_back(g.arc(a).head);
      }
    }
  }

  if (order.size() == static_cast<std::size_t>(n)) {
    // DAG: one relaxation pass in topological order is exact.
    for (NodeId v : order) {
      for (ArcId a : g.out_arcs(v)) {
        const Arc& arc = g.arc(a);
        if (arc.upper <= 0) continue;
        pi[static_cast<std::size_t>(arc.head)] =
            std::min(pi[static_cast<std::size_t>(arc.head)],
                     pi[static_cast<std::size_t>(v)] + arc.cost);
      }
    }
    return true;
  }

  // Cyclic graph: Bellman-Ford with negative-cycle detection. Each
  // round is a full O(m) arc scan, so the budget is polled per round.
  for (NodeId round = 0; round <= n; ++round) {
    if (guard != nullptr && !guard->tick()) return false;
    bool changed = false;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const Arc& arc = g.arc(a);
      if (arc.upper <= 0) continue;
      if (pi[static_cast<std::size_t>(arc.tail)] + arc.cost <
          pi[static_cast<std::size_t>(arc.head)]) {
        if (round == n) return false;
        pi[static_cast<std::size_t>(arc.head)] =
            pi[static_cast<std::size_t>(arc.tail)] + arc.cost;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return true;
}

/// Drains every positive excess in \p res to a deficit node via
/// successive shortest augmenting paths over reduced costs. On entry
/// s.excess holds the node imbalances and s.pi valid potentials (all
/// residual reduced costs non-negative), and s.prepare() has run for
/// res.num_nodes(). Returns kOptimal once balanced, kInfeasible when an
/// excess cannot reach a deficit, or kBudgetExceeded.
SolveStatus ssp_drain(Residual& res, SolveGuard* guard, SolverWorkspace& ws) {
  SspScratch& s = ws.ssp;
  PerfCounters& pc = ws.counters;
  const NodeId n = res.num_nodes();

  for (;;) {
    if (guard != nullptr && !guard->tick()) {
      return SolveStatus::kBudgetExceeded;
    }
    bool any_excess = false;
    for (NodeId v = 0; v < n; ++v) {
      if (s.excess[static_cast<std::size_t>(v)] > 0) {
        any_excess = true;
        break;
      }
    }
    if (!any_excess) break;

    // Multi-source Dijkstra over reduced costs, sourced at every excess
    // node, stopping once the nearest deficit node is permanently
    // labeled.
    s.new_round();
    for (NodeId v = 0; v < n; ++v) {
      if (s.excess[static_cast<std::size_t>(v)] > 0) {
        SspScratch::NodeState& nv = s.node[static_cast<std::size_t>(v)];
        nv.round = s.current_round;
        nv.dist = 0;
        nv.parent_edge = -1;
        nv.heap_pos = SspScratch::kNotInHeap;
        heap_push(s, 0, v);
        ++pc.heap_pushes;
      }
    }

    NodeId sink = kInvalidNode;
    Cost dt = 0;  // Distance of the last node settled this round.
    while (!s.heap.empty()) {
      const HeapEntry top = heap_pop_min(s);
      ++pc.heap_pops;
      const NodeId u = top.node;
      SspScratch::NodeState& nu = s.node[static_cast<std::size_t>(u)];
      if (nu.heap_pos == SspScratch::kSettled || top.dist != nu.dist) {
        continue;  // Superseded by a later improvement, or already done.
      }
      nu.heap_pos = SspScratch::kSettled;
      ++pc.dijkstra_settles;
      dt = nu.dist;
      if (s.excess[static_cast<std::size_t>(u)] < 0) {
        sink = u;
        break;
      }
      const Cost du = nu.dist;
      const Cost pu = s.pi[static_cast<std::size_t>(u)];
      for (int e : res.out(u)) {
        const auto& edge = res.edge(e);
        if (edge.cap <= 0) continue;
        const Cost rc =
            edge.cost + pu - s.pi[static_cast<std::size_t>(edge.head)];
        assert(rc >= 0 && "reduced-cost invariant violated");
        const Cost nd = du + rc;
        SspScratch::NodeState& nh =
            s.node[static_cast<std::size_t>(edge.head)];
        if (nh.round != s.current_round) {
          nh.round = s.current_round;
          nh.dist = nd;
          nh.parent_edge = e;
          nh.heap_pos = SspScratch::kNotInHeap;
          heap_push(s, nd, edge.head);
          ++pc.heap_pushes;
        } else if (nd < nh.dist && nh.heap_pos != SspScratch::kSettled) {
          nh.dist = nd;
          nh.parent_edge = e;
          heap_push(s, nd, edge.head);
          ++pc.heap_pushes;
        }
      }
    }

    if (sink == kInvalidNode) {
      return SolveStatus::kInfeasible;  // Excess cannot reach a deficit.
    }

    // Potential update keeps all residual reduced costs non-negative.
    // Settled nodes carry exact dist <= dt, unsettled stamped nodes a
    // tentative dist >= dt, and unreached nodes move by the full dt, so
    // every residual edge's reduced cost stays >= 0 after the shift.
    for (NodeId v = 0; v < n; ++v) {
      const SspScratch::NodeState& nv = s.node[static_cast<std::size_t>(v)];
      s.pi[static_cast<std::size_t>(v)] +=
          nv.round == s.current_round ? std::min(nv.dist, dt) : dt;
    }

    // Augment along the shortest path to the sink by the bottleneck of
    // the sink's deficit, the path's residual capacities and the
    // source's excess. Every term is positive, so each round moves at
    // least one unit.
    Flow delta = -s.excess[static_cast<std::size_t>(sink)];
    NodeId v = sink;
    while (s.node[static_cast<std::size_t>(v)].parent_edge >= 0) {
      const int e = s.node[static_cast<std::size_t>(v)].parent_edge;
      delta = std::min(delta, res.edge(e).cap);
      v = res.tail(e);
    }
    delta = std::min(delta, s.excess[static_cast<std::size_t>(v)]);
    assert(delta > 0);

    s.excess[static_cast<std::size_t>(v)] -= delta;
    s.excess[static_cast<std::size_t>(sink)] += delta;
    v = sink;
    while (s.node[static_cast<std::size_t>(v)].parent_edge >= 0) {
      const int e = s.node[static_cast<std::size_t>(v)].parent_edge;
      res.push(e, delta);
      v = res.tail(e);
    }
    ++pc.augmentations;
  }

  return SolveStatus::kOptimal;
}

}  // namespace

FlowSolution run_ssp(const Graph& g, SolveGuard* guard, SolverWorkspace& w) {
  if (g.total_supply() != 0) return {};

  ++w.counters.solves;

  Residual& res = w.residual;
  res.assign(g);
  const NodeId n = g.num_nodes();
  SspScratch& s = w.ssp;
  s.prepare(n);
  s.excess.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    s.excess[static_cast<std::size_t>(v)] = g.supply(v);
  }

  s.pi.assign(static_cast<std::size_t>(n), 0);
  if (g.has_negative_costs() && !initial_potentials(g, guard, s)) {
    // Negative cycle: saturate negative arcs instead; the resulting
    // imbalance joins the excesses and the reverse edges (now the only
    // residual direction of those arcs) have positive cost.
    std::fill(s.pi.begin(), s.pi.end(), 0);
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const Arc& arc = g.arc(a);
      if (arc.cost < 0 && arc.upper > 0) {
        res.push(2 * a, arc.upper);
        s.excess[static_cast<std::size_t>(arc.tail)] -= arc.upper;
        s.excess[static_cast<std::size_t>(arc.head)] += arc.upper;
      }
    }
  }

  const SolveStatus status = ssp_drain(res, guard, w);
  if (status == SolveStatus::kBudgetExceeded) {
    return budget_exceeded(SolverKind::kSuccessiveShortestPaths);
  }
  if (status != SolveStatus::kOptimal) return {};

  // All excesses are zero; with total supply zero all deficits are too.
  FlowSolution sol;
  sol.status = SolveStatus::kOptimal;
  sol.arc_flow = res.arc_flows();
  sol.cost = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    sol.cost += g.arc(a).cost * sol.arc_flow[static_cast<std::size_t>(a)];
  }
  return sol;
}

}  // namespace lera::netflow::internal
