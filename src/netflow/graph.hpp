#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "netflow/types.hpp"

/// \file graph.hpp
/// Directed graph with per-arc lower bound, capacity and cost, plus
/// per-node supply, describing a *b-flow* (transshipment) instance:
///
///   minimise   sum_a cost(a) * x(a)
///   subject to sum_{a out of v} x(a) - sum_{a into v} x(a) = supply(v)
///              lower(a) <= x(a) <= upper(a)
///
/// The classic s-t fixed-flow problem of the paper (flow value F = number
/// of registers R) is expressed by supply(s) = +F, supply(t) = -F.

namespace lera::netflow {

/// One directed arc. Plain data; invariants are enforced by Graph.
struct Arc {
  NodeId tail = kInvalidNode;  ///< Arc leaves this node.
  NodeId head = kInvalidNode;  ///< Arc enters this node.
  Flow lower = 0;              ///< Minimum flow on the arc.
  Flow upper = 0;              ///< Maximum flow on the arc.
  Cost cost = 0;               ///< Cost per unit of flow.
};

/// Mutable builder + storage for a b-flow instance.
///
/// Nodes are created with add_node() and optionally carry a debug name;
/// names live in a lazily grown side table so graphs built on the hot
/// path (unnamed nodes) never touch string storage. Arcs keep insertion
/// order, so solution vectors index by ArcId.
///
/// Adjacency is a flat CSR (compressed sparse row) cache built lazily on
/// first query: `out_ids_[first_out_[v] .. first_out_[v+1])` holds the
/// outgoing arc ids of `v` in insertion order (same for `in_`). Arcs
/// added after a build land in small per-node overflow lists, so
/// interleaved build/query/mutate stays O(degree) per operation instead
/// of re-running the full O(V+E) rebuild; once enough arcs accumulate in
/// overflow the next query folds them back into the flat arrays.
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with \p n unnamed nodes.
  explicit Graph(NodeId n) { add_nodes(n); }

  /// Pre-sizes node storage for \p n total nodes.
  void reserve_nodes(NodeId n);
  /// Pre-sizes arc storage for \p m total arcs.
  void reserve_arcs(ArcId m);

  /// Adds one node and returns its id.
  NodeId add_node(std::string name = {});

  /// Adds \p n unnamed nodes; returns the id of the first.
  NodeId add_nodes(NodeId n);

  /// Adds an arc tail->head with bounds [lower, upper] and unit cost.
  /// Requires 0 <= lower <= upper and valid endpoint ids.
  ArcId add_arc(NodeId tail, NodeId head, Flow upper, Cost cost,
                Flow lower = 0);

  NodeId num_nodes() const { return static_cast<NodeId>(supply_.size()); }
  ArcId num_arcs() const { return static_cast<ArcId>(arcs_.size()); }

  const Arc& arc(ArcId a) const {
    assert(a >= 0 && a < num_arcs());
    return arcs_[static_cast<std::size_t>(a)];
  }
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Node supply: positive = source of flow, negative = sink.
  Flow supply(NodeId v) const {
    assert(v >= 0 && v < num_nodes());
    return supply_[static_cast<std::size_t>(v)];
  }
  void set_supply(NodeId v, Flow b) {
    assert(v >= 0 && v < num_nodes());
    supply_[static_cast<std::size_t>(v)] = b;
  }
  void add_supply(NodeId v, Flow b) {
    assert(v >= 0 && v < num_nodes());
    supply_[static_cast<std::size_t>(v)] += b;
  }

  /// Sum of all node supplies. A feasible instance requires 0.
  Flow total_supply() const;

  /// True if any arc has a nonzero lower bound.
  bool has_lower_bounds() const { return has_lower_bounds_; }

  /// True if any arc has a negative cost.
  bool has_negative_costs() const { return has_negative_costs_; }

  /// Debug name of a node ("" if unnamed).
  const std::string& node_name(NodeId v) const;
  void set_node_name(NodeId v, std::string name);

  /// Read-only view over a node's adjacency: the CSR segment plus any
  /// arcs appended since the last rebuild. Indexable and iterable; ids
  /// appear in arc insertion order.
  class ArcRange {
   public:
    ArcRange(const ArcId* seg, std::size_t seg_size,
             const std::vector<ArcId>* extra)
        : seg_(seg),
          seg_size_(seg_size),
          extra_(extra && !extra->empty() ? extra : nullptr) {}

    std::size_t size() const {
      return seg_size_ + (extra_ ? extra_->size() : 0);
    }
    bool empty() const { return size() == 0; }
    ArcId operator[](std::size_t i) const {
      assert(i < size());
      return i < seg_size_ ? seg_[i] : (*extra_)[i - seg_size_];
    }

    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ArcId;
      using difference_type = std::ptrdiff_t;
      using pointer = const ArcId*;
      using reference = ArcId;

      iterator(const ArcRange* r, std::size_t i) : r_(r), i_(i) {}
      ArcId operator*() const { return (*r_)[i_]; }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        ++i_;
        return copy;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const ArcRange* r_;
      std::size_t i_;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, size()); }

    std::vector<ArcId> to_vector() const {
      return std::vector<ArcId>(begin(), end());
    }

   private:
    const ArcId* seg_;
    std::size_t seg_size_;
    const std::vector<ArcId>* extra_;
  };

  /// Outgoing arc ids of \p v in insertion order (CSR cache, built
  /// lazily; stays valid across add_arc via per-node overflow lists).
  ArcRange out_arcs(NodeId v) const;
  /// Incoming arc ids of \p v in insertion order (see out_arcs).
  ArcRange in_arcs(NodeId v) const;

  /// Bytes the instance currently retains: arc/supply storage plus the
  /// CSR adjacency cache (overflow lists counted by capacity).
  std::int64_t footprint_bytes() const;

 private:
  void ensure_adjacency() const;
  void note_arc_added(ArcId a);

  std::vector<Arc> arcs_;
  std::vector<Flow> supply_;
  /// Debug-name side table, grown only when a node is actually named;
  /// shorter than num_nodes() when trailing nodes are unnamed.
  std::vector<std::string> names_;
  bool has_lower_bounds_ = false;
  bool has_negative_costs_ = false;

  // Lazily built CSR adjacency; mutable because it is a cache. Covers
  // arcs [0, csr_arcs_) over csr_nodes_ nodes; later arcs sit in the
  // overflow lists until the next fold-in.
  mutable bool adjacency_valid_ = false;
  mutable NodeId csr_nodes_ = 0;
  mutable ArcId csr_arcs_ = 0;
  mutable std::vector<ArcId> first_out_;
  mutable std::vector<ArcId> out_ids_;
  mutable std::vector<ArcId> first_in_;
  mutable std::vector<ArcId> in_ids_;
  mutable std::vector<std::vector<ArcId>> overflow_out_;
  mutable std::vector<std::vector<ArcId>> overflow_in_;
  mutable ArcId overflow_arcs_ = 0;
};

}  // namespace lera::netflow
