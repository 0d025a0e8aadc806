/// \file graph.hpp
/// \brief Undirected simple graph used to model ad hoc network topologies.
///
/// The paper models an ad hoc network as a unit disk graph G = (V, E)
/// (Section 2).  This class is the shared substrate for every algorithm in
/// the repository: adjacency queries, neighbor iteration and edge counting.
/// Neighbor lists are kept sorted so that `has_edge` is O(log deg) and set
/// operations over neighborhoods (common in the pruning rules) are linear
/// merges.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace adhoc {

/// Node identifier.  Node ids double as the lowest-level priority tiebreak
/// in the paper, so they are plain integers ordered in the obvious way.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// An undirected edge; canonical form has a <= b.
struct Edge {
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;

    friend bool operator==(const Edge&, const Edge&) = default;
    friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Returns the canonical (a <= b) form of an edge.
[[nodiscard]] constexpr Edge canonical(Edge e) noexcept {
    return (e.a <= e.b) ? e : Edge{e.b, e.a};
}

/// Undirected simple graph over nodes 0..n-1.
///
/// Invariants:
///  - no self loops, no parallel edges;
///  - every adjacency list is sorted ascending;
///  - edge (u,v) present iff (v,u) present.
class Graph {
  public:
    Graph() = default;

    /// Creates a graph with `n` isolated nodes.
    explicit Graph(std::size_t n) : adjacency_(n) {}

    /// Creates a graph from an explicit edge list (duplicates and reversed
    /// duplicates are tolerated and collapsed).
    Graph(std::size_t n, const std::vector<Edge>& edges);

    /// Bulk construction from a canonical (a < b), lexicographically
    /// sorted, duplicate-free edge list.  Sizes every adjacency row
    /// exactly once and fills it already sorted — no per-insert search or
    /// reallocation, which dominates `add_edge`-based construction for
    /// generated graphs.
    [[nodiscard]] static Graph from_sorted_edges(std::size_t n, const std::vector<Edge>& edges);

    /// Number of nodes.
    [[nodiscard]] std::size_t node_count() const noexcept { return adjacency_.size(); }

    /// Number of undirected edges.
    [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

    /// True iff `v` is a valid node of this graph.
    [[nodiscard]] bool contains(NodeId v) const noexcept { return v < adjacency_.size(); }

    /// Adds an undirected edge; returns false (no-op) if the edge already
    /// exists or is a self loop.  Precondition: both endpoints valid.
    bool add_edge(NodeId u, NodeId v);

    /// Removes an undirected edge; returns false if it was absent.
    bool remove_edge(NodeId u, NodeId v);

    /// True iff the undirected edge (u,v) exists.
    [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

    /// Sorted open neighbor set N(v).
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
        return adjacency_[v];
    }

    /// Degree |N(v)|.
    [[nodiscard]] std::size_t degree(NodeId v) const noexcept { return adjacency_[v].size(); }

    /// All edges in canonical, lexicographically sorted order.
    [[nodiscard]] std::vector<Edge> edges() const;

    /// True iff every pair of neighbors of `v` is directly connected (the
    /// marking-process negation: unmarked nodes in Wu-Li).
    [[nodiscard]] bool neighbors_pairwise_connected(NodeId v) const noexcept;

    /// Structural equality (same node count and edge set).
    friend bool operator==(const Graph&, const Graph&) = default;

  private:
    std::vector<std::vector<NodeId>> adjacency_;
    std::size_t edge_count_ = 0;
};

/// Builds the complete graph K_n.
[[nodiscard]] Graph complete_graph(std::size_t n);

/// Builds the path graph P_n (0-1-2-...-n-1).
[[nodiscard]] Graph path_graph(std::size_t n);

/// Builds the cycle graph C_n.
[[nodiscard]] Graph cycle_graph(std::size_t n);

/// Builds the star graph with center 0 and n-1 leaves.
[[nodiscard]] Graph star_graph(std::size_t n);

/// Builds an r-by-c grid graph (4-neighborhood); node (i,j) has id i*c+j.
[[nodiscard]] Graph grid_graph(std::size_t rows, std::size_t cols);

}  // namespace adhoc
