/// \file metrics.hpp
/// \brief Topology metrics used as priority keys and in analysis.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc {

/// The number of pairs of `v`'s neighbours that are directly connected
/// (the triangles through v), in O(sum of the neighbours' degrees): N(v)
/// is stamped with v in `stamp`, and each neighbour's row counts the
/// stamped entries, which meets every connected pair twice.  `stamp` has
/// one entry per node of `g`, all kInvalidNode before the first call;
/// calls on the same graph then share it without clearing (an entry equal
/// to v always marks a neighbour of v).  `Adjacency` is `Graph` or
/// `BfsGraph` (graph/bfs_graph.hpp).
template <class Adjacency>
[[nodiscard]] std::size_t connected_neighbor_pairs(const Adjacency& g, NodeId v,
                                                   std::span<NodeId> stamp) {
    const auto nv = g.neighbors(v);
    for (const NodeId u : nv) stamp[u] = v;
    std::size_t ends = 0;
    for (const NodeId u : nv) {
        for (const NodeId w : g.neighbors(u)) ends += stamp[w] == v ? 1 : 0;
    }
    return ends / 2;
}

/// ncr(v) (below) from v's degree and its connected neighbour pairs.
[[nodiscard]] inline double ncr_of(std::size_t deg, std::size_t connected) noexcept {
    if (deg <= 1) return 0.0;
    const double total_pairs = static_cast<double>(deg) * static_cast<double>(deg - 1) / 2.0;
    return 1.0 - static_cast<double>(connected) / total_pairs;
}

/// Neighborhood connectivity ratio (paper Section 4.4):
///
///   ncr(v) = 1 - sum_{u in N(v)} |N(u) ∩ N(v)| / (deg(v)·(deg(v)-1))
///
/// i.e. the fraction of neighbor pairs that are *not* directly connected.
/// Nodes with deg(v) <= 1 have no neighbor pair; their ncr is defined as 0
/// (nothing to connect, lowest priority need).  One call allocates an
/// n-entry stamp; `all_ncr` shares one across every node.
[[nodiscard]] double neighborhood_connectivity_ratio(const Graph& g, NodeId v);

/// ncr for every node of `g` (a `Graph` or a `BfsGraph`, by its ids).
template <class Adjacency>
[[nodiscard]] std::vector<double> all_ncr(const Adjacency& g) {
    std::vector<NodeId> stamp(g.node_count(), kInvalidNode);
    std::vector<double> ncr(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
        ncr[v] = ncr_of(g.degree(v), connected_neighbor_pairs(g, v, stamp));
    }
    return ncr;
}

/// Average node degree 2|E|/|V| (0 for empty graph).
[[nodiscard]] double average_degree(const Graph& g);

/// Maximum degree.
[[nodiscard]] std::size_t max_degree(const Graph& g);

/// Minimum degree.
[[nodiscard]] std::size_t min_degree(const Graph& g);

/// Articulation points (cut vertices).  Any correct broadcast scheme must
/// keep every articulation point as a forward node when it lies between
/// unvisited regions; tests use this as a structural cross-check.
[[nodiscard]] std::vector<char> articulation_points(const Graph& g);

/// Global clustering coefficient: 3·triangles / open-and-closed triplets.
[[nodiscard]] double clustering_coefficient(const Graph& g);

}  // namespace adhoc
