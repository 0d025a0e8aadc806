// Unit tests for the undirected graph substrate.

#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/metrics.hpp"

namespace adhoc {
namespace {

TEST(Graph, EmptyGraphHasNoNodesOrEdges) {
    Graph g;
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, IsolatedNodesHaveZeroDegree) {
    Graph g(5);
    EXPECT_EQ(g.node_count(), 5u);
    for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, AddEdgeIsSymmetric) {
    Graph g(3);
    EXPECT_TRUE(g.add_edge(0, 2));
    EXPECT_TRUE(g.has_edge(0, 2));
    EXPECT_TRUE(g.has_edge(2, 0));
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, AddDuplicateEdgeIsNoOp) {
    Graph g(3);
    EXPECT_TRUE(g.add_edge(0, 1));
    EXPECT_FALSE(g.add_edge(0, 1));
    EXPECT_FALSE(g.add_edge(1, 0));
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, SelfLoopRejected) {
    Graph g(2);
    EXPECT_FALSE(g.add_edge(1, 1));
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, RemoveEdge) {
    Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_TRUE(g.remove_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
}

TEST(Graph, NeighborsAreSortedAscending) {
    Graph g(6);
    g.add_edge(3, 5);
    g.add_edge(3, 0);
    g.add_edge(3, 4);
    g.add_edge(3, 1);
    const auto nbrs = g.neighbors(3);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, EdgeListConstructorCollapsesDuplicates) {
    const std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 2}, {1, 2}};
    Graph g(3, edges);
    EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Graph, EdgesAreCanonicalAndSorted) {
    Graph g(4);
    g.add_edge(3, 1);
    g.add_edge(2, 0);
    const auto edges = g.edges();
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], (Edge{0, 2}));
    EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Graph, ConnectedNeighborPairsCountsTriangles) {
    // Triangle 0-1-2 plus pendant 3 on node 0.
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    std::vector<NodeId> stamp(g.node_count(), kInvalidNode);
    EXPECT_EQ(connected_neighbor_pairs(g, 0, stamp), 1u);  // (1,2) of 3 pairs
    EXPECT_EQ(connected_neighbor_pairs(g, 1, stamp), 1u);
    EXPECT_EQ(connected_neighbor_pairs(g, 3, stamp), 0u);
}

TEST(Graph, NeighborsPairwiseConnectedDetectsOpenPairs) {
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    EXPECT_FALSE(g.neighbors_pairwise_connected(0));  // 1 and 2 unlinked
    g.add_edge(1, 2);
    EXPECT_TRUE(g.neighbors_pairwise_connected(0));
    EXPECT_TRUE(g.neighbors_pairwise_connected(3));  // vacuous for isolated
}

TEST(Graph, CompleteGraphProperties) {
    const Graph g = complete_graph(5);
    EXPECT_EQ(g.edge_count(), 10u);
    for (NodeId v = 0; v < 5; ++v) {
        EXPECT_EQ(g.degree(v), 4u);
        EXPECT_TRUE(g.neighbors_pairwise_connected(v));
    }
}

TEST(Graph, PathAndCycleBuilders) {
    const Graph p = path_graph(4);
    EXPECT_EQ(p.edge_count(), 3u);
    EXPECT_EQ(p.degree(0), 1u);
    EXPECT_EQ(p.degree(1), 2u);

    const Graph c = cycle_graph(4);
    EXPECT_EQ(c.edge_count(), 4u);
    for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(c.degree(v), 2u);
}

TEST(Graph, StarBuilder) {
    const Graph s = star_graph(6);
    EXPECT_EQ(s.degree(0), 5u);
    for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(s.degree(v), 1u);
}

TEST(Graph, GridBuilder) {
    const Graph g = grid_graph(3, 4);
    EXPECT_EQ(g.node_count(), 12u);
    // 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8.
    EXPECT_EQ(g.edge_count(), 17u);
    EXPECT_EQ(g.degree(0), 2u);   // corner
    EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(Graph, StructuralEquality) {
    Graph a(3), b(3);
    a.add_edge(0, 1);
    b.add_edge(0, 1);
    EXPECT_EQ(a, b);
    b.add_edge(1, 2);
    EXPECT_NE(a, b);
}

TEST(Graph, CanonicalEdge) {
    EXPECT_EQ(canonical(Edge{5, 2}), (Edge{2, 5}));
    EXPECT_EQ(canonical(Edge{2, 5}), (Edge{2, 5}));
}

TEST(Graph, HasEdgeOnInvalidNodesIsFalse) {
    Graph g(2);
    g.add_edge(0, 1);
    EXPECT_FALSE(g.has_edge(0, 7));
    EXPECT_FALSE(g.has_edge(7, 9));
}

// has_edge binary-searches the *shorter* adjacency list, so queries from a
// hub against a leaf and vice versa must agree — exercised on a star (the
// maximally asymmetric degree distribution) in both argument orders.
TEST(Graph, HasEdgeSearchesShorterListSymmetrically) {
    const std::size_t n = 40;
    Graph g = star_graph(n);
    g.add_edge(3, 4);  // one leaf-leaf edge so not everything goes via hub
    for (NodeId leaf = 1; leaf < n; ++leaf) {
        EXPECT_TRUE(g.has_edge(0, leaf));
        EXPECT_TRUE(g.has_edge(leaf, 0));
    }
    EXPECT_TRUE(g.has_edge(3, 4));
    EXPECT_TRUE(g.has_edge(4, 3));
    EXPECT_FALSE(g.has_edge(5, 6));
    EXPECT_FALSE(g.has_edge(6, 5));
}

TEST(Graph, FromSortedEdgesMatchesIncrementalConstruction) {
    const std::vector<Edge> edges = {{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {3, 4}};
    const Graph bulk = Graph::from_sorted_edges(5, edges);
    const Graph incremental(5, edges);
    EXPECT_EQ(bulk, incremental);
    EXPECT_EQ(bulk.edge_count(), edges.size());
    // Rows must come out sorted (the class invariant add_edge maintains).
    for (NodeId v = 0; v < 5; ++v) {
        const auto nv = bulk.neighbors(v);
        EXPECT_TRUE(std::is_sorted(nv.begin(), nv.end()));
    }
}

TEST(Graph, FromSortedEdgesEmptyAndIsolated) {
    const Graph g = Graph::from_sorted_edges(4, {});
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 0u);
    const Graph h = Graph::from_sorted_edges(6, {{2, 5}});
    EXPECT_TRUE(h.has_edge(2, 5));
    EXPECT_EQ(h.degree(0), 0u);
}

}  // namespace
}  // namespace adhoc
