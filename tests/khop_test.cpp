// Unit tests for k-hop neighborhoods and Definition-2 local topologies.
//
// The critical behavior is the edge-visibility boundary: G_k(v) contains
// E ∩ (N_{k-1}(v) × N_k(v)) — links between two nodes both exactly k hops
// from v are invisible.  Figure 6(a) of the paper depends on it.

#include "graph/khop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"

namespace adhoc {
namespace {

/// Brute-force Definition 2: full BFS distances from the center, then a
/// scan of every edge of g.  The CSR comes from `compile_topology` over
/// the resulting subgraph, independently of `compile_ball`.
LocalTopology oracle_topology(const Graph& g, NodeId v, std::size_t k) {
    LocalTopology local;
    local.center = v;
    local.hops = k;
    const auto dist = bfs_distances(g, v);
    local.visible.assign(g.node_count(), 0);
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (dist[u] != kUnreachable && dist[u] <= k) {
            local.visible[u] = 1;
            local.members.push_back(u);
        }
    }
    // Edge (a,b) is visible iff min(dist) <= k-1 and max(dist) <= k.
    Graph sub(g.node_count());
    for (const Edge& e : g.edges()) {
        const std::size_t da = dist[e.a];
        const std::size_t db = dist[e.b];
        if (da == kUnreachable || db == kUnreachable) continue;
        if (std::min(da, db) <= k - 1 && std::max(da, db) <= k) sub.add_edge(e.a, e.b);
    }
    local.graph = std::move(sub);
    compile_topology(local);
    return local;
}

void expect_same_topology(const LocalTopology& got, const LocalTopology& want,
                          const std::string& where) {
    ASSERT_EQ(got.center, want.center) << where;
    ASSERT_EQ(got.hops, want.hops) << where;
    ASSERT_EQ(got.members, want.members) << where;
    ASSERT_EQ(got.visible, want.visible) << where;
    ASSERT_EQ(got.graph.node_count(), want.graph.node_count()) << where;
    ASSERT_EQ(got.graph.edge_count(), want.graph.edge_count()) << where;
    for (NodeId u = 0; u < want.graph.node_count(); ++u) {
        const auto a = got.graph.neighbors(u);
        const auto b = want.graph.neighbors(u);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << where << " row of node " << u;
    }
    ASSERT_EQ(got.compact.offsets, want.compact.offsets) << where;
    ASSERT_EQ(got.compact.edges, want.compact.edges) << where;
}

Graph gnp_graph(std::size_t n, double p, std::uint64_t seed) {
    Rng rng(seed);
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
            if (rng.chance(p)) g.add_edge(u, v);
        }
    }
    return g;
}

TEST(KHop, LocalTopologyMatchesBruteForceDefinition2) {
    std::vector<std::pair<std::string, Graph>> graphs;
    for (const std::uint64_t seed : {0x6b01ULL, 0x6b02ULL}) {
        UnitDiskParams params;
        params.node_count = 90;
        params.average_degree = 7.0;
        Rng gen(seed);
        graphs.emplace_back("unit-disk " + std::to_string(seed),
                            generate_network_checked(params, gen).graph);
    }
    // Sparse G(n,p) leaves isolated nodes and components the BFS never
    // reaches; the denser one has diameter ~3, so k = 5 sees everything.
    graphs.emplace_back("gnp sparse", gnp_graph(70, 0.03, 0x6b03));
    graphs.emplace_back("gnp dense", gnp_graph(60, 0.12, 0x6b04));
    for (const auto& [name, g] : graphs) {
        for (const std::size_t k : {1u, 2u, 3u, 5u}) {
            for (NodeId v = 0; v < g.node_count(); ++v) {
                expect_same_topology(local_topology(g, v, k), oracle_topology(g, v, k),
                                     name + " k=" + std::to_string(k) +
                                         " center=" + std::to_string(v));
            }
        }
    }
}

TEST(KHop, CompileBallRejectsHopsPastSixteenBits) {
    const Graph g = path_graph(4);
    BallScratch ball;
    try {
        compile_ball(g, 0, 65536, ball);
        ADD_FAILURE() << "hops = 65536 compiled";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("hops = 65536"), std::string::npos)
            << e.what();
    }
    compile_ball(g, 0, kMaxBallHops, ball);  // the limit itself is fine
    EXPECT_EQ(ball.members, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(KHop, ZeroHopIsSelf) {
    const Graph g = path_graph(4);
    const auto n0 = k_hop_nodes(g, 2, 0);
    ASSERT_EQ(n0.size(), 1u);
    EXPECT_EQ(n0[0], 2u);
}

TEST(KHop, NodesWithinK) {
    const Graph g = path_graph(6);  // 0-1-2-3-4-5
    const auto n2 = k_hop_nodes(g, 0, 2);
    EXPECT_EQ(n2, (std::vector<NodeId>{0, 1, 2}));
    const auto n9 = k_hop_nodes(g, 0, 9);
    EXPECT_EQ(n9.size(), 6u);
}

TEST(KHop, TwoHopCoverSetExcludesSelf) {
    const Graph g = star_graph(5);
    const auto cover = two_hop_cover_set(g, 1);  // leaf: center + other leaves
    EXPECT_EQ(cover.size(), 4u);
    for (NodeId y : cover) EXPECT_NE(y, 1u);
}

TEST(KHop, LocalTopologyGlobalWhenKZero) {
    const Graph g = cycle_graph(8);
    const LocalTopology t = local_topology(g, 3, 0);
    EXPECT_EQ(t.graph, g);
    for (char v : t.visible) EXPECT_TRUE(v);
}

TEST(KHop, OneHopViewHasNoNeighborNeighborLinks) {
    // Triangle: from node 0 with 1-hop info, the edge (1,2) is invisible.
    Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    const LocalTopology t = local_topology(g, 0, 1);
    EXPECT_TRUE(t.graph.has_edge(0, 1));
    EXPECT_TRUE(t.graph.has_edge(0, 2));
    EXPECT_FALSE(t.graph.has_edge(1, 2));  // both exactly 1 hop away
    EXPECT_TRUE(t.visible[1]);
    EXPECT_TRUE(t.visible[2]);
}

TEST(KHop, TwoHopViewSeesNeighborNeighborLinksButNotBoundary) {
    // Paper Figure 6(a) boundary behavior, distilled: 0-1, 0-2, 1-3, 2-4,
    // 3-4.  From node 0 with 2-hop info: nodes {0..4} minus none... 3 and 4
    // are at distance 2; the link (3,4) joins two exactly-2-hop nodes and
    // must be invisible.
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 4);
    g.add_edge(3, 4);
    const LocalTopology t = local_topology(g, 0, 2);
    EXPECT_TRUE(t.visible[3]);
    EXPECT_TRUE(t.visible[4]);
    EXPECT_TRUE(t.graph.has_edge(1, 3));   // 1-hop x 2-hop: visible
    EXPECT_FALSE(t.graph.has_edge(3, 4));  // 2-hop x 2-hop: invisible

    // With 3-hop information the link becomes visible.
    const LocalTopology t3 = local_topology(g, 0, 3);
    EXPECT_TRUE(t3.graph.has_edge(3, 4));
}

TEST(KHop, InvisibleNodesAreIsolated) {
    const Graph g = path_graph(6);
    const LocalTopology t = local_topology(g, 0, 2);
    EXPECT_FALSE(t.visible[3]);
    EXPECT_FALSE(t.visible[4]);
    EXPECT_EQ(t.graph.degree(3), 0u);
    EXPECT_EQ(t.graph.degree(4), 0u);
    // Edge (2,3) crosses the horizon: 2 is at dist 2, 3 at dist 3 -> gone.
    EXPECT_FALSE(t.graph.has_edge(2, 3));
}

TEST(KHop, LocalTopologyIsSubgraph) {
    const Graph g = grid_graph(4, 4);
    for (std::size_t k = 1; k <= 4; ++k) {
        const LocalTopology t = local_topology(g, 5, k);
        for (const Edge& e : t.graph.edges()) {
            EXPECT_TRUE(g.has_edge(e.a, e.b));
        }
        EXPECT_LE(t.graph.edge_count(), g.edge_count());
    }
}

TEST(KHop, MonotoneInK) {
    const Graph g = grid_graph(4, 4);
    std::size_t prev_edges = 0;
    for (std::size_t k = 1; k <= 6; ++k) {
        const LocalTopology t = local_topology(g, 0, k);
        EXPECT_GE(t.graph.edge_count(), prev_edges);
        prev_edges = t.graph.edge_count();
    }
    EXPECT_EQ(prev_edges, g.edge_count());  // k=6 covers the whole grid
}

TEST(KHop, CenterIsAlwaysVisible) {
    const Graph g = cycle_graph(5);
    for (NodeId v = 0; v < 5; ++v) {
        const LocalTopology t = local_topology(g, v, 1);
        EXPECT_TRUE(t.visible[v]);
        EXPECT_EQ(t.center, v);
    }
}

}  // namespace
}  // namespace adhoc
