// Unit tests for k-hop neighborhoods and Definition-2 local topologies.
//
// The critical behavior is the edge-visibility boundary: G_k(v) contains
// E ∩ (N_{k-1}(v) × N_k(v)) — links between two nodes both exactly k hops
// from v are invisible.  Figure 6(a) of the paper depends on it.

#include "graph/khop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/coverage.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"

namespace adhoc {
namespace {

/// Brute-force Definition 2: full BFS distances from the center, then a
/// scan of every edge of g.  Holds the answer in the full id space (a
/// visibility mask and a subgraph of g); its CSR comes from
/// `induced_topology` over that subgraph, independently of `compile_ball`.
struct Oracle {
    std::vector<char> visible;
    Graph graph;
    LocalTopology topo;
};

Oracle oracle_topology(const Graph& g, NodeId v, std::size_t k) {
    Oracle o;
    const auto dist = bfs_distances(g, v);
    o.visible.assign(g.node_count(), 0);
    std::vector<NodeId> members;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (dist[u] != kUnreachable && dist[u] <= k) {
            o.visible[u] = 1;
            members.push_back(u);
        }
    }
    // Edge (a,b) is visible iff min(dist) <= k-1 and max(dist) <= k.
    o.graph = Graph(g.node_count());
    for (const Edge& e : g.edges()) {
        const std::size_t da = dist[e.a];
        const std::size_t db = dist[e.b];
        if (da == kUnreachable || db == kUnreachable) continue;
        if (std::min(da, db) <= k - 1 && std::max(da, db) <= k) o.graph.add_edge(e.a, e.b);
    }
    o.topo = induced_topology(o.graph, v, k, std::move(members));
    return o;
}

bool visible(const LocalTopology& t, NodeId u) { return t.local_of(u) != kNoLocal; }

void expect_same_topology(const LocalTopology& got, const Oracle& want,
                          const std::string& where) {
    ASSERT_EQ(got.center, want.topo.center) << where;
    ASSERT_EQ(got.hops, want.topo.hops) << where;
    ASSERT_EQ(got.members, want.topo.members) << where;
    for (NodeId u = 0; u < want.visible.size(); ++u) {
        ASSERT_EQ(visible(got, u), want.visible[u] != 0) << where << " node " << u;
    }
    const Graph full = reference::expand(got);
    ASSERT_EQ(full.node_count(), want.graph.node_count()) << where;
    ASSERT_EQ(full.edge_count(), want.graph.edge_count()) << where;
    for (NodeId u = 0; u < want.graph.node_count(); ++u) {
        const auto a = full.neighbors(u);
        const auto b = want.graph.neighbors(u);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << where << " row of node " << u;
    }
    ASSERT_EQ(got.offsets, want.topo.offsets) << where;
    ASSERT_EQ(got.edges, want.topo.edges) << where;
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

    // Hand-built: the builder keeps only links among members.  Node 2 is
    // not a member, so 1-2 and 2-3 are dropped; every row stays ascending.
    Graph g(5);
    for (const Edge& e : {Edge{0, 1}, Edge{0, 3}, Edge{0, 4}, Edge{1, 2}, Edge{1, 4},
                          Edge{2, 3}, Edge{3, 4}}) {
        g.add_edge(e.a, e.b);
    }
    const LocalTopology t = induced_topology(g, 0, 2, {0, 1, 3, 4});
    EXPECT_EQ(t.offsets, (std::vector<std::uint32_t>{0, 3, 5, 7, 10}));
    EXPECT_EQ(t.edges, (std::vector<std::uint32_t>{1, 2, 3, 0, 3, 0, 3, 0, 1, 2}));
    for (std::uint32_t i = 0; i < t.size(); ++i) {
        EXPECT_TRUE(std::is_sorted(t.row(i).begin(), t.row(i).end())) << "row " << i;
    }
    const Graph full = reference::expand(t);
    EXPECT_EQ(full.node_count(), 5u);
    EXPECT_FALSE(full.has_edge(1, 2));
    EXPECT_FALSE(full.has_edge(2, 3));
    EXPECT_EQ(full.degree(2), 0u);
    EXPECT_EQ(full.edge_count(), 5u);
}

TEST(KHop, LocalTopologyIsBallSized) {
    // The same ball inside a 10x larger id space: only `id_space` may
    // differ, so no array of a LocalTopology scales with n.
    UnitDiskParams params;
    params.node_count = 30;
    params.average_degree = 6.0;
    Rng gen(0x6b05);
    const Graph g = generate_network_checked(params, gen).graph;
    const std::size_t n = g.node_count();
    Graph padded(10 * n);
    for (const Edge& e : g.edges()) padded.add_edge(e.a, e.b);
    for (const std::size_t k : {1u, 2u, 3u}) {
        for (NodeId v = 0; v < n; ++v) {
            const LocalTopology small = local_topology(g, v, k);
            LocalTopology big = local_topology(padded, v, k);
            EXPECT_EQ(small.id_space, n);
            EXPECT_EQ(big.id_space, 10 * n);
            big.id_space = small.id_space;
            EXPECT_EQ(big, small) << "k=" << k << " center=" << v;
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
    EXPECT_EQ(ball.view.members, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(KHop, CompileBallGrowsItsBuffersAcrossBallSizes) {
    // One scratch reused over balls of very different shapes: a star's
    // leaves (two members, but a 299-entry hub row to scan) before its hub
    // (300 members), and a dense unit-disk graph of a larger id space.
    // `compile_ball` writes one queue slot and one column slot per scanned
    // adjacency entry, so these force the grow-only buffers and the O(n)
    // arrays to grow mid-stream; every ball must still equal Definition 2.
    std::vector<std::pair<std::string, Graph>> graphs;
    graphs.emplace_back("star 300", star_graph(300));
    UnitDiskParams params;
    params.node_count = 400;
    params.average_degree = 40.0;
    Rng gen(0x6b06);
    graphs.emplace_back("dense unit-disk", generate_network_checked(params, gen).graph);
    BallScratch ball;
    for (const auto& [name, g] : graphs) {
        for (const std::size_t k : {1u, 2u, 3u}) {
            for (NodeId i = 0; i < g.node_count(); ++i) {
                const NodeId v = (i + 1) % static_cast<NodeId>(g.node_count());
                compile_ball(g, v, k, ball);
                expect_same_topology(ball.view, oracle_topology(g, v, k),
                                     name + " k=" + std::to_string(k) +
                                         " center=" + std::to_string(v));
            }
        }
    }
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
    EXPECT_EQ(reference::expand(t), g);
    for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_TRUE(visible(t, v));
}

TEST(KHop, OneHopViewHasNoNeighborNeighborLinks) {
    // Triangle: from node 0 with 1-hop info, the edge (1,2) is invisible.
    Graph g(3);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    const LocalTopology t = local_topology(g, 0, 1);
    const Graph full = reference::expand(t);
    EXPECT_TRUE(full.has_edge(0, 1));
    EXPECT_TRUE(full.has_edge(0, 2));
    EXPECT_FALSE(full.has_edge(1, 2));  // both exactly 1 hop away
    EXPECT_TRUE(visible(t, 1));
    EXPECT_TRUE(visible(t, 2));
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
    const Graph full = reference::expand(t);
    EXPECT_TRUE(visible(t, 3));
    EXPECT_TRUE(visible(t, 4));
    EXPECT_TRUE(full.has_edge(1, 3));   // 1-hop x 2-hop: visible
    EXPECT_FALSE(full.has_edge(3, 4));  // 2-hop x 2-hop: invisible

    // With 3-hop information the link becomes visible.
    const LocalTopology t3 = local_topology(g, 0, 3);
    EXPECT_TRUE(reference::expand(t3).has_edge(3, 4));
}

TEST(KHop, InvisibleNodesAreIsolated) {
    const Graph g = path_graph(6);
    const LocalTopology t = local_topology(g, 0, 2);
    const Graph full = reference::expand(t);
    EXPECT_FALSE(visible(t, 3));
    EXPECT_FALSE(visible(t, 4));
    EXPECT_EQ(full.degree(3), 0u);
    EXPECT_EQ(full.degree(4), 0u);
    // Edge (2,3) crosses the horizon: 2 is at dist 2, 3 at dist 3 -> gone.
    EXPECT_FALSE(full.has_edge(2, 3));
}

TEST(KHop, LocalTopologyIsSubgraph) {
    const Graph g = grid_graph(4, 4);
    for (std::size_t k = 1; k <= 4; ++k) {
        const Graph full = reference::expand(local_topology(g, 5, k));
        for (const Edge& e : full.edges()) {
            EXPECT_TRUE(g.has_edge(e.a, e.b));
        }
        EXPECT_LE(full.edge_count(), g.edge_count());
    }
}

TEST(KHop, MonotoneInK) {
    const Graph g = grid_graph(4, 4);
    std::size_t prev_edges = 0;
    for (std::size_t k = 1; k <= 6; ++k) {
        const Graph full = reference::expand(local_topology(g, 0, k));
        EXPECT_GE(full.edge_count(), prev_edges);
        prev_edges = full.edge_count();
    }
    EXPECT_EQ(prev_edges, g.edge_count());  // k=6 covers the whole grid
}

TEST(KHop, CenterIsAlwaysVisible) {
    const Graph g = cycle_graph(5);
    for (NodeId v = 0; v < 5; ++v) {
        const LocalTopology t = local_topology(g, v, 1);
        EXPECT_TRUE(visible(t, v));
        EXPECT_EQ(t.center, v);
    }
}

TEST(BfsGraph, NumbersNodesInBfsOrderAcrossComponents) {
    // Components {0, 3, 5}, {1, 4}, {2} and the isolated 6: seeds are taken
    // in ascending original id, and each component is numbered in BFS
    // discovery order, rows scanned in ascending original id.
    Graph g(7);
    g.add_edge(5, 0);
    g.add_edge(5, 3);
    g.add_edge(4, 1);
    const BfsGraph b(g);
    ASSERT_EQ(b.node_count(), 7u);
    const std::vector<NodeId> want_original = {0, 5, 3, 1, 4, 2, 6};
    for (NodeId i = 0; i < 7; ++i) {
        EXPECT_EQ(b.original(i), want_original[i]) << i;
        EXPECT_EQ(b.internal(b.original(i)), i);
    }
    // Node 5's row is {0, 3} in original ids, that is internal {0, 2}.
    EXPECT_EQ(std::vector<NodeId>(b.neighbors(1).begin(), b.neighbors(1).end()),
              (std::vector<NodeId>{0, 2}));
    EXPECT_EQ(b.degree(5), 0u);
    EXPECT_EQ(b.bytes(), (8 + 6 + 7) * sizeof(NodeId));
}

TEST(BfsGraph, RowsAreTheOriginalRowsInOriginalOrder) {
    UnitDiskParams params;
    params.node_count = 300;
    params.average_degree = 7.0;
    Rng rng(0xb5f);
    const Graph g = generate_network_checked(params, rng).graph;
    const BfsGraph b(g);
    ASSERT_EQ(b.node_count(), g.node_count());
    std::vector<char> seen(g.node_count(), 0);
    for (NodeId i = 0; i < b.node_count(); ++i) {
        const NodeId v = b.original(i);
        ASSERT_FALSE(seen[v]) << v;
        seen[v] = 1;
        const auto row = b.neighbors(i);
        ASSERT_EQ(row.size(), g.degree(v));
        for (std::size_t j = 0; j < row.size(); ++j) {
            EXPECT_EQ(b.original(row[j]), g.neighbors(v)[j]) << v;
        }
    }
    // BFS order: a node's neighbours were discovered no later than one
    // past the node itself, so every row holds an id below the node's
    // unless the node is the component's seed.
    for (NodeId i = 1; i < b.node_count(); ++i) {
        const auto row = b.neighbors(i);
        EXPECT_LT(*std::min_element(row.begin(), row.end()), i) << i;
    }
}

}  // namespace
}  // namespace adhoc
