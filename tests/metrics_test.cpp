// Unit tests for topology metrics (ncr, degrees, articulation points).

#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/priority.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/unit_disk.hpp"
#include "stats/rng.hpp"

namespace adhoc {
namespace {

TEST(Metrics, NcrOfStarCenterIsOne) {
    const Graph g = star_graph(5);
    EXPECT_DOUBLE_EQ(neighborhood_connectivity_ratio(g, 0), 1.0);  // no pair linked
}

TEST(Metrics, NcrOfCompleteGraphIsZero) {
    const Graph g = complete_graph(5);
    for (NodeId v = 0; v < 5; ++v) {
        EXPECT_DOUBLE_EQ(neighborhood_connectivity_ratio(g, v), 0.0);
    }
}

TEST(Metrics, NcrDegenerateNodes) {
    const Graph g = path_graph(3);
    EXPECT_DOUBLE_EQ(neighborhood_connectivity_ratio(g, 0), 0.0);  // leaf
    EXPECT_DOUBLE_EQ(neighborhood_connectivity_ratio(g, 1), 1.0);  // open middle
}

TEST(Metrics, NcrPartial) {
    // Node 0 has neighbors 1,2,3; only (1,2) linked: ncr = 1 - 1/3.
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(1, 2);
    EXPECT_NEAR(neighborhood_connectivity_ratio(g, 0), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, AllNcrMatchesPerNode) {
    const Graph g = grid_graph(3, 3);
    const auto ncr = all_ncr(g);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_DOUBLE_EQ(ncr[v], neighborhood_connectivity_ratio(g, v));
    }
}

/// The per-pair count the stamp count replaced: `has_edge` on every pair
/// of v's neighbours.
std::size_t pairwise_connected(const Graph& g, NodeId v) {
    const auto nv = g.neighbors(v);
    std::size_t connected = 0;
    for (std::size_t i = 0; i < nv.size(); ++i) {
        for (std::size_t j = i + 1; j < nv.size(); ++j) connected += g.has_edge(nv[i], nv[j]);
    }
    return connected;
}

/// ncr(v) from the per-pair count, in the arithmetic the keys always used.
double pairwise_ncr(const Graph& g, NodeId v) {
    const std::size_t deg = g.degree(v);
    if (deg <= 1) return 0.0;
    const double total_pairs = static_cast<double>(deg) * static_cast<double>(deg - 1) / 2.0;
    return 1.0 - static_cast<double>(pairwise_connected(g, v)) / total_pairs;
}

TEST(Metrics, StampCountMatchesPairwiseCount) {
    std::vector<Graph> graphs;
    Rng rng(20261020);
    for (int i = 0; i < 12; ++i) {
        const std::size_t n = 20 + rng.index(81);  // 20..100
        const double degree = std::vector<double>{2.0, 4.0, 8.0, 12.0}[rng.index(4)];
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        graphs.push_back(unit_disk_graph(
            pts, std::sqrt(degree * 100.0 / (3.14159265358979323846 * static_cast<double>(n)))));
    }
    graphs.emplace_back(5);           // isolated nodes
    graphs.push_back(path_graph(2));  // two degree-1 nodes
    graphs.push_back(star_graph(6));  // degree-1 leaves around an open center
    for (std::size_t k = 2; k <= 8; ++k) graphs.push_back(complete_graph(k));

    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const Graph& g = graphs[gi];
        const std::size_t n = g.node_count();
        const BfsGraph ordered(g);
        std::vector<NodeId> internal(n);
        for (NodeId x = 0; x < n; ++x) internal[ordered.original(x)] = x;
        // Each stamp array serves every call on its graph without clearing;
        // the copy is visited in a different order than its ids.
        std::vector<NodeId> stamp(n, kInvalidNode);
        std::vector<NodeId> ordered_stamp(n, kInvalidNode);
        const std::vector<double> ncr = all_ncr(g);
        const std::vector<double> ordered_ncr = all_ncr(ordered);
        const PriorityKeys keys(g, PriorityScheme::kNcr);
        const BfsPriorityKeys ordered_keys(ordered, PriorityScheme::kNcr);
        for (NodeId v = 0; v < n; ++v) {
            const NodeId x = internal[v];
            const auto tag = ::testing::Message() << "graph " << gi << " v=" << v;
            const std::size_t want = pairwise_connected(g, v);
            EXPECT_EQ(connected_neighbor_pairs(g, v, stamp), want) << tag;
            EXPECT_EQ(connected_neighbor_pairs(ordered, x, ordered_stamp), want) << tag;
            const double want_ncr = pairwise_ncr(g, v);
            EXPECT_EQ(bits(ncr[v]), bits(want_ncr)) << tag;
            EXPECT_EQ(bits(ordered_ncr[x]), bits(want_ncr)) << tag;
            EXPECT_EQ(bits(neighborhood_connectivity_ratio(g, v)), bits(want_ncr)) << tag;
            const Priority p = keys.evaluate(v, NodeStatus::kUnvisited);
            EXPECT_EQ(bits(p.key1), bits(want_ncr)) << tag;
            const BfsPriorityKeys::Key key = ordered_keys.key(x);
            EXPECT_EQ(bits(key.ncr), bits(want_ncr)) << tag;
            EXPECT_EQ(key.rest, std::uint64_t{g.degree(v)} << 32 | v) << tag;
            // The copy's keys order v against every node as the original's do.
            for (NodeId w = 0; w < n; ++w) {
                const Priority q = keys.evaluate(w, NodeStatus::kUnvisited);
                EXPECT_EQ(key > ordered_keys.key(internal[w]), p > q) << tag << " w=" << w;
            }
        }
    }
}

TEST(Metrics, DegreeStats) {
    const Graph g = star_graph(5);
    EXPECT_DOUBLE_EQ(average_degree(g), 2.0 * 4 / 5);
    EXPECT_EQ(max_degree(g), 4u);
    EXPECT_EQ(min_degree(g), 1u);
    EXPECT_DOUBLE_EQ(average_degree(Graph{}), 0.0);
}

TEST(Metrics, ArticulationPointsOfPath) {
    const Graph g = path_graph(5);
    const auto cut = articulation_points(g);
    EXPECT_FALSE(cut[0]);
    EXPECT_TRUE(cut[1]);
    EXPECT_TRUE(cut[2]);
    EXPECT_TRUE(cut[3]);
    EXPECT_FALSE(cut[4]);
}

TEST(Metrics, ArticulationPointsOfCycleNone) {
    const Graph g = cycle_graph(6);
    for (char c : articulation_points(g)) EXPECT_FALSE(c);
}

TEST(Metrics, ArticulationPointBridgeBetweenTriangles) {
    // Two triangles joined at node 2: 0-1-2 and 2-3-4.
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(0, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    g.add_edge(2, 4);
    const auto cut = articulation_points(g);
    EXPECT_TRUE(cut[2]);
    EXPECT_FALSE(cut[0]);
    EXPECT_FALSE(cut[1]);
    EXPECT_FALSE(cut[3]);
    EXPECT_FALSE(cut[4]);
}

TEST(Metrics, ArticulationStarCenter) {
    const Graph g = star_graph(6);
    const auto cut = articulation_points(g);
    EXPECT_TRUE(cut[0]);
    for (NodeId v = 1; v < 6; ++v) EXPECT_FALSE(cut[v]);
}

TEST(Metrics, ClusteringCoefficient) {
    EXPECT_DOUBLE_EQ(clustering_coefficient(complete_graph(4)), 1.0);
    EXPECT_DOUBLE_EQ(clustering_coefficient(star_graph(5)), 0.0);
    EXPECT_DOUBLE_EQ(clustering_coefficient(path_graph(4)), 0.0);
}

}  // namespace
}  // namespace adhoc
