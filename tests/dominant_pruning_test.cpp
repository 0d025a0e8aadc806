// Unit tests for DP, TDP and PDP.

#include "algorithms/dominant_pruning.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/designation.hpp"
#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"
#include "verify/cds_check.hpp"

namespace adhoc {
namespace {

TEST(DominantPruning, Names) {
    EXPECT_EQ(DominantPruningAlgorithm(DominantPruningVariant::kDp).name(), "DP");
    EXPECT_EQ(DominantPruningAlgorithm(DominantPruningVariant::kTdp).name(), "TDP");
    EXPECT_EQ(DominantPruningAlgorithm(DominantPruningVariant::kPdp).name(), "PDP");
    EXPECT_EQ(DominantPruningAlgorithm(DominantPruningVariant::kAhbp).name(), "AHBP");
}

TEST(DominantPruning, StarOnlySourceAndMaybeCenter) {
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    const Graph g = star_graph(6);
    Rng rng(1);
    // From the center: no 2-hop targets, no designation.
    auto result = dp.broadcast(g, 0, rng);
    EXPECT_TRUE(result.full_delivery);
    EXPECT_EQ(result.forward_count, 1u);
    // From a leaf: designate the center.
    result = dp.broadcast(g, 2, rng);
    EXPECT_TRUE(result.full_delivery);
    EXPECT_EQ(result.forward_count, 2u);
    EXPECT_TRUE(result.transmitted[0]);
}

TEST(DominantPruning, PathChainsDesignations) {
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    const Graph g = path_graph(5);
    Rng rng(1);
    const auto result = dp.broadcast(g, 0, rng);
    EXPECT_TRUE(result.full_delivery);
    EXPECT_EQ(result.forward_count, 4u);  // 0,1,2,3; leaf 4 silent
    EXPECT_FALSE(result.transmitted[4]);
}

TEST(DominantPruning, AllVariantsDeliverOnRandomNetworks) {
    Rng rng(61);
    UnitDiskParams params;
    params.node_count = 60;
    params.average_degree = 6.0;
    for (int i = 0; i < 10; ++i) {
        const auto net = generate_network_checked(params, rng);
        for (auto variant : {DominantPruningVariant::kDp, DominantPruningVariant::kTdp,
                             DominantPruningVariant::kPdp, DominantPruningVariant::kAhbp}) {
            const DominantPruningAlgorithm algo(variant);
            Rng run(i);
            const NodeId src = static_cast<NodeId>(run.index(60));
            const auto result = algo.broadcast(net.graph, src, run);
            EXPECT_TRUE(result.full_delivery)
                << to_string(variant) << " iteration " << i;
            EXPECT_TRUE(check_broadcast(net.graph, src, result).ok())
                << to_string(variant) << " iteration " << i;
        }
    }
}

TEST(DominantPruning, TdpAndPdpNeverWorseThanDpOnAverage) {
    // Lou & Wu's claim (Section 6.3): TDP/PDP reduce the 2-hop coverage
    // obligation, so they designate no more nodes than DP on average.
    Rng rng(67);
    UnitDiskParams params;
    params.node_count = 80;
    params.average_degree = 8.0;
    double dp_total = 0, tdp_total = 0, pdp_total = 0;
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    const DominantPruningAlgorithm tdp(DominantPruningVariant::kTdp);
    const DominantPruningAlgorithm pdp(DominantPruningVariant::kPdp);
    for (int i = 0; i < 20; ++i) {
        const auto net = generate_network_checked(params, rng);
        Rng run(i);
        const NodeId src = static_cast<NodeId>(run.index(80));
        dp_total += static_cast<double>(dp.broadcast(net.graph, src, run).forward_count);
        tdp_total += static_cast<double>(tdp.broadcast(net.graph, src, run).forward_count);
        pdp_total += static_cast<double>(pdp.broadcast(net.graph, src, run).forward_count);
    }
    EXPECT_LE(tdp_total, dp_total);
    EXPECT_LE(pdp_total, dp_total);
}

TEST(DominantPruning, AhbpNeverWorseThanDpOnAverage) {
    // AHBP's gateway-coverage elimination can only shrink each node's
    // obligation relative to DP.
    Rng rng(193);
    UnitDiskParams params;
    params.node_count = 70;
    params.average_degree = 8.0;
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    const DominantPruningAlgorithm ahbp(DominantPruningVariant::kAhbp);
    double dp_total = 0, ahbp_total = 0;
    for (int i = 0; i < 20; ++i) {
        const auto net = generate_network_checked(params, rng);
        Rng a(i), b(i);
        dp_total += static_cast<double>(dp.broadcast(net.graph, 0, a).forward_count);
        ahbp_total += static_cast<double>(ahbp.broadcast(net.graph, 0, b).forward_count);
    }
    EXPECT_LE(ahbp_total, dp_total);
}

TEST(DominantPruning, AhbpEliminatesSiblingCoverage) {
    // Source 0 designates {1, 2} to cover {3, 4}; node 1 must not
    // re-designate anyone for 4 (sibling 2 covers it).
    Graph g(6);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 4);
    g.add_edge(3, 5);
    const DominantPruningAlgorithm ahbp(DominantPruningVariant::kAhbp);
    Rng rng(1);
    const auto result = ahbp.broadcast(g, 0, rng);
    EXPECT_TRUE(result.full_delivery);
    // 2's own 2-hop targets after elimination are just {3}? 3 is covered
    // by sibling 1 -> 2 designates nobody and 4 is a leaf.
    EXPECT_FALSE(result.transmitted[4]);
}

TEST(DominantPruning, TdpPiggybacksTwoHopSet) {
    const DominantPruningAlgorithm tdp(DominantPruningVariant::kTdp);
    const Graph g = path_graph(4);
    Rng rng(1);
    const auto result = tdp.broadcast(g, 0, rng);
    EXPECT_TRUE(result.full_delivery);
}

TEST(DominantPruning, LateDesignationStillForwards) {
    // A node that first receives an undesignated copy can still be
    // designated by a later sender and must then forward.
    // Construction: diamond 0-1, 0-2, 1-3, 2-3, 3-4.  Source 0 designates
    // greedily to cover {3}; whichever of 1/2 is chosen, node 3 is later
    // designated to cover 4.
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    const DominantPruningAlgorithm dp(DominantPruningVariant::kDp);
    Rng rng(1);
    const auto result = dp.broadcast(g, 0, rng);
    EXPECT_TRUE(result.full_delivery);
    EXPECT_TRUE(result.transmitted[3]);
}

TEST(DominantPruning, DeterministicUnderSeed) {
    Rng gen(71);
    UnitDiskParams params;
    params.node_count = 50;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);
    const DominantPruningAlgorithm dp(DominantPruningVariant::kPdp);
    Rng a(4), b(4);
    EXPECT_EQ(dp.broadcast(net.graph, 0, a).transmitted,
              dp.broadcast(net.graph, 0, b).transmitted);
}

/// The designation rule of Lou & Wu read off whole-graph BFS distances:
/// Y = the nodes at distance exactly 2 from v, minus N[u], minus the
/// variant's extra eliminations; X = N(v) - N[u]; greedy cover of Y by X.
std::vector<NodeId> bfs_designation(const Graph& g, DominantPruningVariant variant, NodeId v,
                                    NodeId u, const std::vector<NodeId>& u_designated) {
    const auto dist_v = bfs_distances(g, v);
    std::vector<char> in_y(g.node_count(), 0);
    for (NodeId y = 0; y < g.node_count(); ++y) in_y[y] = dist_v[y] == 2;
    if (u != kInvalidNode) {
        in_y[u] = 0;
        for (NodeId y : g.neighbors(u)) in_y[y] = 0;
        if (variant == DominantPruningVariant::kPdp) {
            for (NodeId w : g.neighbors(u)) {
                if (!g.has_edge(w, v)) continue;
                for (NodeId y : g.neighbors(w)) in_y[y] = 0;
            }
        } else if (variant == DominantPruningVariant::kTdp) {
            const auto dist_u = bfs_distances(g, u);
            for (NodeId y = 0; y < g.node_count(); ++y) {
                if (dist_u[y] <= 2) in_y[y] = 0;
            }
        } else if (variant == DominantPruningVariant::kAhbp) {
            for (NodeId d : u_designated) {
                if (d == v) continue;
                in_y[d] = 0;
                for (NodeId y : g.neighbors(d)) in_y[y] = 0;
            }
        }
    }
    std::vector<NodeId> targets;
    for (NodeId y = 0; y < g.node_count(); ++y) {
        if (in_y[y]) targets.push_back(y);
    }
    std::vector<NodeId> candidates;
    for (NodeId w : g.neighbors(v)) {
        if (u != kInvalidNode && (w == u || g.has_edge(w, u))) continue;
        candidates.push_back(w);
    }
    return greedy_cover(g, candidates, targets);
}

TEST(DominantPruning, DesignatedSetsMatchBfsDefinition) {
    // Every forwarder's designations, in the order the trace records them,
    // equal the BFS-based rule applied to it and the sender it forwarded
    // for (the last sender it heard before deciding).
    Rng rng(211);
    UnitDiskParams params;
    params.node_count = 70;
    for (int i = 0; i < 12; ++i) {
        params.average_degree = 5.0 + i % 4 * 2.0;
        const auto net = generate_network_checked(params, rng);
        const Graph& g = net.graph;
        for (auto variant : {DominantPruningVariant::kDp, DominantPruningVariant::kTdp,
                             DominantPruningVariant::kPdp, DominantPruningVariant::kAhbp}) {
            const DominantPruningAlgorithm algo(variant);
            Rng run(static_cast<std::uint64_t>(i));
            const NodeId src = static_cast<NodeId>(run.index(g.node_count()));
            const auto result = algo.broadcast_traced(g, src, run, MediumConfig{});
            ASSERT_TRUE(result.full_delivery);

            std::vector<NodeId> heard_from(g.node_count(), kInvalidNode);
            std::map<NodeId, std::vector<NodeId>> designated;
            std::map<NodeId, NodeId> upstream;
            for (const TraceEvent& ev : result.trace.events()) {
                if (ev.kind == TraceKind::kReceive) heard_from[ev.node] = ev.other;
                if (ev.kind == TraceKind::kDesignate) designated[ev.other].push_back(ev.node);
                if (ev.kind == TraceKind::kTransmit) upstream[ev.node] = heard_from[ev.node];
            }
            std::size_t checked = 0;
            for (const auto& [v, u] : upstream) {
                const std::vector<NodeId> none;
                const auto it = u == kInvalidNode ? designated.end() : designated.find(u);
                const auto want =
                    bfs_designation(g, variant, v, u, it == designated.end() ? none : it->second);
                const auto got = designated.find(v);
                EXPECT_EQ(got == designated.end() ? none : got->second, want)
                    << to_string(variant) << " network " << i << " node " << v;
                ++checked;
            }
            EXPECT_EQ(checked, result.forward_count);
        }
    }
}

}  // namespace
}  // namespace adhoc
