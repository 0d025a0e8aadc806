// Unit tests for Stojmenovic's CDS + neighbor-elimination broadcast.

#include "algorithms/stojmenovic.hpp"

#include <gtest/gtest.h>

#include "algorithms/wu_li.hpp"
#include "graph/unit_disk.hpp"

namespace adhoc {
namespace {

TEST(Stojmenovic, DeliversOnDeterministicTopologies) {
    const StojmenovicAlgorithm algo;
    for (const Graph& g : {path_graph(6), cycle_graph(8), grid_graph(4, 4)}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed);
            EXPECT_TRUE(algo.broadcast(g, 0, rng).full_delivery)
                << "n=" << g.node_count() << " seed=" << seed;
        }
    }
}

TEST(Stojmenovic, DeliversOnRandomNetworks) {
    Rng rng(101);
    UnitDiskParams params;
    params.node_count = 60;
    params.average_degree = 6.0;
    const StojmenovicAlgorithm algo;
    for (int i = 0; i < 10; ++i) {
        const auto net = generate_network_checked(params, rng);
        Rng run(i);
        EXPECT_TRUE(
            algo.broadcast(net.graph, static_cast<NodeId>(run.index(60)), run).full_delivery)
            << i;
    }
}

TEST(Stojmenovic, NeverForwardsOutsideWuLiCds) {
    Rng rng(103);
    UnitDiskParams params;
    params.node_count = 50;
    params.average_degree = 8.0;
    const auto net = generate_network_checked(params, rng);
    const auto cds = wu_li_forward_set(
        net.graph, WuLiConfig{.hops = 2, .priority = PriorityScheme::kDegree});
    const StojmenovicAlgorithm algo;
    Rng run(7);
    const NodeId src = 0;
    const auto result = algo.broadcast(net.graph, src, run);
    for (NodeId v = 0; v < net.graph.node_count(); ++v) {
        if (v == src) continue;
        if (result.transmitted[v]) {
            EXPECT_TRUE(cds[v]) << "node " << v;
        }
    }
}

TEST(Stojmenovic, EliminationPrunesBelowStaticCds) {
    // On average the dynamic elimination should do no worse than relaying
    // through the whole static CDS.
    Rng rng(107);
    UnitDiskParams params;
    params.node_count = 60;
    params.average_degree = 8.0;
    const StojmenovicAlgorithm dyn;
    const WuLiAlgorithm stat(WuLiConfig{.hops = 2, .priority = PriorityScheme::kDegree});
    double dyn_total = 0, stat_total = 0;
    for (int i = 0; i < 15; ++i) {
        const auto net = generate_network_checked(params, rng);
        Rng a(i), b(i);
        dyn_total += static_cast<double>(dyn.broadcast(net.graph, 0, a).forward_count);
        stat_total += static_cast<double>(stat.broadcast(net.graph, 0, b).forward_count);
    }
    EXPECT_LE(dyn_total, stat_total);
}

}  // namespace
}  // namespace adhoc
