// Unit and integration tests for the simulated hello protocol.  The key
// theorem-level check: k lossless rounds reproduce Definition 2's G_k(v)
// exactly, and lossy rounds produce sub-views that remain safe for the
// coverage condition (Theorem 2).

#include "sim/hello.hpp"

#include <gtest/gtest.h>

#include "algorithms/generic.hpp"
#include "core/coverage.hpp"
#include "graph/unit_disk.hpp"
#include "sim/generic_protocol.hpp"
#include "verify/cds_check.hpp"

namespace adhoc {
namespace {

void expect_views_equal(const LocalTopology& hello, const LocalTopology& analytic,
                        NodeId v, std::size_t k) {
    EXPECT_EQ(hello.members, analytic.members) << "node " << v << " k=" << k;
    EXPECT_EQ(reference::expand(hello), reference::expand(analytic))
        << "node " << v << " k=" << k;
}

TEST(Hello, LosslessRoundsReproduceDefinition2Exactly) {
    Rng gen(199);
    UnitDiskParams params;
    params.node_count = 40;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);
    for (std::size_t k : {1u, 2u, 3u, 4u}) {
        Rng rng(1);
        const auto views = hello_views(net.graph, k, rng);
        for (NodeId v = 0; v < net.graph.node_count(); ++v) {
            expect_views_equal(views[v], local_topology(net.graph, v, k), v, k);
        }
    }
}

TEST(Hello, DeterministicToyGraphs) {
    for (const Graph& g : {path_graph(6), cycle_graph(7), grid_graph(3, 4),
                           star_graph(5), complete_graph(4)}) {
        for (std::size_t k : {1u, 2u, 3u}) {
            Rng rng(3);
            const auto views = hello_views(g, k, rng);
            for (NodeId v = 0; v < g.node_count(); ++v) {
                expect_views_equal(views[v], local_topology(g, v, k), v, k);
            }
        }
    }
}

TEST(Hello, LossyViewsAreSubViews) {
    Rng gen(211);
    UnitDiskParams params;
    params.node_count = 40;
    params.average_degree = 8.0;
    const auto net = generate_network_checked(params, gen);
    HelloProtocol hello(net.graph, HelloConfig{.rounds = 2, .loss_probability = 0.4});
    Rng rng(5);
    hello.run(rng);
    for (NodeId v = 0; v < net.graph.node_count(); ++v) {
        const auto lossy = hello.view_of(v);
        const auto full = local_topology(net.graph, v, 2);
        for (const NodeId x : lossy.members) {
            EXPECT_NE(full.local_of(x), kNoLocal) << v << "/" << x;
        }
        const Graph full_graph = reference::expand(full);
        for (const Edge& e : reference::expand(lossy).edges()) {
            EXPECT_TRUE(full_graph.has_edge(e.a, e.b)) << v;
            EXPECT_TRUE(net.graph.has_edge(e.a, e.b)) << v;  // never invents links
        }
    }
}

TEST(Hello, OverheadGrowsWithRounds) {
    const Graph g = grid_graph(5, 5);
    std::size_t prev_bytes = 0;
    for (std::size_t k : {1u, 2u, 3u}) {
        HelloProtocol hello(g, HelloConfig{.rounds = k});
        Rng rng(1);
        hello.run(rng);
        EXPECT_EQ(hello.total_messages(), g.node_count() * k);
        EXPECT_GT(hello.total_bytes(), prev_bytes);
        prev_bytes = hello.total_bytes();
    }
}

TEST(Hello, BroadcastOverHelloViewsMatchesAnalytic) {
    // End-to-end: the generic FR protocol driven by hello-built views must
    // produce the identical forward set to the analytic k-hop views.
    Rng gen(223);
    UnitDiskParams params;
    params.node_count = 50;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);

    const GenericConfig cfg = generic_fr_config(2);
    Rng hello_rng(7);
    auto views = hello_views(net.graph, 2, hello_rng);

    GenericAgent hello_agent(net.graph, cfg, std::move(views));
    Simulator sim_hello(net.graph);
    Rng r1(9);
    const auto via_hello = sim_hello.run(0, hello_agent, r1);

    GenericAgent analytic_agent(net.graph, cfg);
    Simulator sim_analytic(net.graph);
    Rng r2(9);
    const auto via_analytic = sim_analytic.run(0, analytic_agent, r2);

    EXPECT_EQ(via_hello.transmitted, via_analytic.transmitted);
    EXPECT_TRUE(via_hello.full_delivery);
}

TEST(Hello, LossyViewsStillYieldCoveringBroadcast) {
    // Theorem 2: edge-underinformed sub-views are safe (fewer prunes, no
    // coverage hole) PROVIDED 1-hop neighbor knowledge is complete — hello
    // repetition makes neighbor discovery reliable in practice.
    Rng gen(227);
    UnitDiskParams params;
    params.node_count = 50;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);

    for (double loss : {0.2, 0.5, 0.8}) {
        HelloProtocol hello(net.graph, HelloConfig{.rounds = 2, .loss_probability = loss});
        Rng hrng(static_cast<std::uint64_t>(loss * 100));
        hello.run(hrng);
        std::vector<LocalTopology> views;
        for (NodeId v = 0; v < net.graph.node_count(); ++v) views.push_back(hello.view_of(v));

        GenericAgent agent(net.graph, generic_fr_config(2), std::move(views));
        Simulator sim(net.graph);
        Rng rng(3);
        const auto result = sim.run(0, agent, rng);
        EXPECT_TRUE(result.full_delivery) << "loss " << loss;
        EXPECT_TRUE(check_broadcast(net.graph, 0, result).ok()) << "loss " << loss;
    }
}

TEST(Hello, StaticForwardSetOverHelloViewsMatchesAnalytic) {
    // The static-timing branch of the view-injecting agent constructor.
    Rng gen(239);
    UnitDiskParams params;
    params.node_count = 40;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);
    Rng hrng(3);
    auto views = hello_views(net.graph, 2, hrng);

    const GenericConfig cfg = generic_static_config(2, PriorityScheme::kId);
    GenericAgent from_hello(net.graph, cfg, std::move(views));
    GenericAgent analytic(net.graph, cfg);
    EXPECT_EQ(from_hello.static_forward_set(), analytic.static_forward_set());
}

TEST(Hello, UnknownNeighborsCanBreakCoverage) {
    // The negative counterpart: when even round-1 hellos are lossy, a node
    // can prune while an unknown neighbor depends on it.  Theorem 2's
    // local-view safety does NOT extend to incomplete neighbor sets; some
    // seed below must exhibit a delivery failure.
    Rng gen(233);
    UnitDiskParams params;
    params.node_count = 60;
    params.average_degree = 6.0;
    const auto net = generate_network_checked(params, gen);

    bool any_failure = false;
    for (std::uint64_t seed = 0; seed < 30 && !any_failure; ++seed) {
        HelloProtocol hello(net.graph,
                            HelloConfig{.rounds = 2,
                                        .loss_probability = 0.6,
                                        .reliable_neighbor_discovery = false});
        Rng hrng(seed);
        hello.run(hrng);
        std::vector<LocalTopology> views;
        for (NodeId v = 0; v < net.graph.node_count(); ++v) views.push_back(hello.view_of(v));
        GenericAgent agent(net.graph, generic_fr_config(2), std::move(views));
        Simulator sim(net.graph);
        Rng rng(3);
        any_failure = !sim.run(0, agent, rng).full_delivery;
    }
    EXPECT_TRUE(any_failure);
}

TEST(Hello, MoreLossMeansMoreForwardsOnAverage) {
    Rng gen(229);
    UnitDiskParams params;
    params.node_count = 60;
    params.average_degree = 8.0;
    const auto net = generate_network_checked(params, gen);

    auto mean_forwards = [&](double loss) {
        double total = 0;
        const int runs = 10;
        for (int i = 0; i < runs; ++i) {
            HelloProtocol hello(net.graph, HelloConfig{.rounds = 2, .loss_probability = loss});
            Rng hrng(static_cast<std::uint64_t>(i) * 31 + 1);
            hello.run(hrng);
            std::vector<LocalTopology> views;
            for (NodeId v = 0; v < net.graph.node_count(); ++v) {
                views.push_back(hello.view_of(v));
            }
            GenericAgent agent(net.graph, generic_fr_config(2), std::move(views));
            Simulator sim(net.graph);
            Rng rng(3);
            total += static_cast<double>(sim.run(0, agent, rng).forward_count);
        }
        return total / runs;
    };
    EXPECT_LE(mean_forwards(0.0), mean_forwards(0.6));
}

// ---- Neighbor liveness aging (PR 5) -----------------------------------

TEST(HelloLiveness, LosslessRunNeverAges) {
    const Graph g = path_graph(4);
    HelloProtocol hello(g, HelloConfig{.rounds = 4, .liveness_timeout = 2});
    Rng rng(1);
    hello.run(rng);
    EXPECT_EQ(hello.aged_out(), 0u);
    for (NodeId v = 0; v < 4; ++v) {
        EXPECT_FALSE(hello.view_stale(v)) << "node " << v;
        EXPECT_FALSE(hello.view_of(v).stale);
    }
}

TEST(HelloLiveness, SilentNeighborAgesOutAndMarksViewStale) {
    // Node 2 bursts (all its HELLOs lost) from round 1 on: after
    // `liveness_timeout` silent rounds node 1 must evict the 1-2 entry.
    faults::FaultPlan plan;
    plan.hello_bursts = {{2, 1, 3}};
    const Graph g = path_graph(3);
    HelloProtocol hello(g, HelloConfig{.rounds = 4, .liveness_timeout = 2}, &plan);
    Rng rng(1);
    hello.run(rng);
    EXPECT_GE(hello.aged_out(), 1u);
    EXPECT_EQ(hello.burst_drops(), 3u);  // node 2 has one neighbor, three burst rounds
    EXPECT_TRUE(hello.view_stale(1));
    EXPECT_TRUE(hello.view_of(1).stale);
    EXPECT_FALSE(reference::expand(hello.view_of(1)).has_edge(1, 2));
    // Node 0 heard node 1 every round: its view stays fresh.
    EXPECT_FALSE(hello.view_stale(0));
    EXPECT_TRUE(reference::expand(hello.view_of(0)).has_edge(0, 1));
}

TEST(HelloLiveness, TimeoutZeroKeepsHistoricalBehavior) {
    faults::FaultPlan plan;
    plan.hello_bursts = {{2, 1, 3}};
    const Graph g = path_graph(3);
    HelloProtocol hello(g, HelloConfig{.rounds = 4}, &plan);
    Rng rng(1);
    hello.run(rng);
    EXPECT_EQ(hello.aged_out(), 0u);
    EXPECT_FALSE(hello.view_stale(1));
    // The entry learned in round 0 survives: no aging without a timeout.
    EXPECT_TRUE(reference::expand(hello.view_of(1)).has_edge(1, 2));
}

TEST(HelloLiveness, AnalyticViewsAreNeverStale) {
    const Graph g = cycle_graph(5);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_FALSE(local_topology(g, v, 2).stale);
    }
}

}  // namespace
}  // namespace adhoc
