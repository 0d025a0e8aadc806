// System tests for the continuous-traffic engine: concurrent sessions
// through one event loop, duplicate suppression, summary-vector recovery
// across faults, and the three-way per-session classification.

#include "traffic/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "faults/fault_plan.hpp"
#include "graph/graph.hpp"
#include "graph/unit_disk.hpp"
#include "traffic/policy.hpp"
#include "traffic/workload.hpp"

namespace adhoc::traffic {
namespace {

Workload single_session(NodeId source, double at) {
    Workload wl;
    wl.arrivals.push_back(SessionArrival{source, 0, at});
    wl.horizon = at;
    return wl;
}

std::string digest(const TrafficResult& r) {
    std::ostringstream out;
    out << r.delivered << '/' << r.degraded << '/' << r.partitioned << ';'
        << r.data_transmissions << ';' << r.data_bytes << ';' << r.fresh_deliveries << ';'
        << r.duplicates_suppressed << ';' << r.sv_beacons << ';' << r.control_bytes << ';'
        << r.pulls_sent << ';' << r.repairs_served << ';' << r.completion_time;
    for (const SessionOutcome& s : r.sessions) {
        out << '|' << s.source << ',' << s.seq << ',' << static_cast<int>(s.outcome) << ','
            << s.delivered_up << ',' << s.last_delivery << ',' << s.forwards;
    }
    for (const std::uint64_t b : r.latency_hist) out << '#' << b;
    return out.str();
}

TEST(TrafficEngine, HistoryAboveTheMaximumIsRejected) {
    const Graph g = grid_graph(3, 3);
    const auto policy = make_policy(g, "generic-fr");
    EngineConfig config;
    config.history = kMaxHistory;
    EXPECT_NO_THROW(TrafficEngine(g, *policy, config));
    config.history = 5;
    try {
        TrafficEngine engine(g, *policy, config);
        FAIL() << "history 5 was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("history is 5"), std::string::npos) << e.what();
    }
}

TEST(TrafficEngine, FaultFreeFullDeliveryAcrossPolicies) {
    const Graph g = grid_graph(4, 5);
    TrafficConfig config;
    config.sessions = 50;
    config.rate = 2.0;
    const Workload wl = make_workload(config, g.node_count(), 42, 0);

    for (const char* key : {"flooding", "generic-static", "generic-fr", "wu-li"}) {
        const auto policy = make_policy(g, key);
        ASSERT_NE(policy, nullptr) << key;
        TrafficEngine engine(g, *policy);
        Rng rng(7);
        const TrafficResult r = engine.run(wl, rng);
        EXPECT_EQ(r.delivered, 50u) << key;
        EXPECT_EQ(r.degraded, 0u) << key;
        EXPECT_EQ(r.partitioned, 0u) << key;
        // Every node received every session exactly once.
        EXPECT_EQ(r.fresh_deliveries, 50u * g.node_count()) << key;
    }
}

TEST(TrafficEngine, PruningPoliciesForwardLessThanFlooding) {
    // A unit-disk topology: grids are triangle-free, so neighbor-coverage
    // pruning rules (Wu-Li) cannot unmark anything there.
    UnitDiskParams params;
    params.node_count = 30;
    params.average_degree = 8.0;
    Rng topo_rng(17);
    const Graph g = generate_network_checked(params, topo_rng).graph;
    TrafficConfig config;
    config.sessions = 40;
    const Workload wl = make_workload(config, g.node_count(), 9, 0);

    const auto tx_for = [&](const char* key) {
        const auto policy = make_policy(g, key);
        TrafficEngine engine(g, *policy);
        Rng rng(3);
        return engine.run(wl, rng).data_transmissions;
    };
    const std::size_t flood_tx = tx_for("flooding");
    EXPECT_LT(tx_for("generic-fr"), flood_tx);
    EXPECT_LT(tx_for("wu-li"), flood_tx);
}

TEST(TrafficEngine, DeterministicForIdenticalSeeds) {
    const Graph g = grid_graph(4, 4);
    TrafficConfig config;
    config.sessions = 120;
    const Workload wl = make_workload(config, g.node_count(), 5, 0);
    const auto policy = make_policy(g, "generic-fr");

    faults::FaultSpec spec;
    spec.crash_rate = 0.2;
    spec.link_churn_rate = 0.2;
    spec.protect_source = false;
    const faults::FaultPlan plan = faults::make_fault_plan(spec, g, 0, 77, 0);

    const auto once = [&] {
        TrafficEngine engine(g, *policy);
        engine.attach_faults(&plan);
        Rng rng(11);
        return digest(engine.run(wl, rng));
    };
    EXPECT_EQ(once(), once());
}

TEST(TrafficEngine, DuplicateSuppressionBoundsForwarding) {
    // Flooding on a dense-ish grid: every node sees several copies per
    // session but relays exactly once, so transmissions are bounded by
    // sessions * nodes while duplicates pile up in the counter.
    const Graph g = grid_graph(4, 5);
    TrafficConfig config;
    config.sessions = 30;
    const Workload wl = make_workload(config, g.node_count(), 2, 0);
    const auto policy = make_policy(g, "flooding");
    TrafficEngine engine(g, *policy);
    Rng rng(1);
    const TrafficResult r = engine.run(wl, rng);
    EXPECT_GT(r.duplicates_suppressed, 0u);
    EXPECT_LE(r.data_transmissions, 30u * g.node_count());
    EXPECT_EQ(r.delivered, 30u);
}

TEST(TrafficEngine, SummaryVectorPullHealsChurnedPartition) {
    // Path 0-1-2-3 with link 1-2 down across the broadcast and restored
    // later: the flood stalls at node 1, then node 2 hears node 1's beacon
    // after the link heals, pulls the gap, and flooding carries the repair
    // on to node 3 — multi-hop recovery, end-to-end.
    const Graph g = path_graph(4);
    faults::FaultPlan plan;
    plan.events.push_back(
        {0.5, faults::FaultKind::kLinkDown, kInvalidNode, canonical(Edge{1, 2})});
    plan.events.push_back(
        {30.0, faults::FaultKind::kLinkUp, kInvalidNode, canonical(Edge{1, 2})});

    const Workload wl = single_session(0, 1.0);
    const auto policy = make_policy(g, "flooding");

    EngineConfig config;
    config.sv_interval = 2.0;
    config.sv_slack = 60.0;

    TrafficEngine engine(g, *policy, config);
    engine.attach_faults(&plan);
    Rng rng(4);
    const TrafficResult r = engine.run(wl, rng);
    ASSERT_EQ(r.sessions.size(), 1u);
    EXPECT_EQ(r.sessions[0].outcome, faults::DeliveryOutcome::kDelivered);
    EXPECT_EQ(r.sessions[0].delivered_up, 4u);
    EXPECT_GE(r.pulls_sent, 1u);
    EXPECT_GE(r.repairs_served, 1u);
    EXPECT_GT(r.sessions[0].last_delivery, 30.0);  // healed after the link came back

    // Control: with the recovery plane off the same run ends degraded.
    EngineConfig no_recovery = config;
    no_recovery.recovery = false;
    TrafficEngine blind(g, *policy, no_recovery);
    blind.attach_faults(&plan);
    Rng rng2(4);
    const TrafficResult r2 = blind.run(wl, rng2);
    EXPECT_EQ(r2.sessions[0].outcome, faults::DeliveryOutcome::kDegraded);
    EXPECT_EQ(r2.pulls_sent, 0u);
}

TEST(TrafficEngine, CrashedSourceStoreSurvivesReboot) {
    // The session arrives while its source is down: nothing is transmitted,
    // but the DTN-style store keeps the message, so after recovery the
    // source's summary beacons seed the pull plane and delivery completes.
    const Graph g = path_graph(3);
    faults::FaultPlan plan;
    plan.events.push_back({0.5, faults::FaultKind::kNodeCrash, 0, Edge{}});
    plan.events.push_back({8.0, faults::FaultKind::kNodeRecover, 0, Edge{}});

    const Workload wl = single_session(0, 1.0);
    const auto policy = make_policy(g, "flooding");
    EngineConfig config;
    config.sv_interval = 2.0;

    TrafficEngine engine(g, *policy, config);
    engine.attach_faults(&plan);
    Rng rng(13);
    const TrafficResult r = engine.run(wl, rng);
    EXPECT_EQ(r.sessions[0].outcome, faults::DeliveryOutcome::kDelivered);
    EXPECT_EQ(r.sessions[0].delivered_up, 3u);
    EXPECT_GE(r.repairs_served, 1u);
}

TEST(TrafficEngine, ChurnSmokeClassifiesEverySessionWithBoundedCaches) {
    // The ISSUE acceptance shape in miniature: >1000 concurrent sessions
    // through one network under a crash+churn plan — the run terminates,
    // every session lands in exactly one outcome class, and no per-node
    // cache ever exceeds its configured ceiling.
    const Graph g = grid_graph(5, 5);
    TrafficConfig traffic;
    traffic.sessions = 1100;
    traffic.rate = 2.0;
    const Workload wl = make_workload(traffic, g.node_count(), 21, 0);

    faults::FaultSpec spec;
    spec.crash_rate = 0.15;
    spec.crash_window = wl.horizon * 0.8;
    spec.recover_probability = 0.7;
    spec.link_churn_rate = 0.2;
    spec.churn_window = wl.horizon * 0.8;
    spec.protect_source = false;
    const faults::FaultPlan plan = faults::make_fault_plan(spec, g, 0, 55, 0);

    const auto policy = make_policy(g, "generic-fr");
    EngineConfig config;
    config.cache = DupCacheConfig{.max_sources = 16, .window = 64};  // force evictions/slides
    TrafficEngine engine(g, *policy, config);
    engine.attach_faults(&plan);
    Rng rng(8);
    const TrafficResult r = engine.run(wl, rng);

    ASSERT_EQ(r.sessions.size(), 1100u);
    EXPECT_EQ(r.delivered + r.degraded + r.partitioned, 1100u);
    for (const SessionOutcome& s : r.sessions) {
        EXPECT_EQ(s.up_count, r.sessions.front().up_count);
        EXPECT_LE(s.delivered_up, s.up_count);
        EXPECT_LE(s.missed_reachable, s.reachable_count);
    }
    EXPECT_GT(r.cache_ceiling_bytes, 0u);
    EXPECT_LE(r.cache_peak_bytes, r.cache_ceiling_bytes);
    // The tight cache config must actually exercise the bounded paths.
    EXPECT_GT(r.cache_evictions, 0u);
    // Latency histogram covers exactly the sessions with a remote delivery.
    const std::uint64_t sampled =
        std::accumulate(r.latency_hist.begin(), r.latency_hist.end(), std::uint64_t{0});
    std::uint64_t remote = 0;
    for (const SessionOutcome& s : r.sessions) {
        if (s.last_delivery > s.start_time) ++remote;
    }
    EXPECT_EQ(sampled, remote);
}

}  // namespace
}  // namespace adhoc::traffic
