/// \file recovery_test.cpp
/// \brief NACK-driven recovery layer: gap repair, bounded budgets, the
/// pinned NACK backoff timeline, and clean termination under total loss.

#include "faults/recovery.hpp"

#include <gtest/gtest.h>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "graph/graph.hpp"
#include "sim/trace.hpp"

namespace adhoc {
namespace {

using faults::DeliveryOutcome;
using faults::FaultKind;
using faults::FaultPlan;
using faults::RecoveryConfig;

TEST(Recovery, TerminatesUnderTotalLoss) {
    // 100% loss: no data, no beacons, no NACKs ever arrive.  Every budget
    // is finite, so the event queue must drain — this test hanging IS the
    // failure mode it guards against.
    const FloodingAlgorithm flooding;
    MediumConfig medium;
    medium.loss_probability = 1.0;
    Rng rng(17);
    const ResilientResult r = flooding.broadcast_resilient(
        path_graph(6), 0, rng, medium, FaultPlan{}, RecoveryConfig{});
    EXPECT_EQ(r.summary.outcome, DeliveryOutcome::kDegraded);
    EXPECT_EQ(r.summary.delivered_up, 1u);  // only the source holds it
    EXPECT_EQ(r.result.retransmit_count, 0u);
    // The source still beacons into the void, but never more than its
    // budget allows.
    EXPECT_LE(r.result.control_count, RecoveryConfig{}.max_beacons);
}

TEST(Recovery, RepairsCrashRecoverGap) {
    // Path 0-1-2: node 2 is down when the packet passes and recovers
    // after.  Without recovery it stays empty; with recovery a holder
    // beacon triggers its NACK and a retransmission fills the gap.
    FaultPlan plan;
    plan.events = {{0.5, FaultKind::kNodeCrash, 2, Edge{}},
                   {3.0, FaultKind::kNodeRecover, 2, Edge{}}};
    const FloodingAlgorithm flooding;

    RecoveryConfig off;
    off.enabled = false;
    Rng rng_off(5);
    const ResilientResult without = flooding.broadcast_resilient(
        path_graph(3), 0, rng_off, MediumConfig{}, plan, off);
    EXPECT_EQ(without.summary.outcome, DeliveryOutcome::kDegraded);
    EXPECT_FALSE(static_cast<bool>(without.result.received[2]));

    Rng rng_on(5);
    const ResilientResult with = flooding.broadcast_resilient(
        path_graph(3), 0, rng_on, MediumConfig{}, plan, RecoveryConfig{});
    EXPECT_EQ(with.summary.outcome, DeliveryOutcome::kDelivered);
    EXPECT_TRUE(static_cast<bool>(with.result.received[2]));
    EXPECT_GE(with.result.retransmit_count, 1u);
    EXPECT_DOUBLE_EQ(with.summary.delivery_ratio, 1.0);

    // With no repair budget node 2 NACKs in vain: node 1's beacon (sent at
    // 5) reaches it at 6, and its NACKs go out at 6 + 1 = 7, then after a
    // backoff of 2^(NACKs sent so far): 7 + 2 = 9 and 9 + 4 = 13.
    RecoveryConfig unanswered;
    unanswered.nack_delay = 1.0;
    unanswered.max_beacons = 1;
    unanswered.retransmit_budget = 0;
    Rng rng_nack(5);
    const ResilientResult stranded = flooding.broadcast_resilient(
        path_graph(3), 0, rng_nack, MediumConfig{}, plan, unanswered, /*trace=*/true);
    std::vector<double> nacks;
    for (const TraceEvent& e : stranded.result.trace.events()) {
        if (e.kind == TraceKind::kControl && e.node == 2) nacks.push_back(e.time);
    }
    EXPECT_EQ(nacks, (std::vector<double>{7.0, 9.0, 13.0}));
    EXPECT_EQ(stranded.result.control_count, 5u);  // two beacons, three NACKs
    EXPECT_EQ(stranded.result.retransmit_count, 0u);
    EXPECT_FALSE(static_cast<bool>(stranded.result.received[2]));
    EXPECT_EQ(stranded.result.completion_time, 14.0);  // the last NACK lands
}

TEST(Recovery, WorksUnderGenericFramework) {
    // The recovery decorator must compose with the paper's framework, not
    // just flooding: its control plane uses a disjoint timer-id space.
    FaultPlan plan;
    plan.events = {{0.5, FaultKind::kNodeCrash, 3, Edge{}},
                   {4.0, FaultKind::kNodeRecover, 3, Edge{}}};
    const GenericBroadcast generic(generic_fr_config(2), "Generic FR");
    Rng rng(29);
    const ResilientResult r = generic.broadcast_resilient(
        path_graph(5), 0, rng, MediumConfig{}, plan, RecoveryConfig{});
    EXPECT_EQ(r.summary.outcome, DeliveryOutcome::kDelivered);
    EXPECT_TRUE(static_cast<bool>(r.result.received[3]));
}

TEST(Recovery, ControlTrafficRespectsBudgets) {
    // Heavy loss makes every node beacon and NACK to its limits; the
    // totals must stay within n * (beacon + nack) budgets.
    const FloodingAlgorithm flooding;
    MediumConfig medium;
    medium.loss_probability = 0.7;
    const RecoveryConfig cfg;
    const Graph g = grid_graph(3, 3);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Rng rng(seed);
        const ResilientResult r =
            flooding.broadcast_resilient(g, 0, rng, medium, FaultPlan{}, cfg);
        const std::size_t n = g.node_count();
        EXPECT_LE(r.result.control_count, n * (cfg.max_beacons + cfg.max_nacks));
        EXPECT_LE(r.result.retransmit_count, n);  // resend marks a node a holder
    }
}

TEST(Recovery, DisabledLayerIsInert) {
    RecoveryConfig off;
    off.enabled = false;
    const FloodingAlgorithm flooding;
    Rng rng(3);
    const ResilientResult r = flooding.broadcast_resilient(
        cycle_graph(6), 0, rng, MediumConfig{}, FaultPlan{}, off);
    EXPECT_EQ(r.result.control_count, 0u);
    EXPECT_EQ(r.result.retransmit_count, 0u);
    EXPECT_EQ(r.summary.outcome, DeliveryOutcome::kDelivered);
    EXPECT_TRUE(r.result.full_delivery);
}

TEST(Recovery, FaultedRunsAreDeterministic) {
    FaultPlan plan;
    plan.events = {{1.5, FaultKind::kNodeCrash, 4, Edge{}},
                   {5.0, FaultKind::kNodeRecover, 4, Edge{}}};
    plan.asymmetry = {{Edge{1, 2}, 0.5, 0.0}};
    plan.loss_stream_seed = 77;
    const FloodingAlgorithm flooding;
    MediumConfig medium;
    medium.loss_probability = 0.2;
    const auto run = [&] {
        Rng rng(123);
        return flooding.broadcast_resilient(grid_graph(3, 3), 0, rng, medium, plan,
                                            RecoveryConfig{}, /*trace=*/true);
    };
    const ResilientResult a = run();
    const ResilientResult b = run();
    EXPECT_EQ(a.result.received, b.result.received);
    EXPECT_EQ(a.result.retransmit_count, b.result.retransmit_count);
    EXPECT_EQ(a.result.control_count, b.result.control_count);
    EXPECT_EQ(a.result.trace.events().size(), b.result.trace.events().size());
    EXPECT_EQ(a.summary.outcome, b.summary.outcome);
}

}  // namespace
}  // namespace adhoc
