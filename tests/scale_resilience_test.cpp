/// \file scale_resilience_test.cpp
/// \brief Fault-tolerant scale plane: `ScaleEngine` under a `FaultPlan`
/// (and optionally the recovery machine on its window calendar) must reproduce
/// `Simulator::broadcast_resilient` byte-for-byte — delivery and forward
/// masks, every fault/recovery counter, completion time, outcome
/// classification and the transmission-order digest — across seeds ×
/// wheels {1, 3, 8} × jobs {1, 4}, for flooding, generic static/FR and
/// self-pruning, at the unit delay and (flooding, generic FR) at delay 0.3,
/// where FP noise in accumulated instants leaves calendar buckets out of
/// (time, seq) order.  The fault-free engine (no plan attached) is held to the
/// plain traced Simulator for flooding and self-pruning the same way, at
/// wheels {1, 3, 8, 32}.  Plans that fault through one channel only, an
/// attached empty plan, and recovery with no plan check that the fault
/// checks the engine skips are the ones that cannot fail.  Plus: clean
/// termination when everything crashes, partition classification on a cut
/// vertex, a calendar that holds live events only, and the validation
/// surface of `attach_faults` / `set_recovery`.  Both planes run one
/// recovery machine, so the differential checks cover its ports: a grid of
/// recovery budgets, backoff bases and repair depths on generic FR, the
/// recovery.* telemetry of both planes, and a NACK backoff timeline pinned
/// by hand (which no differential check can see, the code being shared).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "faults/fault_plan.hpp"
#include "faults/outcome.hpp"
#include "faults/recovery.hpp"
#include "graph/unit_disk.hpp"
#include "sim/packet.hpp"
#include "sim/scale_engine.hpp"
#include "telemetry/telemetry.hpp"

#include "scale_reference.hpp"

namespace adhoc {
namespace {

using faults::DeliveryOutcome;
using faults::FaultKind;
using faults::FaultPlan;
using faults::FaultSpec;
using faults::RecoveryConfig;
using faults::ResilienceSummary;

UnitDiskNetwork make_network(std::size_t n, std::uint64_t seed) {
    UnitDiskParams params;
    params.node_count = n;
    params.average_degree = 6.0;
    Rng gen(seed);
    return generate_network_checked(params, gen);
}

/// A window-aligned recovery config (the RecoveryConfig{} default
/// nack_delay = 0.5 is not a multiple of the engine's delay 1.0).
RecoveryConfig aligned_recovery() {
    RecoveryConfig rc;
    rc.nack_delay = 1.0;
    return rc;
}

RecoveryConfig recovery_off() {
    RecoveryConfig rc;
    rc.enabled = false;
    return rc;
}

FaultPlan crash_plan(const Graph& g, NodeId source, std::uint64_t seed) {
    FaultSpec spec;
    spec.crash_rate = 0.15;
    spec.crash_window = 6.0;
    return faults::make_fault_plan(spec, g, source, seed, 0);
}

FaultPlan churn_plan(const Graph& g, NodeId source, std::uint64_t seed) {
    FaultSpec spec;
    spec.crash_rate = 0.08;
    spec.crash_window = 5.0;
    spec.link_churn_rate = 0.3;
    spec.churn_window = 8.0;
    return faults::make_fault_plan(spec, g, source, seed, 1);
}

FaultPlan lossy_plan(const Graph& g, NodeId source, std::uint64_t seed) {
    FaultSpec spec;
    spec.crash_rate = 0.05;
    spec.asymmetry_rate = 0.5;
    spec.asymmetry_loss_max = 0.9;
    return faults::make_fault_plan(spec, g, source, seed, 2);
}

/// Runs the reference resilient Simulator once, then asserts the engine
/// reproduces it byte-for-byte at every (wheels, jobs) grid point.
void expect_resilient_match(const BroadcastAlgorithm& algo, const Graph& g,
                            NodeId source, ScalePolicy policy,
                            const GenericConfig* gc, const FaultPlan& plan,
                            const RecoveryConfig& recovery, double delay = 1.0,
                            bool attach = true) {
    Rng rng(99);  // the honorable axes never draw from it
    MediumConfig medium;
    medium.propagation_delay = delay;
    const ResilientResult ref = algo.broadcast_resilient(
        g, source, rng, medium, plan, recovery, /*trace=*/true);
    const std::uint64_t ref_digest = reference_transmission_digest(ref.result.trace);

    for (const std::size_t wheels : {1, 3, 8}) {
        for (const std::size_t jobs : {1, 4}) {
            ScaleConfig cfg;
            cfg.delay = delay;
            cfg.policy = policy;
            if (gc != nullptr) cfg.generic = *gc;
            cfg.wheels = wheels;
            cfg.jobs = jobs;
            ScaleEngine engine(g, cfg);
            engine.attach_faults(attach ? &plan : nullptr);
            engine.set_recovery(recovery);
            const ScaleResult got = engine.run(source);

            const auto tag = ::testing::Message()
                             << algo.name() << " wheels=" << wheels
                             << " jobs=" << jobs << " delay=" << delay
                             << " recovery=" << (recovery.enabled ? "on" : "off")
                             << " attached=" << attach;
            EXPECT_EQ(engine.received_mask(), ref.result.received) << tag;
            EXPECT_EQ(engine.forwarded_mask(), ref.result.transmitted) << tag;
            EXPECT_EQ(got.forward_count, ref.result.forward_count) << tag;
            EXPECT_EQ(got.received_count, ref.result.received_count) << tag;
            EXPECT_EQ(got.completion_time, ref.result.completion_time) << tag;
            EXPECT_EQ(got.full_delivery, ref.result.full_delivery) << tag;
            EXPECT_EQ(got.retransmit_count, ref.result.retransmit_count) << tag;
            EXPECT_EQ(got.control_count, ref.result.control_count) << tag;
            EXPECT_EQ(got.fault_suppressed, ref.result.fault_suppressed) << tag;
            // `down` is n-sized exactly when a plan is attached or recovery
            // is armed; the reference always runs with a plan attached.
            ASSERT_EQ(ref.result.down.size(), g.node_count()) << tag;
            if (attach || recovery.enabled) {
                EXPECT_EQ(got.down, ref.result.down) << tag;
            } else {
                EXPECT_TRUE(got.down.empty()) << tag;
            }
            EXPECT_EQ(got.order_digest, ref_digest) << tag;

            const ResilienceSummary sum =
                faults::classify_outcome(g, source, engine.received_mask(), plan);
            EXPECT_EQ(sum.outcome, ref.summary.outcome) << tag;
            EXPECT_EQ(sum.up_count, ref.summary.up_count) << tag;
            EXPECT_EQ(sum.reachable_count, ref.summary.reachable_count) << tag;
            EXPECT_EQ(sum.delivered_up, ref.summary.delivered_up) << tag;
            EXPECT_EQ(sum.missed_reachable, ref.summary.missed_reachable) << tag;
            EXPECT_EQ(sum.delivery_ratio, ref.summary.delivery_ratio) << tag;
        }
    }
}

TEST(ScaleResilience, FloodMatchesResilientSimulator) {
    const FloodingAlgorithm flood;
    for (const std::uint64_t seed : {0x11aULL, 0x22bULL}) {
        const UnitDiskNetwork net = make_network(140, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        for (auto make :
             {&crash_plan, &churn_plan, &lossy_plan}) {
            const FaultPlan plan = make(net.graph, source, seed);
            expect_resilient_match(flood, net.graph, source, ScalePolicy::kFlood,
                                   nullptr, plan, recovery_off());
            expect_resilient_match(flood, net.graph, source, ScalePolicy::kFlood,
                                   nullptr, plan, aligned_recovery());
        }
    }
}

TEST(ScaleResilience, GenericFirstReceiptMatchesResilientSimulator) {
    const GenericConfig gc = generic_fr_config(2);  // FR/SP/Degree/h=2
    const GenericBroadcast generic(gc, "Generic FR");
    for (const std::uint64_t seed : {0x33cULL, 0x44dULL}) {
        const UnitDiskNetwork net = make_network(140, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        for (auto make : {&churn_plan, &lossy_plan}) {
            const FaultPlan plan = make(net.graph, source, seed);
            expect_resilient_match(generic, net.graph, source,
                                   ScalePolicy::kGenericCoverage, &gc, plan,
                                   recovery_off());
            expect_resilient_match(generic, net.graph, source,
                                   ScalePolicy::kGenericCoverage, &gc, plan,
                                   aligned_recovery());
        }
    }
    // Every recovery budget, the backoff base and the repair chain depth,
    // under crash plus link churn: the engine's port must match the
    // Simulator's wherever a budget runs out (no beacon at all, a single
    // NACK, no repair) and at both backoff bases the calendar can hold.
    const UnitDiskNetwork net = make_network(140, 0x33c);
    const FaultPlan plan = churn_plan(net.graph, 5, 0x33c);
    for (const std::size_t beacons : {0, 1, 5}) {
        for (const std::size_t nacks : {1, 4}) {
            for (const std::size_t budget : {0, 1, 3}) {
                for (const double backoff : {1.0, 3.0}) {
                    for (const std::size_t history : {1, 3}) {
                        RecoveryConfig recovery = aligned_recovery();
                        recovery.max_beacons = beacons;
                        recovery.max_nacks = nacks;
                        recovery.retransmit_budget = budget;
                        recovery.backoff_factor = backoff;
                        recovery.history = history;
                        SCOPED_TRACE(::testing::Message()
                                     << "beacons=" << beacons << " nacks=" << nacks
                                     << " budget=" << budget << " backoff=" << backoff
                                     << " history=" << history);
                        expect_resilient_match(generic, net.graph, 5,
                                               ScalePolicy::kGenericCoverage, &gc, plan,
                                               recovery);
                    }
                }
            }
        }
    }
}

TEST(ScaleResilience, GenericStaticMatchesResilientSimulator) {
    const GenericConfig gc = generic_static_config(2);  // Static/SP/NCR
    const GenericBroadcast generic(gc, "Generic Static");
    const UnitDiskNetwork net = make_network(130, 0x55e);
    const FaultPlan plan = churn_plan(net.graph, 0, 0x55e);
    expect_resilient_match(generic, net.graph, 0, ScalePolicy::kGenericCoverage,
                           &gc, plan, recovery_off());
    expect_resilient_match(generic, net.graph, 0, ScalePolicy::kGenericCoverage,
                           &gc, plan, aligned_recovery());
}

TEST(ScaleResilience, NonUnitDelayMatchesResilientSimulator) {
    // At delay 0.3 a delivery instant is a running sum of 0.3s while a
    // timer instant adds 0.9 or 0.3 * 2^k in one step, so events of one
    // window differ in their last bits and pushes land out of (time, seq)
    // order — the one setting where a drained bucket must be sorted.
    constexpr double kDelay = 0.3;
    RecoveryConfig recovery = aligned_recovery();
    recovery.beacon_interval = 3 * kDelay;
    recovery.nack_delay = kDelay;
    const FloodingAlgorithm flood;
    const GenericConfig gc = generic_fr_config(2);
    const GenericBroadcast generic(gc, "Generic FR");
    for (const std::uint64_t seed : {0x3a1ULL, 0x3b2ULL}) {
        const UnitDiskNetwork net = make_network(140, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        for (auto make : {&churn_plan, &lossy_plan}) {
            const FaultPlan plan = make(net.graph, source, seed);
            expect_resilient_match(flood, net.graph, source, ScalePolicy::kFlood, nullptr,
                                   plan, recovery, kDelay);
            expect_resilient_match(generic, net.graph, source,
                                   ScalePolicy::kGenericCoverage, &gc, plan, recovery,
                                   kDelay);
        }
    }
}

TEST(ScaleResilience, SelfPruneMatchesResilientSimulator) {
    const SelfPruneAlgorithm sp;
    const UnitDiskNetwork net = make_network(130, 0x66f);
    for (auto make : {&crash_plan, &lossy_plan}) {
        const FaultPlan plan = make(net.graph, 3, 0x66f);
        expect_resilient_match(sp, net.graph, 3, ScalePolicy::kSelfPrune, nullptr,
                               plan, recovery_off());
        expect_resilient_match(sp, net.graph, 3, ScalePolicy::kSelfPrune, nullptr,
                               plan, aligned_recovery());
    }
}

TEST(ScaleResilience, InternalNumberingCrossesComponentsUnderFaults) {
    // The faulted twin of ScaleEngine.InternalNumberingCrossesComponents:
    // crashes, link churn and asymmetric loss name original ids, and the
    // recovery machine runs on internal ones.
    const ScatteredComponents sc = scattered_components(0x5ca77e5);
    FaultSpec spec;
    spec.crash_rate = 0.08;
    spec.crash_window = 5.0;
    spec.link_churn_rate = 0.3;
    spec.churn_window = 8.0;
    spec.asymmetry_rate = 0.4;
    spec.asymmetry_loss_max = 0.8;
    const FloodingAlgorithm flood;
    const SelfPruneAlgorithm sp;
    for (const NodeId source : {sc.last[0], sc.last[60]}) {
        const FaultPlan plan = faults::make_fault_plan(spec, sc.graph, source, source, 5);
        ASSERT_FALSE(plan.events.empty());
        ASSERT_FALSE(plan.asymmetry.empty());
        expect_resilient_match(flood, sc.graph, source, ScalePolicy::kFlood, nullptr, plan,
                               aligned_recovery());
        expect_resilient_match(sp, sc.graph, source, ScalePolicy::kSelfPrune, nullptr, plan,
                               aligned_recovery());
        for (const PriorityScheme scheme :
             {PriorityScheme::kId, PriorityScheme::kDegree, PriorityScheme::kNcr}) {
            const GenericConfig gc = generic_fr_config(2, scheme);
            const GenericBroadcast generic(gc, "Generic FR");
            expect_resilient_match(generic, sc.graph, source, ScalePolicy::kGenericCoverage,
                                   &gc, plan, aligned_recovery());
        }
    }
}

TEST(ScaleResilience, FaultChecksFollowTheAttachedPlan) {
    // The engine works out from the attached plan whether a fault check
    // can fail: it runs node_up / link_up / drop_directed only when the
    // plan has timed events or asymmetric links.  Each way a run can end up
    // on either side of that line must still match the reference, with
    // `down` n-sized exactly when a plan is attached or recovery is armed.
    const FloodingAlgorithm flood;
    const SelfPruneAlgorithm sp;
    const GenericConfig gc = generic_fr_config(2);
    const GenericBroadcast generic(gc, "Generic FR");
    const UnitDiskNetwork net = make_network(140, 0x6a7e);
    const Graph& g = net.graph;
    const NodeId source = 11;

    FaultSpec asym_spec;  // asymmetric loss only: no timed event at all
    asym_spec.asymmetry_rate = 0.5;
    asym_spec.asymmetry_loss_max = 0.9;
    const FaultPlan asymmetry_only = faults::make_fault_plan(asym_spec, g, source, 0x6a7e, 3);
    ASSERT_TRUE(asymmetry_only.events.empty());
    ASSERT_FALSE(asymmetry_only.asymmetry.empty());

    FaultSpec event_spec;  // crashes and link churn, no asymmetric link
    event_spec.crash_rate = 0.1;
    event_spec.crash_window = 5.0;
    event_spec.link_churn_rate = 0.2;
    event_spec.churn_window = 6.0;
    const FaultPlan events_only = faults::make_fault_plan(event_spec, g, source, 0x6a7e, 4);
    ASSERT_FALSE(events_only.events.empty());
    ASSERT_TRUE(events_only.asymmetry.empty());

    const FaultPlan empty;
    struct Case {
        const FaultPlan* plan;
        bool attach;
    };
    // Asymmetry only, events only, an attached empty plan, and no plan at
    // all (with recovery on and off, below).
    const Case cases[] = {{&asymmetry_only, true}, {&events_only, true}, {&empty, true},
                          {&empty, false}};
    for (const Case& c : cases) {
        for (const RecoveryConfig& recovery : {recovery_off(), aligned_recovery()}) {
            expect_resilient_match(flood, g, source, ScalePolicy::kFlood, nullptr, *c.plan,
                                   recovery, 1.0, c.attach);
            expect_resilient_match(sp, g, source, ScalePolicy::kSelfPrune, nullptr, *c.plan,
                                   recovery, 1.0, c.attach);
            expect_resilient_match(generic, g, source, ScalePolicy::kGenericCoverage, &gc,
                                   *c.plan, recovery, 1.0, c.attach);
        }
    }

    // No plan and no recovery is the plain broadcast: `broadcast` agrees.
    Rng rng(99);
    const BroadcastResult plain = flood.broadcast(g, source, rng);
    ScaleEngine engine(g, ScaleConfig{});
    const ScaleResult got = engine.run(source);
    EXPECT_TRUE(got.down.empty());
    EXPECT_TRUE(plain.down.empty());
    EXPECT_EQ(engine.received_mask(), plain.received);
    EXPECT_EQ(got.forward_count, plain.forward_count);
    EXPECT_EQ(got.completion_time, plain.completion_time);
}

/// Fault-free differential: the engine with no plan attached must equal
/// the reference `Simulator` trace at every (wheels, jobs) grid point —
/// the first received copy, hence the forward set and the transmission
/// digest, may not depend on how nodes are sharded.
void expect_fault_free_match(const BroadcastAlgorithm& algo, const Graph& g,
                             NodeId source, ScalePolicy policy) {
    Rng rng(99);  // neither policy draws from it
    const BroadcastResult ref = algo.broadcast_traced(g, source, rng, MediumConfig{});
    const std::uint64_t ref_digest = reference_transmission_digest(ref.trace);

    for (const std::size_t wheels : {1, 3, 8, 32}) {
        for (const std::size_t jobs : {1, 4}) {
            ScaleConfig cfg;
            cfg.policy = policy;
            cfg.wheels = wheels;
            cfg.jobs = jobs;
            ScaleEngine engine(g, cfg);
            const ScaleResult got = engine.run(source);

            const auto tag = ::testing::Message()
                             << algo.name() << " wheels=" << wheels << " jobs=" << jobs;
            EXPECT_EQ(engine.received_mask(), ref.received) << tag;
            EXPECT_EQ(engine.forwarded_mask(), ref.transmitted) << tag;
            EXPECT_EQ(got.forward_count, ref.forward_count) << tag;
            EXPECT_EQ(got.received_count, ref.received_count) << tag;
            EXPECT_EQ(got.completion_time, ref.completion_time) << tag;
            EXPECT_EQ(got.full_delivery, ref.full_delivery) << tag;
            EXPECT_EQ(got.order_digest, ref_digest) << tag;
        }
    }
}

TEST(ScaleResilience, FaultFreeFloodAndSelfPruneMatchSimulator) {
    const FloodingAlgorithm flood;
    const SelfPruneAlgorithm sp;
    for (const std::uint64_t seed : {0x77aULL, 0x88bULL, 0x99cULL}) {
        const UnitDiskNetwork net = make_network(300, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        expect_fault_free_match(flood, net.graph, source, ScalePolicy::kFlood);
        expect_fault_free_match(sp, net.graph, source, ScalePolicy::kSelfPrune);
    }
}

TEST(ScaleResilience, RecoveryHealsCrashRecoverGapOnEngine) {
    // Path 0-1-2, node 2 down while the packet passes, up again later.
    // Without recovery the engine strands it; with recovery armed a beacon
    // → NACK → repair fills the gap, exactly as in recovery_test.
    Graph g = path_graph(3);
    FaultPlan plan;
    plan.events = {{0.5, FaultKind::kNodeCrash, 2, Edge{}},
                   {3.0, FaultKind::kNodeRecover, 2, Edge{}}};

    ScaleConfig cfg;
    ScaleEngine bare(g, cfg);
    bare.attach_faults(&plan);
    bare.set_recovery(recovery_off());
    const ScaleResult without = bare.run(0);
    EXPECT_FALSE(static_cast<bool>(bare.received_mask()[2]));
    EXPECT_EQ(without.retransmit_count, 0u);

    ScaleEngine healed(g, cfg);
    healed.attach_faults(&plan);
    healed.set_recovery(aligned_recovery());
    const ScaleResult with = healed.run(0);
    EXPECT_TRUE(static_cast<bool>(healed.received_mask()[2]));
    EXPECT_GE(with.retransmit_count, 1u);
    EXPECT_GE(with.control_count, 1u);
    const ResilienceSummary sum =
        faults::classify_outcome(g, 0, healed.received_mask(), plan);
    EXPECT_EQ(sum.outcome, DeliveryOutcome::kDelivered);

    // With no repair budget node 2 NACKs in vain: node 1's beacon (sent at
    // 5) reaches it at 6, and its NACKs go out at 6 + 1 = 7, 7 + 2 = 9 and
    // 9 + 4 = 13 (backoff 2^(NACKs sent)), the last arriving at 14.  Two
    // beacons (nodes 0 and 1) plus three NACKs.  recovery_test pins the
    // same timeline on the Simulator.
    RecoveryConfig unanswered = aligned_recovery();
    unanswered.max_beacons = 1;
    unanswered.retransmit_budget = 0;
    ScaleEngine stranded(g, cfg);
    stranded.attach_faults(&plan);
    stranded.set_recovery(unanswered);
    const ScaleResult nacked = stranded.run(0);
    EXPECT_FALSE(static_cast<bool>(stranded.received_mask()[2]));
    EXPECT_EQ(nacked.retransmit_count, 0u);
    EXPECT_EQ(nacked.control_count, 5u);
    EXPECT_EQ(nacked.completion_time, 14.0);
}

TEST(ScaleResilience, RecoveryTelemetryMatchesResilientSimulator) {
    // Both planes run the one recovery machine, which counts the recovery.*
    // metrics: on a crash-plus-recovery run the engine reports the
    // resilient Simulator's beacons, NACKs, repairs and healed gaps.
    namespace tel = telemetry;
    const tel::MetricId metrics[] = {
        tel::counter("recovery.beacons", "packets"), tel::counter("recovery.nacks", "packets"),
        tel::counter("recovery.repairs", "packets"),
        tel::counter("recovery.gaps_healed", "nodes")};
    const bool was_enabled = tel::enabled();
    tel::set_enabled(true);
    const auto totals = [&](const tel::Snapshot& snap) {
        std::vector<std::uint64_t> sums;
        for (const tel::MetricId id : metrics) {
            sums.push_back(id < snap.values().size() ? snap.values()[id].sum : 0);
        }
        return sums;
    };

    const UnitDiskNetwork net = make_network(140, 0x11a);
    const NodeId source = 7;
    const FaultPlan plan = crash_plan(net.graph, source, 0x11a);
    const FloodingAlgorithm flood;
    std::vector<std::uint64_t> ref;
    {
        tel::RunScope scope;
        Rng rng(99);
        (void)flood.broadcast_resilient(net.graph, source, rng, MediumConfig{}, plan,
                                        aligned_recovery());
        ref = totals(scope.harvest());
    }
    for (const std::uint64_t sum : ref) EXPECT_GT(sum, 0u);
    for (const std::size_t jobs : {1, 4}) {
        ScaleConfig cfg;
        cfg.wheels = 3;
        cfg.jobs = jobs;
        ScaleEngine engine(net.graph, cfg);
        engine.attach_faults(&plan);
        engine.set_recovery(aligned_recovery());
        tel::RunScope scope;
        (void)engine.run(source);
        EXPECT_EQ(totals(scope.harvest()), ref) << "jobs=" << jobs;
    }
    tel::set_enabled(was_enabled);
}

TEST(ScaleResilience, CrashEverythingTerminatesCleanly) {
    // Every node (source included) dies before the first delivery window:
    // all deliveries and every armed beacon are suppressed, all budgets
    // stay bounded, and the run drains — hanging IS the failure mode.
    const UnitDiskNetwork net = make_network(80, 0x777);
    const std::size_t n = net.graph.node_count();
    FaultPlan plan;
    for (NodeId v = 0; v < n; ++v) {
        plan.events.push_back({0.5, FaultKind::kNodeCrash, v, Edge{}});
    }
    ScaleConfig cfg;
    cfg.wheels = 3;
    ScaleEngine engine(net.graph, cfg);
    engine.attach_faults(&plan);
    engine.set_recovery(aligned_recovery());
    const ScaleResult r = engine.run(0);
    EXPECT_EQ(r.received_count, 1u);  // only the source's own begin-transmit
    EXPECT_EQ(r.retransmit_count, 0u);
    EXPECT_EQ(r.control_count, 0u);
    EXPECT_GE(r.fault_suppressed, net.graph.neighbors(0).size());
    for (NodeId v = 0; v < n; ++v) {
        EXPECT_TRUE(static_cast<bool>(r.down[v])) << "node " << v;
    }
}

TEST(ScaleResilience, BridgeCrashClassifiesAsPartitionedOnEngine) {
    // Two K4 cliques joined by bridge 3-4; node 3 dies before the packet
    // crosses.  Same fixture and verdict as resilience_partition_test.
    Graph g(8);
    for (NodeId u = 0; u < 4; ++u) {
        for (NodeId v = u + 1; v < 4; ++v) {
            g.add_edge(u, v);
            g.add_edge(4 + u, 4 + v);
        }
    }
    g.add_edge(3, 4);
    FaultPlan plan;
    plan.events = {{0.5, FaultKind::kNodeCrash, 3, Edge{}}};

    ScaleEngine engine(g, ScaleConfig{});
    engine.attach_faults(&plan);
    engine.set_recovery(aligned_recovery());
    const ScaleResult r = engine.run(0);
    const ResilienceSummary sum =
        faults::classify_outcome(g, 0, engine.received_mask(), plan);
    EXPECT_EQ(sum.outcome, DeliveryOutcome::kPartitioned);
    EXPECT_EQ(sum.up_count, 7u);
    EXPECT_EQ(sum.reachable_count, 3u);
    EXPECT_EQ(sum.missed_reachable, 0u);
    EXPECT_DOUBLE_EQ(sum.delivery_ratio, 1.0);
    EXPECT_EQ(r.retransmit_count, 0u);  // nothing NACKs across the cut
}

TEST(ScaleResilience, RepeatedFaultedRunsAreIdentical) {
    const UnitDiskNetwork net = make_network(120, 0x999);
    const FaultPlan plan = lossy_plan(net.graph, 1, 0x999);
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kGenericCoverage;
    cfg.generic = generic_fr_config(2);
    cfg.wheels = 4;
    cfg.jobs = 2;
    ScaleEngine engine(net.graph, cfg);
    engine.attach_faults(&plan);
    engine.set_recovery(aligned_recovery());
    const ScaleResult a = engine.run(1);
    const std::vector<char> mask_a = engine.received_mask();
    const ScaleResult b = engine.run(1);
    EXPECT_EQ(a.order_digest, b.order_digest);
    EXPECT_EQ(a.retransmit_count, b.retransmit_count);
    EXPECT_EQ(a.control_count, b.control_count);
    EXPECT_EQ(a.fault_suppressed, b.fault_suppressed);
    EXPECT_EQ(mask_a, engine.received_mask());
}

TEST(ScaleResilience, CalendarHoldsLiveEventsOnly) {
    // Crash 5% plus link churn with NACK recovery over a constant-density
    // 10^4-node placement: a run of more than 100 windows.  The window
    // calendar must hold what is pending, not what the run has pushed, so
    // the engine's bytes stay within a per-node budget (masks, recovery
    // counters, packet and control tables: 96 B) plus 4 events of 32 B per
    // peak pending event: the queued copy, and up to twice the largest
    // window for the drained window's copy (the partial tail chunk of each
    // live bucket rides in the slack).  A warm rerun allocates nothing.
    constexpr std::size_t n = 10'000;
    Rng gen(0xca1e);
    std::vector<Point2D> positions(n);
    for (Point2D& p : positions) {
        p.x = gen.uniform(0.0, 1000.0);
        p.y = gen.uniform(0.0, 1000.0);
    }
    const double range = std::sqrt(6.0 * 1000.0 * 1000.0 / (std::numbers::pi * n));
    const Graph g = unit_disk_graph(positions, range);
    FaultSpec spec;
    spec.crash_rate = 0.05;
    spec.crash_window = 6.0;
    spec.link_churn_rate = 0.1;
    spec.churn_window = 8.0;
    const FaultPlan plan = faults::make_fault_plan(spec, g, 0, 0xca1e, 0);

    ScaleEngine engine(g, ScaleConfig{});
    engine.attach_faults(&plan);
    engine.set_recovery(aligned_recovery());
    const ScaleResult cold = engine.run(0);
    ASSERT_GE(cold.windows, 100u);
    ASSERT_GT(cold.control_count, 0u);
    const std::size_t bytes = engine.state_bytes();
    EXPECT_LE(bytes, 96 * n + 4 * 32 * cold.peak_queue_events)
        << "windows=" << cold.windows << " peak=" << cold.peak_queue_events;

    const ScaleResult warm = engine.run(0);
    EXPECT_EQ(warm.order_digest, cold.order_digest);
    EXPECT_LE(engine.state_bytes(), bytes);
}

TEST(ScaleResilience, RejectsInvalidPlansAndMisalignedRecovery) {
    Graph g(6);
    for (NodeId v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1);
    ScaleEngine engine(g, ScaleConfig{});

    FaultPlan bad;  // recover without a preceding crash
    bad.events = {{1.0, FaultKind::kNodeRecover, 2, Edge{}}};
    EXPECT_THROW(engine.attach_faults(&bad), std::invalid_argument);

    FaultPlan far;  // past the 2^20-window calendar horizon
    far.events = {{0.5, FaultKind::kNodeCrash, 2, Edge{}},
                  {2.0e6, FaultKind::kNodeRecover, 2, Edge{}}};
    EXPECT_THROW(engine.attach_faults(&far), std::invalid_argument);

    EXPECT_THROW(engine.set_recovery(RecoveryConfig{}),  // nack_delay = 0.5
                 std::invalid_argument);
    RecoveryConfig frac = aligned_recovery();
    frac.beacon_interval = 0.7;
    EXPECT_THROW(engine.set_recovery(frac), std::invalid_argument);
    RecoveryConfig soft = aligned_recovery();
    soft.backoff_factor = 1.5;  // timers would drift off window boundaries
    EXPECT_THROW(engine.set_recovery(soft), std::invalid_argument);
    EXPECT_NO_THROW(engine.set_recovery(aligned_recovery()));

    FaultPlan ok;  // a valid plan still attaches after the failed attempts
    ok.events = {{0.5, FaultKind::kNodeCrash, 2, Edge{}}};
    EXPECT_NO_THROW(engine.attach_faults(&ok));
    EXPECT_NO_THROW(engine.attach_faults(nullptr));
}

}  // namespace
}  // namespace adhoc
