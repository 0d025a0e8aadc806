/// ScaleEngine correctness: the sharded window-synchronous engine must
/// agree with the reference `Simulator` running blind flooding, and its
/// results — including the transmission-order digest and the forward set —
/// must be identical for every worker-thread count, every wheel count and
/// across repeated runs.
///
/// The generic-coverage differential plane holds the engine to a stricter
/// standard: for every tested (seed × wheels × jobs) point, the forward
/// set (per-node mask), forward count, completion time and the global
/// transmission-order digest must be byte-identical to the serial
/// `Simulator` running `GenericAgent` with the same `GenericConfig`.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/flooding.hpp"
#include "algorithms/generic.hpp"
#include "core/coverage.hpp"
#include "graph/unit_disk.hpp"
#include "sim/scale_engine.hpp"

namespace adhoc {
namespace {

UnitDiskNetwork make_network(std::size_t n, std::uint64_t seed) {
    UnitDiskParams params;
    params.node_count = n;
    params.average_degree = 6.0;
    Rng gen(seed);
    return generate_network_checked(params, gen);
}

/// Source -> 96 hubs -> 64 leaves each, plus chords between matching
/// leaves of adjacent hubs: windows 2 and 3 queue >= 6000 events, past the
/// inline threshold, so jobs > 1 runs the generic decision pre-scan on the
/// PhaseCrew workers.
constexpr NodeId kHubs = 96;
constexpr NodeId kLeaves = 64;

NodeId wide_leaf(NodeId hub, NodeId j) { return 1 + kHubs + hub * kLeaves + j; }

Graph wide_window_graph() {
    Graph g(1 + kHubs * (1 + kLeaves));
    for (NodeId h = 0; h < kHubs; ++h) {
        g.add_edge(0, 1 + h);
        for (NodeId j = 0; j < kLeaves; ++j) {
            g.add_edge(1 + h, wide_leaf(h, j));
            if (j % 4 == 0) g.add_edge(wide_leaf(h, j), wide_leaf((h + 1) % kHubs, j));
        }
    }
    return g;
}

TEST(ScaleEngine, FloodMatchesReferenceSimulator) {
    const UnitDiskNetwork net = make_network(200, 0xab5e11);
    const NodeId source = 7;

    FloodingAlgorithm reference;
    Rng rng(1);
    const BroadcastResult ref = reference.broadcast(net.graph, source, rng);

    ScaleEngine engine(net.graph, {});
    const ScaleResult got = engine.run(source);

    EXPECT_EQ(got.forward_count, ref.forward_count);
    EXPECT_EQ(got.received_count, ref.received_count);
    EXPECT_DOUBLE_EQ(got.completion_time, ref.completion_time);
    EXPECT_TRUE(got.full_delivery);
    // Flooding on a connected graph: everyone forwards once, and every
    // copy a neighbor hears is one delivered event.
    EXPECT_EQ(got.forward_count, net.graph.node_count());
    EXPECT_EQ(got.delivered_events, 2 * net.graph.edge_count());
}

TEST(ScaleEngine, ResultIndependentOfJobs) {
    const UnitDiskNetwork net = make_network(300, 0x70b5);
    ScaleResult results[3];
    const std::size_t jobs[3] = {1, 4, 13};
    for (int i = 0; i < 3; ++i) {
        ScaleConfig cfg;
        cfg.jobs = jobs[i];
        ScaleEngine engine(net.graph, cfg);
        results[i] = engine.run(0);
    }
    for (int i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].order_digest, results[0].order_digest) << jobs[i];
        EXPECT_EQ(results[i].delivered_events, results[0].delivered_events) << jobs[i];
        EXPECT_EQ(results[i].forward_count, results[0].forward_count) << jobs[i];
        EXPECT_EQ(results[i].windows, results[0].windows) << jobs[i];
        EXPECT_EQ(results[i].peak_queue_events, results[0].peak_queue_events) << jobs[i];
        EXPECT_DOUBLE_EQ(results[i].completion_time, results[0].completion_time) << jobs[i];
    }
}

TEST(ScaleEngine, RepeatedRunsAreIdentical) {
    const UnitDiskNetwork net = make_network(150, 0x1de3);
    ScaleConfig cfg;
    cfg.jobs = 4;
    ScaleEngine engine(net.graph, cfg);
    const ScaleResult a = engine.run(3);
    const ScaleResult b = engine.run(3);
    EXPECT_EQ(a.order_digest, b.order_digest);
    EXPECT_EQ(a.delivered_events, b.delivered_events);
    EXPECT_EQ(a.forward_count, b.forward_count);
}

TEST(ScaleEngine, WheelCountChangesShardingNotOutcome) {
    const UnitDiskNetwork net = make_network(200, 0x3e11);
    for (const ScalePolicy policy :
         {ScalePolicy::kFlood, ScalePolicy::kSelfPrune, ScalePolicy::kGenericCoverage}) {
        ScaleResult by_wheels[3];
        std::vector<char> forwarded[3];
        const std::size_t wheels[3] = {1, 8, 32};
        for (int i = 0; i < 3; ++i) {
            ScaleConfig cfg;
            cfg.policy = policy;
            cfg.generic = generic_fr_config(2);
            cfg.wheels = wheels[i];
            cfg.jobs = 2;
            ScaleEngine engine(net.graph, cfg);
            by_wheels[i] = engine.run(5);
            forwarded[i] = engine.forwarded_mask();
        }
        for (int i = 1; i < 3; ++i) {
            const auto tag = ::testing::Message() << "policy=" << static_cast<int>(policy)
                                                  << " wheels=" << wheels[i];
            EXPECT_EQ(forwarded[i], forwarded[0]) << tag;
            EXPECT_EQ(by_wheels[i].order_digest, by_wheels[0].order_digest) << tag;
            EXPECT_EQ(by_wheels[i].delivered_events, by_wheels[0].delivered_events) << tag;
            EXPECT_EQ(by_wheels[i].forward_count, by_wheels[0].forward_count) << tag;
            EXPECT_EQ(by_wheels[i].received_count, by_wheels[0].received_count) << tag;
            EXPECT_DOUBLE_EQ(by_wheels[i].completion_time, by_wheels[0].completion_time)
                << tag;
        }
    }
}

TEST(ScaleEngine, SelfPruneDeliversEverywhereWithFewerForwards) {
    const UnitDiskNetwork net = make_network(250, 0x5e1f);
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kSelfPrune;
    ScaleEngine engine(net.graph, cfg);
    const ScaleResult pruned = engine.run(0);
    EXPECT_TRUE(pruned.full_delivery);
    EXPECT_LT(pruned.forward_count, net.graph.node_count());
    EXPECT_GE(pruned.forward_count, 1u);
}

TEST(ScaleEngine, RejectsDegenerateConfig) {
    Graph g(4);
    g.add_edge(0, 1);
    ScaleConfig bad_delay;
    bad_delay.delay = 0.0;
    EXPECT_THROW(ScaleEngine(g, bad_delay), std::invalid_argument);
    ScaleConfig bad_wheels;
    bad_wheels.wheels = 0;
    EXPECT_THROW(ScaleEngine(g, bad_wheels), std::invalid_argument);
    ScaleConfig bad_jobs;
    bad_jobs.jobs = 0;
    EXPECT_THROW(ScaleEngine(g, bad_jobs), std::invalid_argument);
}

TEST(ScaleEngine, RejectsSourceOutsideTheGraph) {
    Graph g(4);
    g.add_edge(0, 1);
    ScaleEngine engine(g, ScaleConfig{});
    try {
        (void)engine.run(4);
        ADD_FAILURE() << "source 4 of a 4-node graph ran";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("source 4"), std::string::npos) << what;
        EXPECT_NE(what.find("4-node"), std::string::npos) << what;
    }
    EXPECT_EQ(engine.run(0).received_count, 2u);  // the engine is still usable

    // An empty graph has no source to check: run returns the empty result.
    const Graph empty;
    ScaleEngine idle(empty, ScaleConfig{});
    EXPECT_EQ(idle.run(0).received_count, 0u);
}

TEST(ScaleEngine, WideWindowsEngageWorkersWithoutChangingResults) {
    // CI also runs this under ThreadSanitizer.
    const Graph g = wide_window_graph();
    faults::FaultPlan plan;  // crashes land before window 2's deliveries
    for (NodeId h = 0; h < kHubs; h += 7) {
        plan.events.push_back({0.5, faults::FaultKind::kNodeCrash, wide_leaf(h, 5), Edge{}});
    }
    const faults::FaultPlan* const plans[] = {nullptr, &plan};
    for (const ScalePolicy policy :
         {ScalePolicy::kFlood, ScalePolicy::kSelfPrune, ScalePolicy::kGenericCoverage}) {
        for (const faults::FaultPlan* attached : plans) {
            ScaleResult results[2];
            std::vector<char> forwarded[2];
            const std::size_t jobs[2] = {1, 4};
            for (int i = 0; i < 2; ++i) {
                ScaleConfig cfg;
                cfg.policy = policy;
                cfg.generic = generic_fr_config(2);
                cfg.jobs = jobs[i];
                ScaleEngine engine(g, cfg);
                engine.attach_faults(attached);
                results[i] = engine.run(0);
                forwarded[i] = engine.forwarded_mask();
            }
            const auto tag = ::testing::Message() << "policy=" << static_cast<int>(policy)
                                                  << " faulted=" << (attached != nullptr);
            EXPECT_GE(results[0].peak_queue_events, 4096u) << tag;
            EXPECT_EQ(results[1].order_digest, results[0].order_digest) << tag;
            EXPECT_EQ(results[1].delivered_events, results[0].delivered_events) << tag;
            EXPECT_EQ(results[1].forward_count, results[0].forward_count) << tag;
            EXPECT_EQ(forwarded[1], forwarded[0]) << tag;
        }
    }
}

// ---- generic coverage differential plane ---------------------------

/// Runs the reference Simulator (serial, event-queue, GenericAgent) and
/// asserts the engine reproduces it byte-for-byte at one (wheels, jobs)
/// point: forward mask, counts, completion time, and the
/// transmission-order digest against the trace fold.
void expect_engine_matches_simulator(const Graph& g, NodeId source,
                                     const GenericConfig& gc, std::size_t wheels,
                                     std::size_t jobs) {
    GenericBroadcast reference(gc);
    Rng rng(99);  // the honorable axes never draw from it
    const BroadcastResult ref = reference.broadcast_traced(g, source, rng, MediumConfig{});
    const std::uint64_t ref_digest = reference_transmission_digest(ref.trace);

    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kGenericCoverage;
    cfg.generic = gc;
    cfg.wheels = wheels;
    cfg.jobs = jobs;
    ScaleEngine engine(g, cfg);
    const ScaleResult got = engine.run(source);

    const auto tag = ::testing::Message()
                     << "wheels=" << wheels << " jobs=" << jobs << " " << gc.summary();
    EXPECT_EQ(engine.forwarded_mask(), ref.transmitted) << tag;
    EXPECT_EQ(engine.received_mask(), ref.received) << tag;
    EXPECT_EQ(got.forward_count, ref.forward_count) << tag;
    EXPECT_EQ(got.received_count, ref.received_count) << tag;
    EXPECT_DOUBLE_EQ(got.completion_time, ref.completion_time) << tag;
    EXPECT_EQ(got.full_delivery, ref.full_delivery) << tag;
    EXPECT_EQ(got.order_digest, ref_digest) << tag;
}

TEST(ScaleEngineGeneric, FirstReceiptMatchesSimulatorAcrossSeedsWheelsJobs) {
    const std::uint64_t seeds[] = {0x11a, 0x22b, 0x33c};
    const std::size_t wheels[] = {1, 3, 8};
    const std::size_t jobs[] = {1, 4};
    const GenericConfig gc = generic_fr_config(2);  // FR/SP/Degree/h=2
    for (const std::uint64_t seed : seeds) {
        const UnitDiskNetwork net = make_network(180, seed);
        const NodeId source = static_cast<NodeId>(seed % net.graph.node_count());
        for (const std::size_t w : wheels) {
            for (const std::size_t j : jobs) {
                expect_engine_matches_simulator(net.graph, source, gc, w, j);
            }
        }
    }
}

TEST(ScaleEngineGeneric, StaticTimingMatchesSimulator) {
    const GenericConfig gc = generic_static_config(2);  // Static/SP/NCR
    for (const std::uint64_t seed : {0x44dULL, 0x55eULL}) {
        const UnitDiskNetwork net = make_network(150, seed);
        for (const std::size_t w : {1ULL, 5ULL}) {
            expect_engine_matches_simulator(net.graph, 0, gc, w, 3);
        }
    }
}

TEST(ScaleEngineGeneric, KnobVariationsMatchSimulator) {
    const UnitDiskNetwork net = make_network(160, 0x66f);
    // Sweep the paper's knobs across the honorable subset: view depth,
    // history length, priority scheme, strong vs full coverage, Span's
    // bounded paths and the restricted radius.
    GenericConfig hops3 = generic_fr_config(3);
    GenericConfig no_history = generic_fr_config(2);
    no_history.history = 0;
    GenericConfig long_history = generic_fr_config(2);
    long_history.history = 5;
    GenericConfig by_id = generic_fr_config(2, PriorityScheme::kId);
    GenericConfig strong = generic_fr_config(2);
    strong.coverage.strong = true;
    GenericConfig bounded = generic_fr_config(2);
    bounded.coverage.max_path_hops = 3;
    GenericConfig strong_radius = generic_fr_config(2);
    strong_radius.coverage.strong = true;
    strong_radius.coverage.coverage_radius = 1;
    for (const GenericConfig& gc :
         {hops3, no_history, long_history, by_id, strong, bounded, strong_radius}) {
        expect_engine_matches_simulator(net.graph, 9, gc, 6, 4);
    }
    // Hub balls of about 190 members: decisions on three- and four-word
    // node masks.
    expect_engine_matches_simulator(wide_window_graph(), 0, generic_fr_config(2), 8, 4);
}

TEST(ScaleEngineGeneric, DigestIndependentOfWheelsAndJobs) {
    // The digest is the global transmission order: one value per (graph,
    // source, config).
    const UnitDiskNetwork net = make_network(220, 0x777);
    std::uint64_t first = 0;
    bool have_first = false;
    for (const std::size_t w : {1ULL, 4ULL, 16ULL}) {
        for (const std::size_t j : {1ULL, 8ULL}) {
            ScaleConfig cfg;
            cfg.policy = ScalePolicy::kGenericCoverage;
            cfg.generic = generic_fr_config(2);
            cfg.wheels = w;
            cfg.jobs = j;
            ScaleEngine engine(net.graph, cfg);
            const ScaleResult r = engine.run(1);
            if (!have_first) {
                first = r.order_digest;
                have_first = true;
            }
            EXPECT_EQ(r.order_digest, first) << "wheels=" << w << " jobs=" << j;
        }
    }
}

TEST(ScaleEngineGeneric, MatchesSimulatorAtEveryWheelAndJobCount) {
    const UnitDiskNetwork net = make_network(180, 0x88a);
    for (const GenericConfig& gc : {generic_fr_config(2), generic_static_config(2)}) {
        for (const std::size_t w : {1ULL, 3ULL, 8ULL, 32ULL}) {
            for (const std::size_t j : {1ULL, 4ULL}) {
                expect_engine_matches_simulator(net.graph, 3, gc, w, j);
            }
        }
    }
}

TEST(ScaleEngineGeneric, DecisionScratchIsPerWorkerNotPerWheel) {
    // The O(n) compile scratch belongs to crew workers, not wheels: at
    // jobs 1 the wheel count moves state_bytes only through the per-wheel
    // pre-scan lists, while each extra worker adds a scratch set of its
    // own.  Windows here are wide enough to wake the
    // crew, and results stay identical throughout.
    const Graph g = wide_window_graph();
    const std::size_t n = g.node_count();
    const auto config = [](std::size_t wheels, std::size_t jobs) {
        ScaleConfig cfg;
        cfg.policy = ScalePolicy::kGenericCoverage;
        cfg.generic = generic_fr_config(2);
        cfg.wheels = wheels;
        cfg.jobs = jobs;
        return cfg;
    };
    ScaleEngine base(g, config(1, 1));
    const ScaleResult want = base.run(0);
    const std::vector<char> want_forwarded = base.forwarded_mask();
    std::size_t bytes_jobs1[2] = {0, 0};
    for (const std::size_t w : {1ULL, 3ULL, 8ULL, 32ULL}) {
        for (const std::size_t j : {1ULL, 4ULL}) {
            ScaleEngine engine(g, config(w, j));
            const ScaleResult got = engine.run(0);
            const auto tag = ::testing::Message() << "wheels=" << w << " jobs=" << j;
            EXPECT_EQ(got.order_digest, want.order_digest) << tag;
            EXPECT_EQ(got.forward_count, want.forward_count) << tag;
            EXPECT_EQ(got.delivered_events, want.delivered_events) << tag;
            EXPECT_DOUBLE_EQ(got.completion_time, want.completion_time) << tag;
            EXPECT_EQ(engine.forwarded_mask(), want_forwarded) << tag;
            if (j == 1 && (w == 1 || w == 32)) bytes_jobs1[w == 32] = engine.state_bytes();
        }
    }
    const std::size_t lo = std::min(bytes_jobs1[0], bytes_jobs1[1]);
    const std::size_t hi = std::max(bytes_jobs1[0], bytes_jobs1[1]);
    EXPECT_LT(hi - lo, 10 * n) << "wheels 1: " << bytes_jobs1[0]
                               << " B, wheels 32: " << bytes_jobs1[1] << " B";

    // Which worker claims which wheel is up to the scheduler, but every
    // worker's O(n) scratch is sized when the crew is created and each
    // per-ball buffer counts once: each extra worker adds exactly its
    // stamp, global-to-local and distance arrays.
    constexpr std::size_t kNodeBytes =
        sizeof(std::uint32_t) + sizeof(std::uint32_t) + sizeof(std::uint16_t);
    std::size_t crew_bytes[3] = {0, 0, 0};
    for (const std::size_t j : {2ULL, 3ULL, 4ULL}) {
        ScaleEngine crew(g, config(32, j));
        EXPECT_EQ(crew.run(0).order_digest, want.order_digest) << "jobs=" << j;
        crew_bytes[j - 2] = crew.state_bytes();
    }
    EXPECT_EQ(crew_bytes[1] - crew_bytes[0], kNodeBytes * n);
    EXPECT_EQ(crew_bytes[2] - crew_bytes[1], kNodeBytes * n);
    EXPECT_GT(crew_bytes[0], bytes_jobs1[1]);
}

TEST(ScaleEngineGeneric, RefusesBallsAboveTheMaskLimit) {
    // A wheel: hub 0 and a rim cycle of kMaxMaskMembers nodes.  At hops 2
    // every rim node's ball is the whole wheel, one member more than the
    // coverage kernel takes, so the run throws — inline at jobs 1, and
    // from the crew's workers at jobs 4, where the hub's 4096 deliveries
    // fill one pre-scanned window.  At hops 1 the balls have four members
    // and the run completes.
    const std::size_t rim = kMaxMaskMembers;
    Graph g(rim + 1);
    for (NodeId i = 1; i <= rim; ++i) {
        g.add_edge(0, i);
        g.add_edge(i, static_cast<NodeId>(i % rim + 1));
    }
    for (const std::size_t jobs : {1ULL, 4ULL}) {
        ScaleConfig cfg;
        cfg.policy = ScalePolicy::kGenericCoverage;
        cfg.generic = generic_fr_config(2);
        cfg.jobs = jobs;
        ScaleEngine wide(g, cfg);
        EXPECT_THROW((void)wide.run(0), std::length_error) << "jobs=" << jobs;
        cfg.generic = generic_fr_config(1);
        ScaleEngine narrow(g, cfg);
        EXPECT_TRUE(narrow.run(0).full_delivery) << "jobs=" << jobs;
    }
}

TEST(ScaleEngineGeneric, RejectsUnhonorableGenericKnobs) {
    Graph g(8);
    for (NodeId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1);
    ScaleConfig cfg;
    cfg.policy = ScalePolicy::kGenericCoverage;

    cfg.generic = generic_frb_config(2);  // backoff needs timers + RNG
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);
    cfg.generic = generic_frbd_config(2);
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);
    cfg.generic.selection = Selection::kNeighborDesignating;
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);
    cfg.generic.hops = 0;  // global views
    EXPECT_THROW(ScaleEngine(g, cfg), std::invalid_argument);

    cfg.generic = generic_fr_config(2);
    cfg.generic.hops = 65536;  // past the 16-bit ball distance
    try {
        ScaleEngine engine(g, cfg);
        ADD_FAILURE() << "hops = 65536 constructed";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("hops = 65536"), std::string::npos)
            << e.what();
    }

    cfg.generic = generic_fr_config(2);  // honorable again: must construct
    EXPECT_NO_THROW(ScaleEngine(g, cfg));
}

}  // namespace
}  // namespace adhoc
