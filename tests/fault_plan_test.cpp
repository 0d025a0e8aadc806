/// \file fault_plan_test.cpp
/// \brief Fault-plan generation and fault-session state-machine tests,
/// including the satellite-6 golden pin of the seed-substream derivation.

#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "faults/fault_session.hpp"
#include "graph/graph.hpp"
#include "graph/unit_disk.hpp"
#include "runner/seed.hpp"
#include "stats/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace adhoc::faults {
namespace {

FaultSpec busy_spec() {
    FaultSpec spec;
    spec.crash_rate = 0.4;
    spec.link_churn_rate = 0.3;
    spec.asymmetry_rate = 0.3;
    spec.hello_burst_rate = 0.3;
    return spec;
}

TEST(FaultPlan, DeterministicAcrossCalls) {
    const Graph g = grid_graph(4, 4);
    for (std::uint64_t run = 0; run < 20; ++run) {
        const FaultPlan a = make_fault_plan(busy_spec(), g, 0, 99, run);
        const FaultPlan b = make_fault_plan(busy_spec(), g, 0, 99, run);
        EXPECT_EQ(a, b) << "run " << run;
    }
}

TEST(FaultPlan, DistinctRunIndicesDiffer) {
    const Graph g = grid_graph(5, 5);
    std::size_t distinct = 0;
    const FaultPlan first = make_fault_plan(busy_spec(), g, 0, 7, 0);
    for (std::uint64_t run = 1; run < 20; ++run) {
        if (!(make_fault_plan(busy_spec(), g, 0, 7, run) == first)) ++distinct;
    }
    EXPECT_GE(distinct, 18u);
}

TEST(FaultPlan, TelemetryCannotPerturbGeneration) {
    // The generator draws from its own derive_run_seed substream — an
    // active telemetry scope (which meters other RNG consumers) must not
    // shift a single draw.
    const Graph g = grid_graph(4, 4);
    const FaultPlan bare = make_fault_plan(busy_spec(), g, 1, 5, 3);
    telemetry::RunScope scope;
    const FaultPlan metered = make_fault_plan(busy_spec(), g, 1, 5, 3);
    EXPECT_EQ(bare, metered);
}

TEST(FaultPlan, SourceIsProtectedByDefault) {
    const Graph g = cycle_graph(12);
    FaultSpec spec;
    spec.crash_rate = 1.0;  // everyone else goes down
    for (std::uint64_t run = 0; run < 10; ++run) {
        const FaultPlan plan = make_fault_plan(spec, g, 5, 42, run);
        for (const FaultEvent& e : plan.events) {
            if (e.kind == FaultKind::kNodeCrash) {
                EXPECT_NE(e.node, 5u);
            }
        }
    }
}

TEST(FaultPlan, EventsSortedByTime) {
    const Graph g = grid_graph(5, 5);
    const FaultPlan plan = make_fault_plan(busy_spec(), g, 0, 11, 2);
    EXPECT_FALSE(plan.events.empty());
    EXPECT_TRUE(std::is_sorted(
        plan.events.begin(), plan.events.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; }));
}

// Satellite 6 (golden pin): the generator seed must flow through the
// derive_run_seed substream tagged 0xfa017c0000000001, and the directed
// loss stream through splitmix64 of that seed xor 0x10550000000000a5.
// These literals are the contract — changing the derivation breaks every
// pinned corpus digest and the --jobs invariance of BENCH_resilience.
TEST(FaultPlan, GoldenSeedSubstreamDerivation) {
    const Graph g = grid_graph(3, 3);
    FaultSpec spec;
    spec.crash_rate = 0.25;
    const FaultPlan plan = make_fault_plan(spec, g, 0, 1234, 7);
    const std::uint64_t expected_seed = runner::derive_run_seed(
        1234ULL ^ 0xfa017c0000000001ULL, g.node_count(), 0.25, 7);
    EXPECT_EQ(plan.loss_stream_seed,
              runner::splitmix64(expected_seed ^ 0x10550000000000a5ULL));
    // Pin the raw substream value itself so the derive_run_seed chain (and
    // its portability across platforms) is covered by a literal.
    EXPECT_EQ(expected_seed, 0x784c58bad22ba112ULL);
}

// ---- validate_plan negative paths -----------------------------------
// Every rejection must carry the offending entry index and value in the
// exception text (the fuzzer and bench harness surface these verbatim).

std::string thrown_message(const FaultPlan& plan, std::size_t n) {
    try {
        validate_plan(plan, n);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

TEST(FaultPlanValidate, AcceptsGeneratedPlans) {
    const Graph g = grid_graph(5, 5);
    for (std::uint64_t run = 0; run < 8; ++run) {
        const FaultPlan plan = make_fault_plan(busy_spec(), g, 0, 31, run);
        EXPECT_NO_THROW(validate_plan(plan, g.node_count())) << "run " << run;
    }
    EXPECT_NO_THROW(validate_plan(FaultPlan{}, 0));  // empty plan, empty graph
}

TEST(FaultPlanValidate, RejectsNegativeAndNonFiniteTimes) {
    FaultPlan plan;
    plan.events = {{-1.0, FaultKind::kNodeCrash, 1, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    const std::string msg = thrown_message(plan, 4);
    EXPECT_NE(msg.find("-1"), std::string::npos) << msg;

    plan.events = {{std::numeric_limits<double>::infinity(),
                    FaultKind::kNodeCrash, 1, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    plan.events = {{std::numeric_limits<double>::quiet_NaN(),
                    FaultKind::kNodeCrash, 1, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsOutOfRangeNodes) {
    FaultPlan plan;
    plan.events = {{1.0, FaultKind::kNodeCrash, 9, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    const std::string msg = thrown_message(plan, 4);
    EXPECT_NE(msg.find('9'), std::string::npos) << msg;

    plan.events = {{1.0, FaultKind::kLinkDown, kInvalidNode, Edge{1, 7}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsRecoverBeforeCrash) {
    FaultPlan plan;
    plan.events = {{2.0, FaultKind::kNodeRecover, 1, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);

    // A recover *after* the crash is fine; a second recover is not.
    plan.events = {{1.0, FaultKind::kNodeCrash, 1, Edge{}},
                   {2.0, FaultKind::kNodeRecover, 1, Edge{}}};
    EXPECT_NO_THROW(validate_plan(plan, 4));
    plan.events.push_back({3.0, FaultKind::kNodeRecover, 1, Edge{}});
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
}

TEST(FaultPlanValidate, RejectsDuplicateCrashWhileDown) {
    FaultPlan plan;
    plan.events = {{1.0, FaultKind::kNodeCrash, 2, Edge{}},
                   {2.0, FaultKind::kNodeCrash, 2, Edge{}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);

    // crash -> recover -> crash again is a legal churn cycle.
    plan.events = {{1.0, FaultKind::kNodeCrash, 2, Edge{}},
                   {2.0, FaultKind::kNodeRecover, 2, Edge{}},
                   {3.0, FaultKind::kNodeCrash, 2, Edge{}}};
    EXPECT_NO_THROW(validate_plan(plan, 4));
}

TEST(FaultPlanValidate, RejectsNonCanonicalLinksAndBadAsymmetry) {
    FaultPlan plan;
    plan.events = {{1.0, FaultKind::kLinkDown, kInvalidNode, Edge{3, 1}}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);

    plan.events.clear();
    plan.asymmetry = {{Edge{0, 1}, 1.5, 0.0}};  // loss > 1
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    plan.asymmetry = {{Edge{0, 1}, 0.2, 0.3}, {Edge{0, 1}, 0.4, 0.1}};
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);  // dup link
    plan.asymmetry = {{Edge{0, 1}, 0.2, 0.3}};
    EXPECT_NO_THROW(validate_plan(plan, 4));
}

TEST(FaultPlanValidate, RejectsBadHelloBursts) {
    FaultPlan plan;
    plan.hello_bursts = {{7, 0, 2}};  // node out of range
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    plan.hello_bursts = {{1, 0, 0}};  // zero rounds
    EXPECT_THROW(validate_plan(plan, 4), std::invalid_argument);
    plan.hello_bursts = {{1, 0, 2}};
    EXPECT_NO_THROW(validate_plan(plan, 4));
}

// ---- bucket_plan: the window-bucketing contract ---------------------

TEST(FaultPlanBucket, RoundsTimesUpToWindowBoundaries) {
    FaultPlan plan;
    plan.events = {{0.0, FaultKind::kNodeCrash, 0, Edge{}},
                   {0.3, FaultKind::kNodeCrash, 1, Edge{}},
                   {1.0, FaultKind::kNodeRecover, 1, Edge{}},
                   {1.2, FaultKind::kLinkDown, kInvalidNode, Edge{0, 2}}};
    const FaultPlan bucketed = bucket_plan(plan, 1.0);
    ASSERT_EQ(bucketed.events.size(), 4u);
    EXPECT_EQ(bucketed.events[0].time, 0.0);  // already on a boundary
    EXPECT_EQ(bucketed.events[1].time, 1.0);
    EXPECT_EQ(bucketed.events[2].time, 1.0);  // exact multiple: unmoved
    EXPECT_EQ(bucketed.events[3].time, 2.0);
    // Stable order: the crash of node 1 precedes its recover at the shared
    // boundary because it came first in the input.
    EXPECT_EQ(bucketed.events[1].kind, FaultKind::kNodeCrash);
    EXPECT_EQ(bucketed.events[2].kind, FaultKind::kNodeRecover);
}

TEST(FaultPlanBucket, PreservesNonEventFieldsAndValidity) {
    const Graph g = grid_graph(5, 5);
    const FaultPlan plan = make_fault_plan(busy_spec(), g, 0, 17, 4);
    const FaultPlan bucketed = bucket_plan(plan, 1.0);
    EXPECT_EQ(bucketed.asymmetry, plan.asymmetry);
    EXPECT_EQ(bucketed.hello_bursts, plan.hello_bursts);
    EXPECT_EQ(bucketed.loss_stream_seed, plan.loss_stream_seed);
    EXPECT_EQ(bucketed.events.size(), plan.events.size());
    // Bucketing never reorders a crash past its recover, so the bucketed
    // plan stays structurally valid.
    EXPECT_NO_THROW(validate_plan(bucketed, g.node_count()));
    EXPECT_TRUE(std::is_sorted(
        bucketed.events.begin(), bucketed.events.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; }));
}

TEST(FaultPlanBucket, RejectsBadWindow) {
    EXPECT_THROW((void)bucket_plan(FaultPlan{}, 0.0), std::invalid_argument);
    EXPECT_THROW((void)bucket_plan(FaultPlan{}, -1.0), std::invalid_argument);
    EXPECT_THROW((void)bucket_plan(FaultPlan{}, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(FaultSession, AppliesEventsInOrder) {
    FaultPlan plan;
    plan.events = {
        {1.0, FaultKind::kNodeCrash, 2, Edge{}},
        {2.0, FaultKind::kLinkDown, kInvalidNode, Edge{0, 1}},
        {3.0, FaultKind::kNodeRecover, 2, Edge{}},
        {4.0, FaultKind::kLinkUp, kInvalidNode, Edge{0, 1}},
    };
    FaultSession session;
    session.reset(plan, 4);
    EXPECT_TRUE(session.active());
    EXPECT_TRUE(session.node_up(2));
    EXPECT_TRUE(session.link_up(0, 1));

    session.apply(plan.events[0]);
    EXPECT_FALSE(session.node_up(2));
    EXPECT_FALSE(session.link_up(1, 2));  // endpoint down kills the link

    session.apply(plan.events[1]);
    EXPECT_FALSE(session.link_up(0, 1));
    EXPECT_FALSE(session.link_up(1, 0));  // symmetric

    session.apply(plan.events[2]);
    EXPECT_TRUE(session.node_up(2));
    EXPECT_TRUE(session.link_up(1, 2));

    session.apply(plan.events[3]);
    EXPECT_TRUE(session.link_up(0, 1));
}

TEST(FaultSession, DirectedLossStreamIsCounterBased) {
    FaultPlan plan;
    plan.asymmetry = {{Edge{0, 1}, 0.5, 0.5}};
    plan.loss_stream_seed = 0xabcdef;
    FaultSession a;
    FaultSession b;
    a.reset(plan, 2);
    b.reset(plan, 2);
    // Same session state + same query order = same draws, regardless of
    // any other RNG activity in the process.
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.drop_directed(0, 1), b.drop_directed(0, 1)) << i;
    }
}

TEST(FaultSession, FinalStateReplaysWholeSchedule) {
    FaultPlan plan;
    plan.events = {
        {1.0, FaultKind::kNodeCrash, 1, Edge{}},
        {2.0, FaultKind::kNodeCrash, 3, Edge{}},
        {3.0, FaultKind::kNodeRecover, 1, Edge{}},
        {4.0, FaultKind::kLinkDown, kInvalidNode, Edge{0, 2}},
    };
    const FinalFaultState final = final_fault_state(plan, 5);
    EXPECT_EQ(final.node_down, (std::vector<char>{0, 0, 0, 1, 0}));
    ASSERT_EQ(final.links_down.size(), 1u);
    EXPECT_EQ(final.links_down[0], (Edge{0, 2}));
}

TEST(FaultSession, FinalStateLinksAreSortedCanonical) {
    FaultPlan plan;
    plan.events = {
        {1.0, FaultKind::kLinkDown, kInvalidNode, Edge{3, 4}},
        {2.0, FaultKind::kLinkDown, kInvalidNode, Edge{0, 2}},
        {3.0, FaultKind::kLinkDown, kInvalidNode, Edge{1, 4}},
        {4.0, FaultKind::kLinkDown, kInvalidNode, Edge{0, 1}},
        {5.0, FaultKind::kLinkUp, kInvalidNode, Edge{0, 2}},
    };
    EXPECT_EQ(final_fault_state(plan, 5).links_down,
              (std::vector<Edge>{{0, 1}, {1, 4}, {3, 4}}));
}

// ---- differential: the indexed session against a linear-scan oracle ----

/// The session as it was before its down-link and asymmetry indexes: every
/// query scans the down list or the plan's asymmetry list.  Kept as the
/// oracle for the differential test below.
class ScanSession {
  public:
    void reset(const FaultPlan& plan, std::size_t n) {
        plan_ = &plan;
        node_up_.assign(n, 1);
        down_.clear();
        draws_ = 0;
    }
    void apply(const FaultEvent& e) {
        const Edge c = canonical(e.link);
        const auto it = std::find(down_.begin(), down_.end(), c);
        if (e.kind == FaultKind::kNodeCrash) node_up_[e.node] = 0;
        if (e.kind == FaultKind::kNodeRecover) node_up_[e.node] = 1;
        if (e.kind == FaultKind::kLinkDown && it == down_.end()) down_.push_back(c);
        if (e.kind == FaultKind::kLinkUp && it != down_.end()) down_.erase(it);
    }
    [[nodiscard]] bool link_up(NodeId a, NodeId b) const {
        return node_up_[a] && node_up_[b] &&
               std::find(down_.begin(), down_.end(), canonical(Edge{a, b})) == down_.end();
    }
    [[nodiscard]] bool drop_directed(NodeId from, NodeId to) {
        double loss = 0.0;
        for (const LinkAsymmetry& asym : plan_->asymmetry) {
            if (asym.link != canonical(Edge{from, to})) continue;
            loss = (from <= to) ? asym.loss_ab : asym.loss_ba;
            break;
        }
        const std::uint64_t i = draws_++;
        if (loss <= 0.0) return false;
        const std::uint64_t key = (std::uint64_t{from} << 32) | to;
        const std::uint64_t h = runner::splitmix64(
            plan_->loss_stream_seed ^ runner::splitmix64(key ^ (i * 0x9e3779b97f4a7c15ULL)));
        return static_cast<double>(h >> 11) * 0x1.0p-53 < loss;
    }
    [[nodiscard]] const std::vector<Edge>& down_links() const { return down_; }

  private:
    const FaultPlan* plan_ = nullptr;
    std::vector<char> node_up_;
    std::vector<Edge> down_;
    std::uint64_t draws_ = 0;
};

std::vector<Edge> sorted(std::vector<Edge> links) {
    std::sort(links.begin(), links.end());
    return links;
}

TEST(FaultSession, MatchesLinearScanOracleOnRandomChurn) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const std::size_t n = 30 + rng.index(40);
        UnitDiskParams params;
        params.node_count = n;
        const Graph g = generate_network_checked(params, rng).graph;
        const std::vector<Edge> edges = g.edges();

        FaultPlan plan;
        plan.loss_stream_seed = seed;
        for (const Edge& e : edges) {
            if (rng.chance(0.3)) plan.asymmetry.push_back({e, rng.uniform(), rng.uniform()});
        }
        std::vector<char> up(n, 1);
        std::vector<Edge> down;  // shadow of the down set, to aim events
        for (std::size_t i = 0; i < 400; ++i) {
            FaultEvent e{static_cast<double>(i), FaultKind::kLinkDown, kInvalidNode,
                         edges[rng.index(edges.size())]};
            const std::size_t pick = rng.index(10);
            if (pick == 0 && !down.empty()) {
                e.link = down[rng.index(down.size())];  // repeated down
            } else if (pick <= 3 && !down.empty()) {
                e.kind = FaultKind::kLinkUp;  // up of a down link, anywhere in the set
                e.link = down[rng.index(down.size())];
            } else if (pick == 4) {
                e.kind = FaultKind::kLinkUp;  // up of a (probably) up link
            } else if (pick >= 8) {
                e.node = static_cast<NodeId>(rng.index(n));
                e.kind = up[e.node] ? FaultKind::kNodeCrash : FaultKind::kNodeRecover;
                up[e.node] ^= 1;
            }
            const auto it = std::find(down.begin(), down.end(), e.link);
            if (e.kind == FaultKind::kLinkDown && it == down.end()) down.push_back(e.link);
            if (e.kind == FaultKind::kLinkUp && it != down.end()) down.erase(it);
            plan.events.push_back(e);
        }

        ScanSession oracle;
        FaultSession session;
        oracle.reset(plan, n);
        session.reset(plan, n);
        for (std::size_t i = 0; i < plan.events.size(); ++i) {
            oracle.apply(plan.events[i]);
            session.apply(plan.events[i]);
            std::size_t disagree = 0;
            for (const Edge& e : edges) {
                disagree += session.link_up(e.a, e.b) != oracle.link_up(e.a, e.b);
                disagree += session.link_up(e.b, e.a) != oracle.link_up(e.a, e.b);
            }
            ASSERT_EQ(disagree, 0u) << "seed " << seed << " event " << i;
            ASSERT_EQ(sorted(session.down_links()), sorted(oracle.down_links()))
                << "seed " << seed << " event " << i;
            for (int q = 0; q < 8; ++q) {
                const Edge e = edges[rng.index(edges.size())];
                const bool forward = rng.chance(0.5);
                const NodeId from = forward ? e.a : e.b;
                const NodeId to = forward ? e.b : e.a;
                ASSERT_EQ(session.drop_directed(from, to), oracle.drop_directed(from, to))
                    << "seed " << seed << " event " << i << " draw " << q;
            }
        }

        const std::vector<Edge> final_links = final_fault_state(plan, n).links_down;
        EXPECT_TRUE(std::is_sorted(final_links.begin(), final_links.end()));
        EXPECT_EQ(final_links, sorted(oracle.down_links()));
    }
}

}  // namespace
}  // namespace adhoc::faults
