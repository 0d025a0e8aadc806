// Exactness of CoveragePolicy's per-run decision memo: every memoised
// answer equals a direct coverage evaluation over the node's 2-hop view,
// whatever the order, duplicates or out-of-ball ids of the history, past
// the memo's per-node capacity, inside whole churned traffic runs, and
// across runs of one reused policy.

#include "traffic/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "core/view.hpp"
#include "faults/fault_plan.hpp"
#include "graph/unit_disk.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/engine.hpp"
#include "traffic/workload.hpp"

namespace adhoc::traffic {
namespace {

Graph unit_disk(std::size_t n, double degree, std::uint64_t seed) {
    UnitDiskParams params;
    params.node_count = n;
    params.average_degree = degree;
    Rng rng(seed);
    return generate_network_checked(params, rng).graph;
}

/// The decision `make_policy(g, "generic-fr")` must give, evaluated from
/// scratch: the coverage condition over `local_topology(g, v, 2)` with
/// every in-range history id marked visited.
bool direct_forward(const Graph& g, const PriorityKeys& keys, NodeId v,
                    std::span<const NodeId> visited) {
    std::vector<NodeStatus> status(g.node_count(), NodeStatus::kUnvisited);
    for (const NodeId u : visited) {
        if (u < status.size()) status[u] = NodeStatus::kVisited;
    }
    const LocalTopology topo = local_topology(g, v, 2);
    const View view(&topo, &status, &keys);
    return !coverage_condition_holds(view, v, CoverageOptions{});
}

using Decision = std::tuple<NodeId, std::vector<NodeId>, bool>;

/// Test-only un-memoised generic-fr policy; logs every decision.
class UnmemoisedPolicy final : public ForwardPolicy {
  public:
    explicit UnmemoisedPolicy(const Graph& g) : g_(&g), keys_(g, PriorityScheme::kDegree) {}

    [[nodiscard]] std::string name() const override { return "unmemoised"; }
    [[nodiscard]] bool should_forward(NodeId v, std::span<const NodeId> visited) const override {
        const bool forward = direct_forward(*g_, keys_, v, visited);
        log.emplace_back(v, std::vector<NodeId>(visited.begin(), visited.end()), forward);
        return forward;
    }

    mutable std::vector<Decision> log;

  private:
    const Graph* g_;
    PriorityKeys keys_;
};

/// Logs the decisions of a wrapped policy, passing the run hooks through.
class LoggingPolicy final : public ForwardPolicy {
  public:
    explicit LoggingPolicy(const ForwardPolicy& inner) : inner_(&inner) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] bool should_forward(NodeId v, std::span<const NodeId> visited) const override {
        const bool forward = inner_->should_forward(v, visited);
        log.emplace_back(v, std::vector<NodeId>(visited.begin(), visited.end()), forward);
        return forward;
    }
    void begin_run() const override { inner_->begin_run(); }
    [[nodiscard]] MemoStats memo_stats() const override { return inner_->memo_stats(); }

    mutable std::vector<Decision> log;

  private:
    const ForwardPolicy* inner_;
};

/// Every field of a TrafficResult, doubles at full precision.
std::string digest(const TrafficResult& r) {
    std::ostringstream out;
    out << std::setprecision(17) << r.delivered << '/' << r.degraded << '/' << r.partitioned
        << ';' << r.data_transmissions << ';' << r.data_bytes << ';' << r.fresh_deliveries << ';'
        << r.duplicates_suppressed << ';' << r.sv_beacons << ';' << r.control_bytes << ';'
        << r.pulls_sent << ';' << r.repairs_served << ';' << r.cache_evictions << ';'
        << r.window_slides << ';' << r.cache_peak_bytes << ';' << r.cache_ceiling_bytes << ';'
        << r.completion_time;
    for (const SessionOutcome& s : r.sessions) {
        out << '|' << s.source << ',' << s.seq << ',' << s.start_time << ','
            << static_cast<int>(s.outcome) << ',' << s.up_count << ',' << s.reachable_count << ','
            << s.delivered_up << ',' << s.missed_reachable << ',' << s.last_delivery << ','
            << s.forwards;
    }
    for (const std::uint64_t b : r.latency_hist) out << '#' << b;
    return out.str();
}

/// A seeded churned workload on a unit-disk network.
struct ChurnedRun {
    Graph g;
    Workload wl;
    faults::FaultPlan plan;
    EngineConfig config;

    ChurnedRun(std::uint64_t seed, std::size_t history) : g(unit_disk(40, 7.0, seed)) {
        TrafficConfig traffic;
        traffic.sessions = 300;
        traffic.rate = 4.0;
        wl = make_workload(traffic, g.node_count(), seed, 0);
        faults::FaultSpec spec;
        spec.crash_rate = 0.15;
        spec.crash_window = wl.horizon * 0.8;
        spec.recover_probability = 0.7;
        spec.link_churn_rate = 0.2;
        spec.churn_window = wl.horizon * 0.8;
        spec.protect_source = false;
        plan = faults::make_fault_plan(spec, g, 0, seed, 0);
        config.history = history;
        config.medium.jitter = 0.5;
    }

    TrafficResult run(const ForwardPolicy& policy) const {
        TrafficEngine engine(g, policy, config);
        engine.attach_faults(&plan);
        Rng rng(0x5eed + config.history);
        return engine.run(wl, rng);
    }
};

TEST(CoveragePolicyMemo, KeyIgnoresOrderDuplicatesAndOutOfBallIds) {
    std::size_t forwards = 0;
    std::size_t prunes = 0;
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
        const Graph g = unit_disk(36, 7.0, seed);
        const PriorityKeys keys(g, PriorityScheme::kDegree);
        const auto policy = make_policy(g, "generic-fr");
        policy->begin_run();
        Rng rng(seed * 7919);
        for (NodeId v = 0; v < g.node_count(); ++v) {
            const std::vector<NodeId> ball = local_topology(g, v, 2).members;
            std::vector<NodeId> outside;
            for (NodeId u = 0; u < g.node_count(); ++u) {
                if (!std::binary_search(ball.begin(), ball.end(), u)) outside.push_back(u);
            }
            for (int trial = 0; trial < 12; ++trial) {
                std::vector<NodeId> base;
                const std::size_t size = 1 + rng.index(std::min<std::size_t>(4, ball.size()));
                while (base.size() < size) {
                    const NodeId u = ball[rng.index(ball.size())];
                    if (std::find(base.begin(), base.end(), u) == base.end()) base.push_back(u);
                }
                const bool expected = direct_forward(g, keys, v, base);
                (expected ? forwards : prunes) += 1;
                EXPECT_EQ(policy->should_forward(v, base), expected) << "node " << v;

                std::vector<NodeId> permuted = base;
                std::reverse(permuted.begin(), permuted.end());
                std::rotate(permuted.begin(), permuted.begin() + 1, permuted.end());
                EXPECT_EQ(direct_forward(g, keys, v, permuted), expected);
                EXPECT_EQ(policy->should_forward(v, permuted), expected) << "node " << v;

                std::vector<NodeId> duplicated = base;
                duplicated.push_back(base.front());
                duplicated.insert(duplicated.begin(), base.back());
                EXPECT_EQ(direct_forward(g, keys, v, duplicated), expected);
                EXPECT_EQ(policy->should_forward(v, duplicated), expected) << "node " << v;

                std::vector<NodeId> widened = base;
                if (!outside.empty()) {
                    widened.insert(widened.begin(), outside[rng.index(outside.size())]);
                    widened.push_back(outside[rng.index(outside.size())]);
                }
                widened.push_back(static_cast<NodeId>(g.node_count() + 5));  // not a node
                EXPECT_EQ(direct_forward(g, keys, v, widened), expected);
                EXPECT_EQ(policy->should_forward(v, widened), expected) << "node " << v;
            }

            // Spans with more than kMaxHistory ball members bypass the memo
            // and still answer exactly, even when a stored key holds their
            // first kMaxHistory members.
            if (ball.size() > kMaxHistory) {
                std::vector<NodeId> longer;
                for (std::size_t i = 0; i < ball.size() && longer.size() < kMaxHistory + 3;
                     i += 1 + rng.index(2)) {
                    longer.push_back(ball[i]);
                }
                const std::vector<NodeId> prefix(longer.begin(), longer.begin() + kMaxHistory);
                longer.push_back(longer.front());
                EXPECT_EQ(policy->should_forward(v, prefix), direct_forward(g, keys, v, prefix));
                const MemoStats before = policy->memo_stats();
                EXPECT_EQ(policy->should_forward(v, longer), direct_forward(g, keys, v, longer))
                    << "node " << v;
                const MemoStats after = policy->memo_stats();
                if (longer.size() > kMaxHistory + 1) {
                    EXPECT_EQ(after.hits, before.hits) << "node " << v;
                    EXPECT_EQ(after.misses, before.misses + 1) << "node " << v;
                }
                EXPECT_EQ(policy->should_forward(v, prefix), direct_forward(g, keys, v, prefix));
            }
        }
    }
    // Both answers occur, so the comparison is not vacuous.
    EXPECT_GT(forwards, 0u);
    EXPECT_GT(prunes, 0u);
}

TEST(CoveragePolicyMemo, AnswersStayExactPastTheCapacity) {
    const Graph g = unit_disk(40, 9.0, 11);
    const PriorityKeys keys(g, PriorityScheme::kDegree);
    NodeId v = 0;
    for (NodeId u = 1; u < g.node_count(); ++u) {
        if (local_topology(g, u, 2).size() > local_topology(g, v, 2).size()) v = u;
    }
    const std::vector<NodeId> ball = local_topology(g, v, 2).members;
    ASSERT_GE(ball.size(), 8u);

    // Every 1-, 2- and 3-member key over the first 8 ball members: 92
    // distinct keys for one node, almost three tables' worth.
    std::vector<std::vector<NodeId>> keysets;
    for (std::size_t a = 0; a < 8; ++a) {
        keysets.push_back({ball[a]});
        for (std::size_t b = a + 1; b < 8; ++b) {
            keysets.push_back({ball[a], ball[b]});
            for (std::size_t c = b + 1; c < 8; ++c) keysets.push_back({ball[c], ball[a], ball[b]});
        }
    }
    ASSERT_GT(keysets.size(), 2 * CoveragePolicy::kMemoCapacity);

    CoveragePolicy policy(g, 2, PriorityScheme::kDegree);
    policy.begin_run();
    std::size_t forwards = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::vector<NodeId>& visited : keysets) {
            const bool expected = direct_forward(g, keys, v, visited);
            forwards += expected ? 1 : 0;
            EXPECT_EQ(policy.should_forward(v, visited), expected);
        }
    }
    EXPECT_GT(forwards, 0u);
    EXPECT_LT(forwards, 2 * keysets.size());
    // The table keeps the first kMemoCapacity keys and stores no more: the
    // second pass hits exactly those.
    const MemoStats stats = policy.memo_stats();
    EXPECT_EQ(stats.hits, CoveragePolicy::kMemoCapacity);
    EXPECT_EQ(stats.misses, 2 * keysets.size() - CoveragePolicy::kMemoCapacity);
}

TEST(CoveragePolicyMemo, EngineRunsMatchTheUnmemoisedPolicy) {
    for (const std::size_t history : {1u, 2u, 4u}) {
        for (const std::uint64_t seed : {5u, 23u}) {
            const ChurnedRun churned(seed, history);
            const auto policy = make_policy(churned.g, "generic-fr");
            const LoggingPolicy memoised(*policy);
            const UnmemoisedPolicy oracle(churned.g);

            const TrafficResult got = churned.run(memoised);
            const TrafficResult want = churned.run(oracle);
            EXPECT_EQ(digest(got), digest(want)) << "history " << history << " seed " << seed;
            ASSERT_EQ(memoised.log.size(), oracle.log.size());
            EXPECT_TRUE(memoised.log == oracle.log) << "history " << history << " seed " << seed;

            const MemoStats stats = policy->memo_stats();
            EXPECT_EQ(stats.hits + stats.misses, memoised.log.size());
            EXPECT_GT(stats.hits, 0u);  // the memo is exercised
        }
    }
}

TEST(CoveragePolicyMemo, EveryRunStartsWithAnEmptyMemo) {
    const ChurnedRun churned(31, 2);
    const auto reused = make_policy(churned.g, "generic-fr");
    const std::string first = digest(churned.run(*reused));
    const MemoStats first_stats = reused->memo_stats();
    const std::string second = digest(churned.run(*reused));
    const MemoStats second_stats = reused->memo_stats();
    const auto fresh = make_policy(churned.g, "generic-fr");
    const std::string from_fresh = digest(churned.run(*fresh));

    EXPECT_EQ(second, from_fresh);
    EXPECT_EQ(first, from_fresh);
    EXPECT_GT(first_stats.misses, 0u);
    EXPECT_EQ(second_stats.misses, first_stats.misses);
    EXPECT_EQ(second_stats.hits, first_stats.hits);

    // begin_run empties the table: a stored answer is a miss again.
    const NodeId v = 0;
    const NodeId visited[1] = {churned.g.neighbors(v).front()};
    reused->begin_run();
    (void)reused->should_forward(v, visited);
    (void)reused->should_forward(v, visited);
    EXPECT_EQ(reused->memo_stats().hits, 1u);
    reused->begin_run();
    EXPECT_EQ(reused->memo_stats().hits + reused->memo_stats().misses, 0u);
    (void)reused->should_forward(v, visited);
    EXPECT_EQ(reused->memo_stats().misses, 1u);
}

TEST(CoveragePolicyMemo, RunRecordsItsMemoCounters) {
    const ChurnedRun churned(37, 2);
    const auto policy = make_policy(churned.g, "generic-fr");
    const telemetry::MetricId hits = telemetry::counter("traffic.policy.memo_hits");
    const telemetry::MetricId misses = telemetry::counter("traffic.policy.memo_misses");
    const bool was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::RunScope scope;
    (void)churned.run(*policy);
    const telemetry::Snapshot snap = scope.harvest();
    telemetry::set_enabled(was_enabled);

    ASSERT_GT(snap.values().size(), std::max(hits, misses));
    EXPECT_EQ(snap.values()[hits].sum, policy->memo_stats().hits);
    EXPECT_EQ(snap.values()[misses].sum, policy->memo_stats().misses);
    EXPECT_GT(policy->memo_stats().hits, 0u);
}

}  // namespace
}  // namespace adhoc::traffic
