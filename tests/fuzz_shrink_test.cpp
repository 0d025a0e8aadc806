/// \file fuzz_shrink_test.cpp
/// \brief Delta-debugging shrinker behavior on synthetic and real failures.

#include <gtest/gtest.h>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"

namespace adhoc::fuzz {
namespace {

Scenario big_scenario() {
    const Graph g = grid_graph(5, 6);
    Scenario s;
    s.family = "test";
    s.node_count = g.node_count();
    s.edges = g.edges();
    s.source = 12;
    s.loss = 0.3;
    s.jitter = 1.5;
    s.config.history = 4;
    return normalized(s);
}

TEST(FuzzShrink, SyntheticPredicateShrinksToCore) {
    // "Fails whenever nodes with original ids 3 and 4 are adjacent" — after
    // remapping we can't track ids, so use a structural proxy: fails while
    // the graph still has at least one edge.
    const Scenario start = big_scenario();
    ShrinkStats stats;
    const Scenario small = shrink_scenario(
        start, [](const Scenario& s) { return s.node_count >= 2; },
        ShrinkOptions{}, &stats);
    EXPECT_EQ(small.node_count, 2u);
    EXPECT_EQ(small.edges.size(), 1u);
    EXPECT_EQ(small.loss, 0.0);
    EXPECT_EQ(small.jitter, 0.0);
    EXPECT_EQ(small.source, 0u);
    EXPECT_GT(stats.evals, 0u);
    EXPECT_FALSE(stats.budget_exhausted);
}

TEST(FuzzShrink, ResultStillFailsAndIsNormalized) {
    const Scenario start = big_scenario();
    const auto predicate = [](const Scenario& s) { return s.node_count >= 5; };
    const Scenario small = shrink_scenario(start, predicate);
    EXPECT_TRUE(predicate(small));
    EXPECT_EQ(small, normalized(small));
    EXPECT_TRUE(is_connected(small.knowledge_graph()));
    EXPECT_EQ(small.node_count, 5u);
}

TEST(FuzzShrink, RespectsEvalBudget) {
    const Scenario start = big_scenario();
    ShrinkStats stats;
    ShrinkOptions options;
    options.max_evals = 10;
    const Scenario small = shrink_scenario(
        start, [](const Scenario& s) { return s.node_count >= 2; }, options, &stats);
    EXPECT_LE(stats.evals, 10u);
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_GE(small.node_count, 2u);  // never returns a passing scenario
}

TEST(FuzzShrink, RealOracleFailureShrinksSmall) {
    // The disconnected-cover mutant fails delivery on any graph where the
    // pruning decision severs the broadcast; shrink one real finding.
    const AlgorithmPool pool(/*with_mutants=*/true);
    Scenario failing;
    bool found = false;
    for (std::uint64_t i = 0; i < 200 && !found; ++i) {
        GenerationLimits limits;
        limits.max_nodes = 12;
        limits.faults = false;
        limits.registry_algorithms = false;
        Scenario s = generate_scenario(31, i, limits);
        s.config.algorithm = "mutant:disconnected-cover";
        if (!check_scenario(s, pool).ok) {
            failing = s;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "mutant never failed in 200 scenarios";

    const std::string oracle = check_scenario(failing, pool).oracle;
    const auto still_fails = [&](const Scenario& s) {
        const CheckReport r = check_scenario(s, pool);
        return !r.ok && r.oracle == oracle;
    };
    ShrinkStats stats;
    const Scenario small = shrink_scenario(failing, still_fails, ShrinkOptions{}, &stats);
    EXPECT_TRUE(still_fails(small));
    EXPECT_LE(small.node_count, 8u) << "repro did not minimize";
    EXPECT_LE(small.node_count, failing.node_count);
}


TEST(FuzzShrink, SavedFindingReplaysAsThatFinding) {
    // A finding's shrunk repro must replay as the same finding: same
    // scenario, same oracle, and the diagnostic its note names.  The note
    // once carried the unshrunk diagnostic, whose node ids the shrunk
    // scenario does not even have.  The fixture is the first scenario of
    // more than 8 nodes in a pinned window on which the skip-priority
    // mutant strands nodes ("N nodes unreached (first: node X)").
    GenerationLimits limits;
    limits.max_nodes = 32;
    limits.faults = false;
    limits.registry_algorithms = false;
    const AlgorithmPool pool(/*with_mutants=*/true);
    Scenario original;
    CheckReport report;
    std::uint64_t iteration = 0;
    for (; iteration < 200; ++iteration) {
        original = generate_scenario(20261020, iteration, limits);
        original.config.algorithm = "mutant:skip-priority";
        report = check_scenario(original, pool);
        if (!report.ok && report.oracle == "delivery" && original.node_count > 8) break;
    }
    ASSERT_LT(iteration, 200u) << "mutant never failed the delivery oracle";

    const Finding finding = make_finding(iteration, original, report, pool, 2000);
    ASSERT_LT(finding.shrunk.node_count, original.node_count);
    EXPECT_NE(finding.shrunk_detail, finding.detail);
    const Repro written = finding_repro(finding, pool);
    std::string error;
    const std::optional<Repro> read = parse_repro(to_repro_json(written), &error);
    ASSERT_TRUE(read.has_value()) << error;
    EXPECT_EQ(read->scenario, finding.shrunk);
    EXPECT_EQ(read->oracle, "delivery");
    EXPECT_EQ(read->note, written.note);

    const CheckReport replayed = check_scenario(read->scenario, pool);
    EXPECT_FALSE(replayed.ok);
    EXPECT_EQ(replayed.oracle, "delivery");
    EXPECT_EQ(replayed.detail, finding.shrunk_detail);
    EXPECT_EQ(read->note, "iteration " + std::to_string(iteration) + ": " + replayed.detail);
    std::uint64_t digest = 0;
    ASSERT_TRUE(replay_digest(read->scenario, pool, &digest));
    EXPECT_EQ(read->digest, digest);
}

}  // namespace
}  // namespace adhoc::fuzz
