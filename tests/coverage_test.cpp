// Unit tests for the coverage condition and the strong coverage condition,
// including reconstructions of the paper's Figure 4 and Figure 6 examples.

#include "core/coverage.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/view.hpp"
#include "graph/bfs_graph.hpp"

namespace adhoc {
namespace {

View dynamic_view(const Graph& g, NodeId center, std::size_t k, const PriorityKeys& keys,
                  std::vector<char> visited = {}, std::vector<char> designated = {}) {
    if (visited.empty()) visited.assign(g.node_count(), 0);
    if (designated.empty()) designated.assign(g.node_count(), 0);
    return make_dynamic_view(g, center, k, keys, visited, designated);
}

TEST(Coverage, LeafNodeIsAlwaysCovered) {
    const Graph g = path_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(view, 0));  // single neighbor
}

TEST(Coverage, TriangleLowestIdPrunes) {
    // In a triangle every pair of neighbors is directly connected; all
    // nodes are covered.
    const Graph g = complete_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    for (NodeId v = 0; v < 3; ++v) {
        const View view = make_static_view(g, v, 0, keys);
        EXPECT_TRUE(coverage_condition_holds(view, v));
    }
}

TEST(Coverage, PathMiddleIsNeverCovered) {
    const Graph g = path_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 1, 0, keys);
    const auto outcome = evaluate_coverage(view, 1);
    EXPECT_FALSE(outcome.covered);
    // Witness pair is the two endpoints.
    EXPECT_EQ(outcome.uncovered_u, 0u);
    EXPECT_EQ(outcome.uncovered_w, 2u);
}

TEST(Coverage, CycleOnlyHigherPriorityReplacements) {
    // C4 0-1-2-3: node 1's neighbors 0,2 connect via 3? Path 0-3-2 has
    // intermediate 3 > 1 -> covered.  Node 3's neighbors 0,2 connect via 1
    // only, but Pr(1) < Pr(3) -> not covered.
    const Graph g = cycle_graph(4);
    const PriorityKeys keys(g, PriorityScheme::kId);
    EXPECT_TRUE(coverage_condition_holds(make_static_view(g, 1, 0, keys), 1));
    EXPECT_FALSE(coverage_condition_holds(make_static_view(g, 3, 0, keys), 3));
    EXPECT_FALSE(coverage_condition_holds(make_static_view(g, 2, 0, keys), 2));
}

// ---- Figure 6(a): full vs strong, and the 2-hop horizon ---------------
//
// Edges: 4-1, 4-2, 4-3, 1-3, 1-5, 5-6, 6-2, 3-7, 7-8, 8-2 (ids as in the
// paper; node 0 exists but is irrelevant).  Node 4's neighbor pairs are
// covered by two *different* higher-priority components {5,6} and {7,8}
// plus the direct edge (1,3): the full condition holds (3-hop view), the
// strong condition fails, and under 2-hop information links (5,6) and
// (7,8) are invisible so even the full condition fails.
class Figure6a : public ::testing::Test {
  protected:
    Figure6a() : g_(9) {
        g_.add_edge(4, 1);
        g_.add_edge(4, 2);
        g_.add_edge(4, 3);
        g_.add_edge(1, 3);
        g_.add_edge(1, 5);
        g_.add_edge(5, 6);
        g_.add_edge(6, 2);
        g_.add_edge(3, 7);
        g_.add_edge(7, 8);
        g_.add_edge(8, 2);
        keys_ = PriorityKeys(g_, PriorityScheme::kId);
    }
    Graph g_;
    PriorityKeys keys_;
};

TEST_F(Figure6a, FullCoverageHoldsWith3HopInfo) {
    const View view = make_static_view(g_, 4, 3, keys_);
    EXPECT_TRUE(coverage_condition_holds(view, 4, CoverageOptions{}));
}

TEST_F(Figure6a, StrongCoverageFailsEvenGlobally) {
    const View view = make_static_view(g_, 4, 0, keys_);
    EXPECT_FALSE(coverage_condition_holds(view, 4, CoverageOptions{.strong = true}));
}

TEST_F(Figure6a, FullCoverageFailsWith2HopInfo) {
    // Link (7,8) (and (5,6)) joins two exactly-2-hop nodes: invisible.
    const View view = make_static_view(g_, 4, 2, keys_);
    EXPECT_FALSE(coverage_condition_holds(view, 4, CoverageOptions{}));
}

// ---- Figure 6(b): merged visited nodes enable the strong condition ----
//
// Node 2's neighbors: black nodes 0 and 1 (visited), white nodes 3 and 4.
// Edges: 2-0, 2-1, 2-3, 2-4, 3-0, 3-4.  The two black nodes are not
// adjacent, but all visited nodes are assumed connected (through the
// source), so {0,1,3,4} forms one coverage component and node 2 prunes.
class Figure6b : public ::testing::Test {
  protected:
    Figure6b() : g_(5) {
        g_.add_edge(2, 0);
        g_.add_edge(2, 1);
        g_.add_edge(2, 3);
        g_.add_edge(2, 4);
        g_.add_edge(3, 0);
        g_.add_edge(3, 4);
        keys_ = PriorityKeys(g_, PriorityScheme::kId);
        visited_.assign(5, 0);
        visited_[0] = visited_[1] = 1;
    }
    Graph g_;
    PriorityKeys keys_;
    std::vector<char> visited_;
};

TEST_F(Figure6b, StrongCoverageHoldsWithVisitedMerge) {
    const View view = make_dynamic_view(g_, 2, 0, keys_, visited_, std::vector<char>(5, 0));
    EXPECT_TRUE(coverage_condition_holds(view, 2, CoverageOptions{.strong = true}));
}

TEST_F(Figure6b, StrongCoverageFailsWithoutMerge) {
    const View view = make_dynamic_view(g_, 2, 0, keys_, visited_, std::vector<char>(5, 0));
    const CoverageOptions opts{.strong = true, .merge_visited = false};
    EXPECT_FALSE(coverage_condition_holds(view, 2, opts));
}

TEST_F(Figure6b, FullCoverageAlsoHolds) {
    const View view = make_dynamic_view(g_, 2, 0, keys_, visited_, std::vector<char>(5, 0));
    EXPECT_TRUE(coverage_condition_holds(view, 2, CoverageOptions{}));
}

// ---- Figure 4 logic: dynamic views prune where static ones cannot -----

TEST(Coverage, VisitedNodeEnablesPruning) {
    // v=3 with neighbors 1 and 5; they connect only through node 2.
    Graph g(6);
    g.add_edge(3, 1);
    g.add_edge(3, 5);
    g.add_edge(1, 2);
    g.add_edge(2, 5);
    const PriorityKeys keys(g, PriorityScheme::kId);

    // Static: Pr(2) = (1,2) < Pr(3) = (1,3): no replacement path.
    const View stat = make_static_view(g, 3, 0, keys);
    EXPECT_FALSE(coverage_condition_holds(stat, 3));

    // Dynamic: node 2 visited -> Pr(2) = (2,2) > Pr(3): path 1-2-5 works.
    std::vector<char> visited(6, 0);
    visited[2] = 1;
    const View dyn = make_dynamic_view(g, 3, 0, keys, visited, std::vector<char>(6, 0));
    EXPECT_TRUE(coverage_condition_holds(dyn, 3));
}

// ---- Structural properties --------------------------------------------

TEST(Coverage, StrongImpliesFull) {
    // Property spot-check on a deterministic medium-size graph.
    const Graph g = grid_graph(4, 5);
    const PriorityKeys keys(g, PriorityScheme::kDegree);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        const View view = make_static_view(g, v, 3, keys);
        if (coverage_condition_holds(view, v, CoverageOptions{.strong = true})) {
            EXPECT_TRUE(coverage_condition_holds(view, v, CoverageOptions{}))
                << "strong held but full failed at " << v;
        }
    }
}

TEST(Coverage, BoundedPathsAreWeakerThanUnbounded) {
    // C6: node 0's neighbors 1 and 5 connect via 2-3-4 (3 intermediates).
    // Unbounded full coverage: covered (ids 2..5 > 0... wait, intermediates
    // 2,3,4 all > 0).  With Span's 3-hop cap the path is too long.
    const Graph g = cycle_graph(6);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(view, 0, CoverageOptions{}));
    EXPECT_FALSE(coverage_condition_holds(view, 0, CoverageOptions{.max_path_hops = 3}));
    // A 4-hop budget admits the path 1-2-3-4-5.
    EXPECT_TRUE(coverage_condition_holds(view, 0, CoverageOptions{.max_path_hops = 4}));
}

TEST(Coverage, BoundedPathDirectEdgeStillCounts) {
    const Graph g = complete_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(view, 0, CoverageOptions{.max_path_hops = 3}));
}

TEST(Coverage, DesignatedSelfStatusRaisesBar) {
    // v=1 designated; its neighbors connect via node 2 which is unvisited
    // with higher id.  As plain unvisited, Pr(2)=(1,2) > Pr(1)=(1,1):
    // covered.  As designated, Pr(1)=(1.5,1) > Pr(2): not covered.
    Graph g(4);
    g.add_edge(1, 0);
    g.add_edge(1, 3);
    g.add_edge(0, 2);
    g.add_edge(2, 3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 1, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(view, 1, {}, NodeStatus::kUnvisited));
    EXPECT_FALSE(coverage_condition_holds(view, 1, {}, NodeStatus::kDesignated));
}

TEST(Coverage, DesignatedNeighborsCountAsHigherPriority) {
    // Same topology; node 2 known-designated: Pr(2)=(1.5,2) > (1.5,1).
    Graph g(4);
    g.add_edge(1, 0);
    g.add_edge(1, 3);
    g.add_edge(0, 2);
    g.add_edge(2, 3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    std::vector<char> designated(4, 0);
    designated[2] = 1;
    const View view = make_dynamic_view(g, 1, 0, keys, std::vector<char>(4, 0), designated);
    EXPECT_TRUE(coverage_condition_holds(view, 1, {}, NodeStatus::kDesignated));
}

TEST(Coverage, HigherPriorityComponentsMergeVisited) {
    // Two visited nodes in separate components of the induced subgraph
    // share a label after merging.
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    std::vector<char> visited{1, 0, 1, 0, 0};
    const View view = make_dynamic_view(g, 4, 0, keys, visited, std::vector<char>(5, 0));
    const Priority bottom = keys.evaluate(4, NodeStatus::kInvisible);
    const auto merged =
        reference::higher_priority_components(view, bottom, /*merge_visited=*/true);
    EXPECT_EQ(merged[0], merged[2]);
    const auto split =
        reference::higher_priority_components(view, bottom, /*merge_visited=*/false);
    EXPECT_NE(split[0], split[2]);
}

TEST(Coverage, ConnectedViaHigherPriorityExpandsOnlyThroughHighNodes) {
    // Chain 0-1-2-3 viewed by v=2 (threshold Pr(2)): from 0, node 1 can be
    // *reached* but not traversed (Pr(1) < Pr(2)), so 3 is not in C.
    const Graph g = path_graph(4);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 2, 0, keys);
    const Priority threshold = keys.evaluate(2, NodeStatus::kUnvisited);
    const auto in_c = connected_via_higher_priority(view, 0, threshold);
    EXPECT_TRUE(in_c[0]);
    EXPECT_TRUE(in_c[1]);   // endpoint reach
    EXPECT_FALSE(in_c[2]);  // cannot pass through node 1
    EXPECT_FALSE(in_c[3]);
}

TEST(Coverage, ConnectedViaHigherPriorityTraversesHighNodes) {
    const Graph g = path_graph(4);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);  // threshold Pr(0)
    const Priority threshold = keys.evaluate(0, NodeStatus::kUnvisited);
    const auto in_c = connected_via_higher_priority(view, 1, threshold);
    EXPECT_TRUE(in_c[2]);
    EXPECT_TRUE(in_c[3]);  // all intermediates have higher ids than 0
}

TEST(Coverage, EvaluateReportsWitnessPair) {
    const Graph g = star_graph(4);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);
    const auto outcome = evaluate_coverage(view, 0);
    EXPECT_FALSE(outcome.covered);
    EXPECT_NE(outcome.uncovered_u, kInvalidNode);
    EXPECT_NE(outcome.uncovered_w, kInvalidNode);
    EXPECT_TRUE(g.has_edge(0, outcome.uncovered_u));
    EXPECT_TRUE(g.has_edge(0, outcome.uncovered_w));
}

TEST(Coverage, CoverageRadiusRestrictsIntermediates) {
    // C4 from node 1: the replacement path for (0,2) runs through node 3
    // at distance 2.  With radius 1 (restricted Rule-k style) node 3 is
    // not an admissible coverage node.
    const Graph g = cycle_graph(4);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 1, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(view, 1, CoverageOptions{}));
    EXPECT_FALSE(coverage_condition_holds(view, 1, CoverageOptions{.coverage_radius = 1}));
    EXPECT_TRUE(coverage_condition_holds(view, 1, CoverageOptions{.coverage_radius = 2}));
}

TEST(Coverage, CoverageRadiusAppliesToStrongCondition) {
    // Star-of-stars: node 0's neighbors {1,2} are dominated by node 3
    // (adjacent to both) which sits at distance... make 3 adjacent to 1
    // and 2 but not 0: radius 1 excludes it, radius 2 admits it.
    Graph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(3, 1);
    g.add_edge(3, 2);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 0, keys);
    const CoverageOptions r1{.strong = true, .coverage_radius = 1};
    const CoverageOptions r2{.strong = true, .coverage_radius = 2};
    EXPECT_FALSE(coverage_condition_holds(view, 0, r1));
    EXPECT_TRUE(coverage_condition_holds(view, 0, r2));
}

TEST(Coverage, RefusesViewsAboveTheMaskLimit) {
    // A cycle's global view holds every node, and so does node 1's ball at
    // half the cycle's length.  The kernel decides views of
    // kMaxMaskMembers members, as the reference does, and refuses one
    // more rather than allocate masks of megabytes — on a View and on the
    // BFS-ordered copy `ScaleEngine` decides on.
    for (const std::size_t n : {kMaxMaskMembers, kMaxMaskMembers + 1}) {
        const Graph g = cycle_graph(n);
        const PriorityKeys keys(g, PriorityScheme::kId);
        const View view = make_static_view(g, 1, 0, keys);
        const BfsGraph ordered(g);
        const BfsPriorityKeys ordered_keys(ordered, PriorityScheme::kId);
        const NodeId one = ordered.internal(1);
        BallMaskScratch ball;
        if (n == kMaxMaskMembers) {
            const bool want = reference::coverage_condition_holds(view, 1);
            EXPECT_EQ(coverage_condition_holds(view, 1), want);
            EXPECT_EQ(ball_covered(ordered, one, n / 2, ordered_keys, {}, {}, ball), want);
        } else {
            EXPECT_THROW((void)evaluate_coverage(view, 1), std::length_error);
            EXPECT_THROW((void)ball_covered(ordered, one, n / 2, ordered_keys, {}, {}, ball),
                         std::length_error);
        }
    }
    // A ball past 65,535 members would wrap the pass's 16-bit local ids:
    // it is refused as soon as it passes kMaxMaskMembers, long before.
    const Graph ring = cycle_graph(70000);
    const BfsGraph ordered(ring);
    const BfsPriorityKeys ordered_keys(ordered, PriorityScheme::kId);
    BallMaskScratch ball;
    EXPECT_THROW((void)ball_covered(ordered, 0, 35000, ordered_keys, {}, {}, ball),
                 std::length_error);
    EXPECT_LE(ball.queue_need, 2 * kMaxMaskMembers);
}

TEST(Coverage, DynamicViewHelperUnused) {
    // Silence helper-unused warnings in configurations where only some
    // fixtures run; also sanity-checks the helper itself.
    const Graph g = complete_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View v = dynamic_view(g, 0, 0, keys);
    EXPECT_TRUE(coverage_condition_holds(v, 0));
}

}  // namespace
}  // namespace adhoc
