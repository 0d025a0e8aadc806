// Unit tests for views, including the paper's Figure 1 view evolution.

#include "core/view.hpp"

#include <gtest/gtest.h>

namespace adhoc {
namespace {

// Figure 1: triangle u-v-w (ids 0=u, 1=v, 2=w); three snapshots of one
// broadcast from v.
class Figure1 : public ::testing::Test {
  protected:
    Figure1() : g_(3), keys_(Graph(3), PriorityScheme::kId) {
        g_.add_edge(0, 1);
        g_.add_edge(1, 2);
        g_.add_edge(0, 2);
        keys_ = PriorityKeys(g_, PriorityScheme::kId);
    }
    Graph g_;
    PriorityKeys keys_;
};

TEST_F(Figure1, ViewA_AllUnvisited) {
    const View view(induced_topology(g_, 1, 0, {0, 1, 2}),
                    {NodeStatus::kUnvisited, NodeStatus::kUnvisited, NodeStatus::kUnvisited},
                    &keys_);
    // Pr(u) < Pr(v) < Pr(w) by id.
    EXPECT_LT(view.priority(0), view.priority(1));
    EXPECT_LT(view.priority(1), view.priority(2));
}

TEST_F(Figure1, ViewB_SourceVisited) {
    const View view(induced_topology(g_, 1, 0, {0, 1, 2}),
                    {NodeStatus::kUnvisited, NodeStatus::kVisited, NodeStatus::kUnvisited},
                    &keys_);
    // Pr(v) = (2, v) dominates both unvisited nodes.
    EXPECT_GT(view.priority(1), view.priority(2));
    EXPECT_GT(view.priority(1), view.priority(0));
    EXPECT_GT(view.priority(2), view.priority(0));  // (1,w) > (1,u)
}

TEST_F(Figure1, ViewC_TwoVisited) {
    const View view(induced_topology(g_, 1, 0, {0, 1, 2}),
                    {NodeStatus::kUnvisited, NodeStatus::kVisited, NodeStatus::kVisited},
                    &keys_);
    EXPECT_GT(view.priority(2), view.priority(1));  // (2,w) > (2,v)
    EXPECT_GT(view.priority(1), view.priority(0));
}

TEST(View, InvisibleNodesGetBottomPriority) {
    const Graph g = path_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view(induced_topology(g, 0, 0, {0, 1}),
                    {NodeStatus::kUnvisited, NodeStatus::kUnvisited, NodeStatus::kVisited},
                    &keys);
    EXPECT_EQ(view.status(2), NodeStatus::kInvisible);  // visited but invisible
    EXPECT_LT(view.priority(2), view.priority(0));
}

TEST(View, MakeStaticViewHasNoBroadcastState) {
    const Graph g = cycle_graph(6);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 2, keys);
    for (NodeId v = 0; v < 6; ++v) {
        EXPECT_NE(view.status(v), NodeStatus::kVisited);
        EXPECT_NE(view.status(v), NodeStatus::kDesignated);
    }
    // k=2 on C6 from node 0: nodes 3 is at distance 3 -> invisible.
    EXPECT_FALSE(view.visible(3));
    EXPECT_TRUE(view.visible(2));
}

TEST(View, HasEdgeAndNeighborsReadTheLocalLinks) {
    const Graph g = path_graph(6);
    const PriorityKeys keys(g, PriorityScheme::kId);
    const View view = make_static_view(g, 0, 2, keys);
    EXPECT_EQ(view.node_count(), 6u);
    EXPECT_TRUE(view.has_edge(0, 1));
    EXPECT_TRUE(view.has_edge(2, 1));
    EXPECT_FALSE(view.has_edge(0, 2));
    EXPECT_FALSE(view.has_edge(2, 3));  // 3 is invisible
    EXPECT_EQ(view.neighbors(1), (std::vector<NodeId>{0, 2}));
    EXPECT_EQ(view.neighbors(2), (std::vector<NodeId>{1}));
    EXPECT_TRUE(view.neighbors(3).empty());
}

TEST(View, MakeDynamicViewClampsInvisibleBroadcastState) {
    const Graph g = path_graph(5);
    const PriorityKeys keys(g, PriorityScheme::kId);
    std::vector<char> visited(5, 0), designated(5, 0);
    visited[4] = 1;  // visited, but 4 hops from center 0
    designated[1] = 1;
    const View view = make_dynamic_view(g, 0, 2, keys, visited, designated);
    EXPECT_EQ(view.status(4), NodeStatus::kInvisible);
    EXPECT_EQ(view.status(1), NodeStatus::kDesignated);
    EXPECT_EQ(view.status(0), NodeStatus::kUnvisited);
}

TEST(View, VisitedTrumpsDesignatedInStatus) {
    const Graph g = path_graph(3);
    const PriorityKeys keys(g, PriorityScheme::kId);
    std::vector<char> visited{0, 1, 0}, designated{0, 1, 1};
    const View view = make_dynamic_view(g, 1, 0, keys, visited, designated);
    EXPECT_EQ(view.status(1), NodeStatus::kVisited);
    EXPECT_EQ(view.status(2), NodeStatus::kDesignated);
}

TEST(View, LocalPriorityNeverExceedsGlobal) {
    // Theorem 2 precondition: Pr'(v) <= Pr(v) element-wise for every local
    // view.
    const Graph g = grid_graph(3, 3);
    const PriorityKeys keys(g, PriorityScheme::kDegree);
    std::vector<char> visited(9, 0), designated(9, 0);
    visited[8] = 1;
    visited[4] = 1;
    const View global = make_dynamic_view(g, 0, 0, keys, visited, designated);
    for (std::size_t k = 1; k <= 4; ++k) {
        const View local = make_dynamic_view(g, 0, k, keys, visited, designated);
        for (NodeId v = 0; v < 9; ++v) {
            EXPECT_LE(local.priority(v), global.priority(v)) << "k=" << k << " v=" << v;
        }
    }
}

}  // namespace
}  // namespace adhoc
