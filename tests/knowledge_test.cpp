// Unit tests for the shared per-node knowledge base (snooping +
// piggybacked broadcast state, Section 4.3).

#include "sim/node_agent.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace adhoc {
namespace {

Transmission make_tx(NodeId sender, BroadcastState state) {
    return Transmission{sender, 0.0, std::move(state)};
}

TEST(Knowledge, PrecomputesLocalTopologies) {
    const Graph g = path_graph(5);
    const KnowledgeBase kb(g, 2);
    EXPECT_EQ(kb.hops(), 2u);
    EXPECT_NE(kb.at(0).topology().local_of(2), kNoLocal);
    EXPECT_EQ(kb.at(0).topology().local_of(3), kNoLocal);
}

TEST(Knowledge, ObserveMarksSenderVisited) {
    const Graph g = path_graph(3);
    KnowledgeBase kb(g, 2);
    const bool first = kb.observe(1, make_tx(0, chain_state({}, 0, {}, 1)));
    EXPECT_TRUE(first);
    EXPECT_TRUE(kb.at(1).visited(0));
    EXPECT_TRUE(kb.at(1).received());
    EXPECT_EQ(kb.at(1).first_sender(), 0u);
}

TEST(Knowledge, SecondReceiptIsNotFirst) {
    const Graph g = path_graph(3);
    KnowledgeBase kb(g, 2);
    EXPECT_TRUE(kb.observe(1, make_tx(0, {})));
    EXPECT_FALSE(kb.observe(1, make_tx(2, {})));
    EXPECT_EQ(kb.at(1).first_sender(), 0u);  // latched
    EXPECT_TRUE(kb.at(1).visited(2));      // but knowledge still grows
    EXPECT_EQ(kb.at(1).receipts(), 2u);
}

TEST(Knowledge, HistoryNodesBecomeVisited) {
    const Graph g = path_graph(4);
    KnowledgeBase kb(g, 2);
    BroadcastState s = chain_state({}, 0, {}, 2);
    s = chain_state(s, 1, {}, 2);  // history: [0, 1]
    kb.observe(2, make_tx(1, s));
    EXPECT_TRUE(kb.at(2).visited(0));  // learned via piggyback
    EXPECT_TRUE(kb.at(2).visited(1));
}

TEST(Knowledge, DesignatedNodesRecorded) {
    const Graph g = star_graph(4);
    KnowledgeBase kb(g, 2);
    kb.observe(1, make_tx(0, chain_state({}, 0, {2, 3}, 1)));
    EXPECT_TRUE(kb.at(1).designated(2));
    EXPECT_TRUE(kb.at(1).designated(3));
    EXPECT_FALSE(kb.at(1).designated_self());
}

TEST(Knowledge, DirectDesignationSetsSelfFlag) {
    const Graph g = star_graph(4);
    KnowledgeBase kb(g, 2);
    kb.observe(2, make_tx(0, chain_state({}, 0, {2}, 1)));
    EXPECT_TRUE(kb.at(2).designated_self());
}

TEST(Knowledge, IndirectDesignationDoesNotObligate) {
    // History contains an older record designating node 3, relayed by
    // node 1: only the *sender's* designation obliges.
    const Graph g = path_graph(4);
    KnowledgeBase kb(g, 2);
    BroadcastState s = chain_state({}, 0, {3}, 2);  // 0 designated 3
    s = chain_state(s, 1, {}, 2);
    kb.observe(3, make_tx(1, s));  // wait: 3 not adjacent to 1 in a path...
    EXPECT_FALSE(kb.at(3).designated_self());
    EXPECT_TRUE(kb.at(3).designated(3));  // still known to be designated
}

TEST(Knowledge, ViewReflectsBroadcastState) {
    const Graph g = path_graph(3);
    KnowledgeBase kb(g, 2);
    const PriorityKeys keys(g, PriorityScheme::kId);
    kb.observe(1, make_tx(0, chain_state({}, 0, {2}, 1)));
    const View view = kb.view_of(1, keys);
    EXPECT_EQ(view.status(0), NodeStatus::kVisited);
    EXPECT_EQ(view.status(2), NodeStatus::kDesignated);
    EXPECT_EQ(view.status(1), NodeStatus::kUnvisited);
}

TEST(Knowledge, ViewClampsInvisibleVisited) {
    const Graph g = path_graph(5);
    KnowledgeBase kb(g, 2);
    const PriorityKeys keys(g, PriorityScheme::kId);
    // Node 0 hears about node 4 via a long history chain even though 4 is
    // outside its 2-hop view.
    BroadcastState s = chain_state({}, 4, {}, 3);
    s = chain_state(s, 2, {}, 3);
    kb.observe(1, make_tx(2, s));
    EXPECT_TRUE(kb.at(1).visited(4));
    const View view = kb.view_of(1, keys);
    EXPECT_EQ(view.status(4), NodeStatus::kInvisible);  // beyond the horizon
}

TEST(Knowledge, VisitedBeatsDesignatedInView) {
    const Graph g = path_graph(3);
    KnowledgeBase kb(g, 2);
    const PriorityKeys keys(g, PriorityScheme::kId);
    kb.observe(1, make_tx(0, chain_state({}, 0, {2}, 1)));  // 2 designated
    kb.observe(1, make_tx(2, chain_state({}, 2, {}, 1)));   // then 2 transmits
    const View view = kb.view_of(1, keys);
    EXPECT_EQ(view.status(2), NodeStatus::kVisited);
}

/// Expects the external-view constructor to reject `views` with a
/// message containing `what`.
void expect_rejected(const Graph& g, std::vector<LocalTopology> views, const std::string& what) {
    try {
        const KnowledgeBase kb(g, std::move(views));
        ADD_FAILURE() << "accepted; expected: " << what;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
}

std::vector<LocalTopology> analytic_views(const Graph& g) {
    std::vector<LocalTopology> views;
    for (NodeId v = 0; v < g.node_count(); ++v) views.push_back(local_topology(g, v, 2));
    return views;
}

TEST(Knowledge, ExternalViewsAccepted) {
    const Graph g = path_graph(3);
    const KnowledgeBase kb(g, analytic_views(g));
    EXPECT_EQ(kb.hops(), 2u);
}

TEST(Knowledge, RejectsViewCountMismatch) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views.pop_back();
    expect_rejected(g, std::move(views), "2 views for 3 nodes");
}

TEST(Knowledge, RejectsMiscenteredView) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views[1].center = 2;
    expect_rejected(g, std::move(views), "views[1] has center 2");
}

TEST(Knowledge, RejectsMemberOutsideGraph) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views[0].members = {0, 1, 5};  // would index past the status buffer
    expect_rejected(g, std::move(views), "views[0] has member 5 outside the 3-node graph");
}

TEST(Knowledge, RejectsUnsortedMembers) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views[2].members = {0, 2, 1};
    expect_rejected(g, std::move(views), "views[2] members not strictly ascending: 2 then 1");
}

TEST(Knowledge, RejectsViewWithoutItsCenter) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views[0].members = {1, 2};
    expect_rejected(g, std::move(views), "views[0] does not contain its center");
}

TEST(Knowledge, RejectsShortCsr) {
    const Graph g = path_graph(3);
    auto views = analytic_views(g);
    views[1].offsets.pop_back();
    expect_rejected(g, std::move(views), "views[1] has 3 CSR offsets for 3 members");
}

}  // namespace
}  // namespace adhoc
