#include "sim/node_agent.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace adhoc {

void KnowledgeBase::init_state(std::size_t n) {
    words_per_node_ = bits::word_count(n);
    visited_bits_.assign(n * words_per_node_, 0);
    designated_bits_.assign(n * words_per_node_, 0);
    received_.assign(bits::word_count(n), 0);
    decided_.assign(bits::word_count(n), 0);
    designated_self_.assign(bits::word_count(n), 0);
    first_sender_.assign(n, kInvalidNode);
    first_state_.resize(n);
    receipts_.assign(n, 0);
    status_scratch_.assign(n, NodeStatus::kInvisible);
    last_view_node_ = kInvalidNode;
}

KnowledgeBase::KnowledgeBase(const Graph& g, std::size_t k)
    : graph_(&g), topologies_(g.node_count()), k_(k) {
    init_state(g.node_count());
}

const LocalTopology& KnowledgeBase::compile(NodeId v) const {
    return topologies_[v] = local_topology(*graph_, v, k_);
}

namespace {

[[noreturn]] void reject_view(NodeId v, const std::string& what) {
    throw std::invalid_argument("KnowledgeBase: views[" + std::to_string(v) + "] " + what);
}

}  // namespace

KnowledgeBase::KnowledgeBase(const Graph& g, std::vector<LocalTopology> views)
    : graph_(&g), topologies_(std::move(views)), k_(0) {
    const std::size_t n = g.node_count();
    if (topologies_.size() != n) {
        throw std::invalid_argument("KnowledgeBase: " + std::to_string(topologies_.size()) +
                                    " views for " + std::to_string(n) + " nodes");
    }
    for (NodeId v = 0; v < n; ++v) {
        const LocalTopology& t = topologies_[v];
        if (t.center != v) reject_view(v, "has center " + std::to_string(t.center));
        for (std::size_t i = 0; i < t.members.size(); ++i) {
            if (t.members[i] >= n) {
                reject_view(v, "has member " + std::to_string(t.members[i]) +
                                   " outside the " + std::to_string(n) + "-node graph");
            }
            if (i > 0 && t.members[i] <= t.members[i - 1]) {
                reject_view(v, "members not strictly ascending: " +
                                   std::to_string(t.members[i - 1]) + " then " +
                                   std::to_string(t.members[i]));
            }
        }
        if (t.local_of(v) == kNoLocal) reject_view(v, "does not contain its center");
        if (t.offsets.size() != t.members.size() + 1) {
            reject_view(v, "has " + std::to_string(t.offsets.size()) + " CSR offsets for " +
                               std::to_string(t.members.size()) + " members");
        }
        k_ = t.hops;  // uniform by construction
    }
    init_state(n);
}

void KnowledgeBase::load_visited(NodeId v, const std::vector<char>& mask) {
    std::uint64_t* row = visited_row(v);
    std::fill(row, row + words_per_node_, 0);
    for (std::size_t x = 0; x < mask.size(); ++x) {
        if (mask[x]) bits::set(row, x);
    }
}

void KnowledgeBase::load_designated(NodeId v, const std::vector<char>& mask) {
    std::uint64_t* row = designated_row(v);
    std::fill(row, row + words_per_node_, 0);
    for (std::size_t x = 0; x < mask.size(); ++x) {
        if (mask[x]) bits::set(row, x);
    }
}

bool KnowledgeBase::observe(NodeId observer, const Transmission& tx) {
    ++receipts_[observer];

    std::uint64_t* visited = visited_row(observer);
    std::uint64_t* designated = designated_row(observer);
    bits::set(visited, tx.sender);  // snooped: the sender just forwarded
    for (const VisitedRecord& rec : tx.state.history) {
        bits::set(visited, rec.node);
        for (NodeId d : rec.designated) {
            bits::set(designated, d);
            // Only a *direct* designation obliges this node: a designation
            // by a non-neighbor would have been heard from that node
            // directly when it transmitted.
            if (d == observer && rec.node == tx.sender) mark_designated_self(observer);
        }
    }

    const bool first = !received(observer);
    if (first) {
        mark_received(observer);
        first_sender_[observer] = tx.sender;
        first_state_[observer] = tx.state;
    }
    return first;
}

View KnowledgeBase::view_of(NodeId v, const PriorityKeys& keys) const {
    // Restore the shared scratch invariant: only the *current* view's
    // member slots may differ from kInvisible.
    if (last_view_node_ != kInvalidNode && last_view_node_ != v) {
        for (NodeId x : topologies_[last_view_node_].members) {
            status_scratch_[x] = NodeStatus::kInvisible;
        }
    }
    last_view_node_ = v;

    const LocalTopology& topo = topology(v);
    const std::uint64_t* visited = visited_row(v);
    const std::uint64_t* designated = designated_row(v);
    for (NodeId x : topo.members) {
        status_scratch_[x] = bits::test(visited, x)      ? NodeStatus::kVisited
                             : bits::test(designated, x) ? NodeStatus::kDesignated
                                                         : NodeStatus::kUnvisited;
    }
    return View(&topo, &status_scratch_, &keys);
}

}  // namespace adhoc
