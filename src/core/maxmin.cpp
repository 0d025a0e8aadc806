#include "core/maxmin.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/coverage.hpp"

namespace adhoc {

namespace {

/// Tiny union-find over node ids.
class Dsu {
  public:
    explicit Dsu(std::size_t n) : parent_(n) {
        std::iota(parent_.begin(), parent_.end(), NodeId{0});
    }
    NodeId find(NodeId x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }
    void unite(NodeId a, NodeId b) { parent_[find(a)] = find(b); }

  private:
    std::vector<NodeId> parent_;
};

}  // namespace

NodeId max_min_node(const View& view, NodeId u, NodeId w, const Priority& self_priority) {
    assert(view.visible(u) && view.visible(w));
    const Graph topo = reference::expand(view.local());
    if (topo.has_edge(u, w)) return kInvalidNode;  // no intermediate needed

    // Candidate intermediates, highest priority first.
    std::vector<NodeId> candidates;
    for (NodeId x = 0; x < view.node_count(); ++x) {
        if (x == u || x == w || !view.visible(x)) continue;
        if (view.priority(x) > self_priority) candidates.push_back(x);
    }
    std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
        return view.priority(a) > view.priority(b);
    });

    // Activate intermediates in descending priority order; the node whose
    // activation first connects u and w is the max-min (bottleneck) node of
    // the widest replacement path.
    Dsu dsu(view.node_count());
    std::vector<char> active(view.node_count(), 0);
    active[u] = active[w] = 1;
    for (NodeId x : candidates) {
        active[x] = 1;
        for (NodeId y : topo.neighbors(x)) {
            if (active[y]) dsu.unite(x, y);
        }
        if (dsu.find(u) == dsu.find(w)) return x;
    }
    return kInvalidNode;
}

std::optional<std::vector<NodeId>> max_min_path(const View& view, NodeId u, NodeId w,
                                                const Priority& self_priority) {
    if (view.has_edge(u, w)) return std::vector<NodeId>{};  // step 1: return empty
    const NodeId x = max_min_node(view, u, w, self_priority);
    if (x == kInvalidNode) return std::nullopt;  // no replacement path exists
    auto left = max_min_path(view, u, x, self_priority);
    auto right = max_min_path(view, x, w, self_priority);
    // Lemma 1: both sub-calls succeed whenever the top-level max-min node
    // exists; the recursion always selects distinct nodes and terminates.
    assert(left.has_value() && right.has_value());
    if (!left || !right) return std::nullopt;
    std::vector<NodeId> path = std::move(*left);
    path.push_back(x);
    path.insert(path.end(), right->begin(), right->end());
    return path;
}

bool is_replacement_path(const View& view, NodeId u, NodeId w,
                         const std::vector<NodeId>& intermediates, const Priority& threshold) {
    NodeId prev = u;
    for (NodeId x : intermediates) {
        if (!view.visible(x) || !(view.priority(x) > threshold)) return false;
        if (!view.has_edge(prev, x)) return false;
        prev = x;
    }
    return view.has_edge(prev, w);
}

}  // namespace adhoc
