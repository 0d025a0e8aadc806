#include "graph/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace adhoc {

double neighborhood_connectivity_ratio(const Graph& g, NodeId v) {
    assert(g.contains(v));
    std::vector<NodeId> stamp(g.node_count(), kInvalidNode);
    return ncr_of(g.degree(v), connected_neighbor_pairs(g, v, stamp));
}

double average_degree(const Graph& g) {
    if (g.node_count() == 0) return 0.0;
    return 2.0 * static_cast<double>(g.edge_count()) / static_cast<double>(g.node_count());
}

std::size_t max_degree(const Graph& g) {
    std::size_t best = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) best = std::max(best, g.degree(v));
    return best;
}

std::size_t min_degree(const Graph& g) {
    if (g.node_count() == 0) return 0;
    std::size_t best = g.degree(0);
    for (NodeId v = 1; v < g.node_count(); ++v) best = std::min(best, g.degree(v));
    return best;
}

std::vector<char> articulation_points(const Graph& g) {
    const std::size_t n = g.node_count();
    std::vector<char> is_cut(n, 0);
    std::vector<std::size_t> disc(n, 0), low(n, 0);
    std::vector<char> visited(n, 0);
    std::size_t timer = 1;

    // Iterative Tarjan (explicit stack) to stay safe on large graphs.
    struct Frame {
        NodeId v;
        NodeId parent;
        std::size_t next_idx;
        std::size_t children;
    };
    for (NodeId root = 0; root < n; ++root) {
        if (visited[root]) continue;
        std::vector<Frame> stack;
        stack.push_back({root, kInvalidNode, 0, 0});
        visited[root] = 1;
        disc[root] = low[root] = timer++;
        while (!stack.empty()) {
            Frame& f = stack.back();
            const auto nbrs = g.neighbors(f.v);
            if (f.next_idx < nbrs.size()) {
                const NodeId to = nbrs[f.next_idx++];
                if (to == f.parent) continue;
                if (visited[to]) {
                    low[f.v] = std::min(low[f.v], disc[to]);
                } else {
                    visited[to] = 1;
                    disc[to] = low[to] = timer++;
                    ++f.children;
                    stack.push_back({to, f.v, 0, 0});
                }
            } else {
                const Frame done = f;
                stack.pop_back();
                if (!stack.empty()) {
                    Frame& up = stack.back();
                    low[up.v] = std::min(low[up.v], low[done.v]);
                    if (up.parent != kInvalidNode && low[done.v] >= disc[up.v]) is_cut[up.v] = 1;
                }
                if (done.parent == kInvalidNode && done.children >= 2) is_cut[done.v] = 1;
            }
        }
    }
    return is_cut;
}

double clustering_coefficient(const Graph& g) {
    std::size_t closed = 0;  // 2x (ordered) closed triplets counted via connected pairs
    std::size_t triplets = 0;
    std::vector<NodeId> stamp(g.node_count(), kInvalidNode);
    for (NodeId v = 0; v < g.node_count(); ++v) {
        const std::size_t deg = g.degree(v);
        if (deg < 2) continue;
        triplets += deg * (deg - 1) / 2;
        closed += connected_neighbor_pairs(g, v, stamp);
    }
    if (triplets == 0) return 0.0;
    return static_cast<double>(closed) / static_cast<double>(triplets);
}

}  // namespace adhoc
