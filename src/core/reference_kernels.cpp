/// \file reference_kernels.cpp
/// \brief Naive global-id decision kernels, retained for cross-validation.
///
/// These are the pre-optimization implementations of the coverage condition
/// and LENWB's reach, kept verbatim (modulo namespace) as the semantic
/// ground truth.  They read a view's topology through `expand` — the
/// full-id-space Graph form that views themselves no longer store.  They
/// allocate O(n) per call and are deliberately straightforward;
/// `coverage_equivalence_test` asserts the mask kernels in coverage.cpp
/// agree with them bit-for-bit, and bench_micro measures the gap.  MAX_MIN
/// has one implementation, maxmin.cpp, written in this style.

#include <algorithm>
#include <cassert>
#include <deque>

#include "core/coverage.hpp"
#include "graph/traversal.hpp"

namespace adhoc::reference {

namespace {

/// Mask of nodes with priority strictly greater than `threshold`
/// (excluding `exclude`, the node under evaluation).
std::vector<char> higher_priority_mask(const View& view, const Priority& threshold,
                                       NodeId exclude) {
    std::vector<char> mask(view.node_count(), 0);
    for (NodeId x = 0; x < view.node_count(); ++x) {
        if (x == exclude || !view.visible(x)) continue;
        if (view.priority(x) > threshold) mask[x] = 1;
    }
    return mask;
}

/// Remaps component labels so that every component containing a visited
/// node shares one label (the merged "visited super-component").
void merge_visited_labels(const View& view, std::vector<std::size_t>& labels) {
    std::size_t rep = kUnreachable;
    std::vector<std::size_t> visited_labels;
    for (NodeId x = 0; x < view.node_count(); ++x) {
        if (labels[x] == kUnreachable) continue;
        if (view.status(x) == NodeStatus::kVisited) {
            rep = std::min(rep, labels[x]);
            visited_labels.push_back(labels[x]);
        }
    }
    if (rep == kUnreachable) return;
    std::sort(visited_labels.begin(), visited_labels.end());
    visited_labels.erase(std::unique(visited_labels.begin(), visited_labels.end()),
                         visited_labels.end());
    for (std::size_t& l : labels) {
        if (l != kUnreachable &&
            std::binary_search(visited_labels.begin(), visited_labels.end(), l)) {
            l = rep;
        }
    }
}

/// Sorted set of (merged) component labels that `u` belongs to or is
/// adjacent to.
std::vector<std::size_t> adjacent_components(const Graph& topo, NodeId u,
                                             const std::vector<std::size_t>& labels) {
    std::vector<std::size_t> comps;
    if (labels[u] != kUnreachable) comps.push_back(labels[u]);
    for (NodeId y : topo.neighbors(u)) {
        if (labels[y] != kUnreachable) comps.push_back(labels[y]);
    }
    std::sort(comps.begin(), comps.end());
    comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
    return comps;
}

bool intersects(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia == *ib) return true;
        if (*ia < *ib) {
            ++ia;
        } else {
            ++ib;
        }
    }
    return false;
}

/// Nodes of H reachable from `u` using at most `max_intermediates` H-nodes,
/// where the first H-node must be adjacent to `u`.  dist[x] = number of
/// H-nodes on the walk up to and including x.  When `merge_visited`, the
/// visited nodes behave as one hyper-node.
std::vector<std::size_t> bounded_reach(const View& view, const Graph& topo, NodeId u,
                                       const std::vector<char>& in_h,
                                       std::size_t max_intermediates, bool merge_visited) {
    std::vector<std::size_t> dist(view.node_count(), kUnreachable);
    std::deque<NodeId> queue;
    bool visited_injected = false;

    auto inject_visited = [&](std::size_t d) {
        if (visited_injected) return;
        visited_injected = true;
        for (NodeId x = 0; x < view.node_count(); ++x) {
            if (in_h[x] && view.status(x) == NodeStatus::kVisited && dist[x] == kUnreachable) {
                dist[x] = d;
                queue.push_back(x);
            }
        }
    };

    for (NodeId y : topo.neighbors(u)) {
        if (!in_h[y] || dist[y] != kUnreachable) continue;
        dist[y] = 1;
        queue.push_back(y);
        if (merge_visited && view.status(y) == NodeStatus::kVisited) inject_visited(1);
    }
    while (!queue.empty()) {
        const NodeId x = queue.front();
        queue.pop_front();
        if (dist[x] >= max_intermediates) continue;
        for (NodeId y : topo.neighbors(x)) {
            if (!in_h[y] || dist[y] != kUnreachable) continue;
            dist[y] = dist[x] + 1;
            queue.push_back(y);
            if (merge_visited && view.status(y) == NodeStatus::kVisited) inject_visited(dist[y]);
        }
    }
    return dist;
}

}  // namespace

Graph expand(const LocalTopology& topo) {
    std::vector<Edge> links;
    for (std::uint32_t i = 0; i < topo.size(); ++i) {
        for (const std::uint32_t j : topo.row(i)) {
            if (j > i) links.push_back({topo.members[i], topo.members[j]});
        }
    }
    // Rows ascend and so do their columns: the upper triangle is already
    // canonical and lexicographically sorted.
    return Graph::from_sorted_edges(topo.id_space, links);
}

std::vector<std::size_t> higher_priority_components(const View& view, const Priority& threshold,
                                                    bool merge_visited) {
    // The threshold owner is excluded by the strict comparison itself.
    const auto mask = higher_priority_mask(view, threshold, kInvalidNode);
    auto labels = connected_components_filtered(expand(view.local()), mask);
    if (merge_visited) merge_visited_labels(view, labels);
    return labels;
}

std::vector<char> connected_via_higher_priority(const View& view, NodeId u,
                                                const Priority& threshold, bool merge_visited) {
    std::vector<char> in_c(view.node_count(), 0);
    if (!view.visible(u)) return in_c;
    const Graph topo = expand(view.local());
    std::deque<NodeId> queue;
    bool visited_injected = false;

    auto inject_visited = [&]() {
        if (visited_injected) return;
        visited_injected = true;
        for (NodeId x = 0; x < view.node_count(); ++x) {
            if (view.visible(x) && view.status(x) == NodeStatus::kVisited && !in_c[x]) {
                in_c[x] = 1;
                queue.push_back(x);
            }
        }
    };

    in_c[u] = 1;
    queue.push_back(u);
    if (merge_visited && view.status(u) == NodeStatus::kVisited) inject_visited();
    while (!queue.empty()) {
        const NodeId x = queue.front();
        queue.pop_front();
        // Expansion proceeds only *through* the start node or nodes with
        // higher priority; lower-priority nodes may be reached (endpoints)
        // but not traversed.
        if (x != u && !(view.priority(x) > threshold)) continue;
        for (NodeId y : topo.neighbors(x)) {
            if (in_c[y]) continue;
            in_c[y] = 1;
            queue.push_back(y);
            if (merge_visited && view.status(y) == NodeStatus::kVisited) inject_visited();
        }
    }
    return in_c;
}

CoverageOutcome evaluate_coverage(const View& view, NodeId v, const CoverageOptions& opts,
                                  NodeStatus self_status) {
    assert(view.visible(v));
    const Graph topo = expand(view.local());
    const Priority pv = view.keys().evaluate(v, self_status);
    const auto nv = topo.neighbors(v);
    if (nv.size() <= 1) return {.covered = true};  // no neighbor pair to connect

    auto in_h = higher_priority_mask(view, pv, v);
    if (opts.coverage_radius > 0) {
        // Restricted implementations: only nodes within the radius may act
        // as coverage/replacement nodes.
        const auto dist = bfs_distances(topo, v);
        for (NodeId x = 0; x < view.node_count(); ++x) {
            if (dist[x] == kUnreachable || dist[x] > opts.coverage_radius) in_h[x] = 0;
        }
    }

    if (opts.max_path_hops > 0 && !opts.strong) {
        // Bounded replacement paths (Span): pairwise BFS with a depth cap
        // of max_path_hops - 1 intermediates.
        const std::size_t cap = opts.max_path_hops - 1;
        for (std::size_t i = 0; i < nv.size(); ++i) {
            const NodeId u = nv[i];
            const auto dist = bounded_reach(view, topo, u, in_h, cap, opts.merge_visited);
            for (std::size_t j = i + 1; j < nv.size(); ++j) {
                const NodeId w = nv[j];
                if (topo.has_edge(u, w)) continue;
                bool ok = false;
                for (NodeId x : topo.neighbors(w)) {
                    if (dist[x] != kUnreachable && dist[x] <= cap) {
                        ok = true;
                        break;
                    }
                }
                if (!ok) return {.covered = false, .uncovered_u = u, .uncovered_w = w};
            }
        }
        return {.covered = true};
    }

    // Component machinery shared by the full and strong conditions.
    auto labels = connected_components_filtered(topo, in_h);
    if (opts.merge_visited) merge_visited_labels(view, labels);

    std::vector<std::vector<std::size_t>> comps(nv.size());
    for (std::size_t i = 0; i < nv.size(); ++i) {
        comps[i] = adjacent_components(topo, nv[i], labels);
    }

    if (opts.strong) {
        // Strong condition: one component must dominate every neighbor.
        if (comps[0].empty()) return {.covered = false, .uncovered_u = nv[0]};
        std::vector<std::size_t> common = comps[0];
        for (std::size_t i = 1; i < nv.size() && !common.empty(); ++i) {
            std::vector<std::size_t> next;
            std::set_intersection(common.begin(), common.end(), comps[i].begin(), comps[i].end(),
                                  std::back_inserter(next));
            common = std::move(next);
            if (common.empty()) return {.covered = false, .uncovered_u = nv[i]};
        }
        return {.covered = !common.empty()};
    }

    // Full pairwise condition.  Note this relation is not transitive, so
    // all O(deg^2) pairs are checked.
    for (std::size_t i = 0; i < nv.size(); ++i) {
        for (std::size_t j = i + 1; j < nv.size(); ++j) {
            const NodeId u = nv[i];
            const NodeId w = nv[j];
            if (topo.has_edge(u, w)) continue;
            if (!intersects(comps[i], comps[j])) {
                return {.covered = false, .uncovered_u = u, .uncovered_w = w};
            }
        }
    }
    return {.covered = true};
}

bool coverage_condition_holds(const View& view, NodeId v, const CoverageOptions& opts,
                              NodeStatus self_status) {
    return reference::evaluate_coverage(view, v, opts, self_status).covered;
}

}  // namespace adhoc::reference
