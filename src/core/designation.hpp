/// \file designation.hpp
/// \brief Greedy forward-neighbor designation (Sections 4.2, 6.3, 6.4).
///
/// Neighbor-designating algorithms (DP, PDP, TDP, MPR, the generic ND
/// option) all reduce to the same greedy set-cover step: from candidate
/// 1-hop neighbors X, repeatedly pick the one covering the most uncovered
/// 2-hop targets Y, until Y is exhausted.  The hybrid schemes of Section
/// 6.4 instead designate a *single* neighbor by maximum effective degree or
/// minimum id.
///
/// Every routine takes any graph type `G` with `node_count()` and
/// `neighbors(v)`: a `Graph`, or a local view read over its local ids
/// (`LocalIdGraph`).  Local ids ascend with global ids, so the id
/// tie-breaks pick the same nodes either way.

#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/khop.hpp"

namespace adhoc {

/// A LocalTopology as a graph over its local ids 0..m-1.
struct LocalIdGraph {
    const LocalTopology& topo;
    [[nodiscard]] std::size_t node_count() const noexcept { return topo.size(); }
    [[nodiscard]] std::span<const std::uint32_t> neighbors(NodeId x) const noexcept {
        return topo.row(x);
    }
};

/// Effective node degree of `w` with respect to `uncovered`:
/// |N(w) ∩ uncovered| (Section 6.3, dominant pruning).
template <class G>
[[nodiscard]] std::size_t effective_degree(const G& g, NodeId w,
                                           const std::vector<char>& uncovered) {
    assert(uncovered.size() == g.node_count());
    std::size_t count = 0;
    for (NodeId y : g.neighbors(w)) {
        if (uncovered[y]) ++count;
    }
    return count;
}

/// Greedy set cover: selects nodes from `candidates` until every node of
/// `targets` is adjacent to (covered by) a selected node, or no candidate
/// covers anything further.  Coverage is adjacency in `g` (a candidate does
/// not cover itself unless adjacent to itself, which simple graphs forbid —
/// callers remove candidate ids from `targets` beforehand when the
/// semantics require it).
///
/// Tie-break: larger effective degree first, then smaller node id — the
/// paper's convention ("node id is used to break a tie in node degree").
template <class G>
[[nodiscard]] std::vector<NodeId> greedy_cover(const G& g, std::span<const NodeId> candidates,
                                               std::span<const NodeId> targets) {
    std::vector<char> uncovered(g.node_count(), 0);
    std::size_t remaining = 0;
    for (NodeId t : targets) {
        if (!uncovered[t]) {
            uncovered[t] = 1;
            ++remaining;
        }
    }

    std::vector<char> used(g.node_count(), 0);
    std::vector<NodeId> selected;
    while (remaining > 0) {
        NodeId best = kInvalidNode;
        std::size_t best_gain = 0;
        for (NodeId w : candidates) {
            if (used[w]) continue;
            const std::size_t gain = effective_degree(g, w, uncovered);
            if (gain > best_gain || (gain == best_gain && gain > 0 && w < best)) {
                best = w;
                best_gain = gain;
            }
        }
        if (best == kInvalidNode || best_gain == 0) break;  // nothing more coverable
        used[best] = 1;
        selected.push_back(best);
        for (NodeId y : g.neighbors(best)) {
            if (uncovered[y]) {
                uncovered[y] = 0;
                --remaining;
            }
        }
    }
    return selected;
}

/// Hybrid single designation policy (Section 6.4).
enum class HybridPolicy {
    kMaxDegree,  ///< designate the neighbor with maximum effective degree
    kMinId,      ///< designate the eligible neighbor with the lowest id
};

/// Picks at most one designated forward neighbor for `v`: a candidate that
/// covers at least one node of `uncovered` (mask over g's id space),
/// selected by `policy`.  Returns kInvalidNode when no candidate covers
/// anything.
template <class G>
[[nodiscard]] NodeId designate_single(const G& g, std::span<const NodeId> candidates,
                                      const std::vector<char>& uncovered, HybridPolicy policy) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId w : candidates) {
        const std::size_t gain = effective_degree(g, w, uncovered);
        if (gain == 0) continue;  // must cover at least one 2-hop neighbor
        switch (policy) {
            case HybridPolicy::kMaxDegree:
                if (gain > best_gain || (gain == best_gain && w < best)) {
                    best = w;
                    best_gain = gain;
                }
                break;
            case HybridPolicy::kMinId:
                if (best == kInvalidNode || w < best) {
                    best = w;
                    best_gain = gain;
                }
                break;
        }
    }
    return best;
}

}  // namespace adhoc
