#include "core/cds_reduce.hpp"

#include <algorithm>
#include <cassert>

#include "core/view.hpp"
#include "graph/khop.hpp"

namespace adhoc {

namespace {

/// Component labels of the subgraph of `topo` induced on the local ids
/// with `keep` set; kNoLocal elsewhere.
std::vector<std::uint32_t> components(const LocalTopology& topo, const std::vector<char>& keep) {
    std::vector<std::uint32_t> labels(topo.size(), kNoLocal);
    std::vector<std::uint32_t> queue;
    for (std::uint32_t root = 0; root < topo.size(); ++root) {
        if (!keep[root] || labels[root] != kNoLocal) continue;
        labels[root] = root;
        queue.assign(1, root);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const std::uint32_t y : topo.row(queue[head])) {
                if (!keep[y] || labels[y] != kNoLocal) continue;
                labels[y] = root;
                queue.push_back(y);
            }
        }
    }
    return labels;
}

/// Sorted component labels local node `u` belongs to or borders.
std::vector<std::uint32_t> comps_of(const LocalTopology& topo, std::uint32_t u,
                                    const std::vector<std::uint32_t>& labels) {
    std::vector<std::uint32_t> out;
    if (labels[u] != kNoLocal) out.push_back(labels[u]);
    for (const std::uint32_t y : topo.row(u)) {
        if (labels[y] != kNoLocal) out.push_back(labels[y]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool intersects(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia == *ib) return true;
        (*ia < *ib) ? ++ia : ++ib;
    }
    return false;
}

}  // namespace

std::vector<char> reduce_cds(const Graph& g, const std::vector<char>& cds, std::size_t hops,
                             PriorityScheme priority) {
    assert(cds.size() == g.node_count());
    const PriorityKeys keys(g, priority);
    std::vector<char> reduced = cds;

    // All decisions are simultaneous against the ORIGINAL set (Theorem-2
    // style): each member evaluates under its own local view of `cds`.
    for (NodeId v = 0; v < g.node_count(); ++v) {
        if (!cds[v]) continue;
        const LocalTopology local = local_topology(g, v, hops);
        const Priority pv = keys.evaluate(v, NodeStatus::kDesignated);

        // H: visible higher-priority members (all members share the
        // committed-relay status S = 1.5, so keys decide).
        std::vector<char> in_h(local.size(), 0);
        for (std::uint32_t i = 0; i < local.size(); ++i) {
            const NodeId x = local.members[i];
            if (x == v || !cds[x]) continue;
            if (keys.evaluate(x, NodeStatus::kDesignated) > pv) in_h[i] = 1;
        }
        const auto labels = components(local, in_h);

        const auto nv = local.row(local.local_of(v));
        bool droppable = true;

        // Condition 3: v itself must keep a (higher-priority) dominator.
        bool self_dominated = false;
        for (const std::uint32_t x : nv) self_dominated = self_dominated || in_h[x];
        droppable = droppable && (self_dominated || nv.empty());

        std::vector<std::vector<std::uint32_t>> comps(nv.size());
        for (std::size_t i = 0; i < nv.size() && droppable; ++i) {
            comps[i] = comps_of(local, nv[i], labels);
            // Condition 2: every neighbor stays dominated by some
            // higher-priority member.
            if (!in_h[nv[i]] && comps[i].empty()) droppable = false;
        }
        // Condition 1: the original coverage condition over v's neighbor
        // pairs, intermediates restricted to higher-priority members.
        for (std::size_t i = 0; i < nv.size() && droppable; ++i) {
            for (std::size_t j = i + 1; j < nv.size() && droppable; ++j) {
                if (local.has_edge(nv[i], nv[j])) continue;
                if (!intersects(comps[i], comps[j])) droppable = false;
            }
        }
        if (droppable) reduced[v] = 0;
    }
    return reduced;
}

}  // namespace adhoc
