#include "core/maxmin.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/compact_view.hpp"

namespace adhoc {

namespace {

/// Sorts into `s.order` every local node with priority above `threshold`,
/// highest priority first.  Computed once per top-level call and threaded
/// through the whole MAX_MIN recursion: sub-calls share the same threshold,
/// so re-deriving and re-sorting the candidates at every level (as the
/// reference implementation does) repeats identical work.  Priorities form
/// a total order (id tiebreak), so the sorted sequence is unique and
/// level-local skipping of the current endpoints reproduces the reference
/// candidate sequence exactly.
void build_candidate_order(LocalViewScratch& s, const Priority& threshold) {
    const CompactLocalView& c = s.compact;
    s.order.clear();
    for (std::uint32_t x = 0; x < c.size; ++x) {
        if (c.priority[x] > threshold) s.order.push_back(x);
    }
    std::sort(s.order.begin(), s.order.end(), [&c](std::uint32_t a, std::uint32_t b) {
        return c.priority[a] > c.priority[b];
    });
}

std::uint32_t uf_find(LocalViewScratch& s, std::uint32_t x) {
    while (s.parent[x] != x) {
        s.parent[x] = s.parent[s.parent[x]];
        x = s.parent[x];
    }
    return x;
}

/// Max-min node over the compiled view; `s.order` must be built for the
/// call's threshold.  Activates candidates in descending priority order
/// (skipping the two endpoints); the node whose activation first connects
/// u and w is the bottleneck of the widest replacement path.
std::uint32_t max_min_node_local(LocalViewScratch& s, std::uint32_t u, std::uint32_t w) {
    const CompactLocalView& c = s.compact;
    if (c.has_edge(u, w)) return kNoLocal;  // no intermediate needed

    s.parent.resize(c.size);
    std::iota(s.parent.begin(), s.parent.end(), std::uint32_t{0});
    s.active.assign(c.size, 0);
    s.active[u] = s.active[w] = 1;
    for (std::uint32_t x : s.order) {
        if (x == u || x == w) continue;
        s.active[x] = 1;
        for (std::uint32_t y : c.row(x)) {
            if (s.active[y]) s.parent[uf_find(s, x)] = uf_find(s, y);
        }
        if (uf_find(s, u) == uf_find(s, w)) return x;
    }
    return kNoLocal;
}

std::optional<std::vector<NodeId>> max_min_path_local(LocalViewScratch& s, std::uint32_t u,
                                                      std::uint32_t w) {
    if (s.compact.has_edge(u, w)) return std::vector<NodeId>{};  // step 1: return empty
    const std::uint32_t x = max_min_node_local(s, u, w);
    if (x == kNoLocal) return std::nullopt;  // no replacement path exists
    auto left = max_min_path_local(s, u, x);
    auto right = max_min_path_local(s, x, w);
    // Lemma 1: both sub-calls succeed whenever the top-level max-min node
    // exists; the recursion always selects distinct nodes and terminates.
    assert(left.has_value() && right.has_value());
    if (!left || !right) return std::nullopt;
    std::vector<NodeId> path = std::move(*left);
    path.push_back(s.compact.members[x]);
    path.insert(path.end(), right->begin(), right->end());
    return path;
}

}  // namespace

NodeId max_min_node(const View& view, NodeId u, NodeId w, const Priority& self_priority) {
    assert(view.visible(u) && view.visible(w));
    LocalViewScratch& s = LocalViewScratch::tls();
    s.compile(view);
    build_candidate_order(s, self_priority);
    const LocalTopology& t = view.local();
    const std::uint32_t r = max_min_node_local(s, t.local_of(u), t.local_of(w));
    return r == kNoLocal ? kInvalidNode : s.compact.members[r];
}

std::optional<std::vector<NodeId>> max_min_path(const View& view, NodeId u, NodeId w,
                                                const Priority& self_priority) {
    if (view.has_edge(u, w)) return std::vector<NodeId>{};
    assert(view.visible(u) && view.visible(w));
    LocalViewScratch& s = LocalViewScratch::tls();
    s.compile(view);
    build_candidate_order(s, self_priority);
    const LocalTopology& t = view.local();
    return max_min_path_local(s, t.local_of(u), t.local_of(w));
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
