#include "graph/bfs_graph.hpp"

#include <algorithm>
#include <cassert>

namespace adhoc {

BfsGraph::BfsGraph(const Graph& g) : n_(g.node_count()) {
    const std::size_t n = n_;
    const std::size_t entries = 2 * g.edge_count();
    offsets_ = std::make_unique_for_overwrite<std::uint32_t[]>(n + 1);
    edges_ = std::make_unique_for_overwrite<NodeId[]>(entries);
    original_ = std::make_unique_for_overwrite<NodeId[]>(n);
    const auto label = std::make_unique_for_overwrite<NodeId[]>(n);
    std::fill_n(label.get(), n, kInvalidNode);
    // The BFS queue is the id map itself: internal id i is the i-th node
    // discovered.  Rows are written in internal order as their nodes leave
    // the queue, and every neighbour of a dequeued node has a label by the
    // time its entry is written, so one pass writes the whole CSR.
    NodeId* const queue = original_.get();
    std::uint32_t* const offsets = offsets_.get();
    NodeId* const edges = edges_.get();
    std::size_t tail = 0;
    std::uint32_t e = 0;
    NodeId seed = 0;
    constexpr std::size_t kAhead = 8;
    for (std::size_t head = 0; head < n; ++head) {
        if (head == tail) {  // the component is done: seed the next one
            while (label[seed] != kInvalidNode) ++seed;
            label[seed] = static_cast<NodeId>(tail);
            queue[tail++] = seed;
        }
        if (head + kAhead < tail) __builtin_prefetch(g.neighbors(queue[head + kAhead]).data());
        offsets[head] = e;
        for (const NodeId y : g.neighbors(queue[head])) {
            if (label[y] == kInvalidNode) {
                label[y] = static_cast<NodeId>(tail);
                queue[tail++] = y;
            }
            edges[e++] = label[y];
        }
    }
    offsets[n] = e;
    assert(e == entries);
}

NodeId BfsGraph::internal(NodeId v) const noexcept {
    assert(v < n_);
    return static_cast<NodeId>(std::find(original_.get(), original_.get() + n_, v) -
                               original_.get());
}

std::size_t BfsGraph::bytes() const noexcept {
    if (!offsets_) return 0;
    return (n_ + 1) * sizeof(std::uint32_t) + (offsets_[n_] + n_) * sizeof(NodeId);
}

}  // namespace adhoc
