#include "graph/khop.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "graph/traversal.hpp"

namespace adhoc {

std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    const auto dist = bfs_distances(g, v);
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (dist[u] != kUnreachable && dist[u] <= k) nodes.push_back(u);
    }
    return nodes;
}

std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v) {
    const auto dist = bfs_distances(g, v);
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < g.node_count(); ++u) {
        if (u != v && dist[u] != kUnreachable && dist[u] <= 2) nodes.push_back(u);
    }
    return nodes;
}

void populate_members(LocalTopology& topo) {
    if (!topo.members.empty()) return;
    topo.members.reserve(topo.visible.size());
    for (NodeId u = 0; u < topo.visible.size(); ++u) {
        if (topo.visible[u]) topo.members.push_back(u);
    }
}

void compile_topology(LocalTopology& topo) {
    if (!topo.compact.offsets.empty()) return;
    populate_members(topo);
    const std::vector<NodeId>& mem = topo.members;
    CompactTopology& ct = topo.compact;
    ct.offsets.reserve(mem.size() + 1);
    ct.offsets.push_back(0);
    for (const NodeId v : mem) {
        for (const NodeId y : topo.graph.neighbors(v)) {
            // Members are sorted, so local ids come from a binary search;
            // edges to non-members (hand-built topologies) are dropped.
            const auto it = std::lower_bound(mem.begin(), mem.end(), y);
            if (it != mem.end() && *it == y) {
                ct.edges.push_back(static_cast<std::uint32_t>(it - mem.begin()));
            }
        }
        ct.offsets.push_back(static_cast<std::uint32_t>(ct.edges.size()));
    }
}

std::size_t BallScratch::bytes() const noexcept {
    return members.capacity() * sizeof(NodeId) + offsets.capacity() * sizeof(std::uint32_t) +
           edges.capacity() * sizeof(std::uint32_t) + bfs.capacity() * sizeof(NodeId) +
           dist.capacity() * sizeof(std::uint16_t) + stamp.capacity() * sizeof(std::uint32_t) +
           g2l.capacity() * sizeof(std::uint32_t);
}

void compile_ball(const Graph& g, NodeId v, std::size_t k, BallScratch& s) {
    assert(g.contains(v));
    if (k > kMaxBallHops) {
        throw std::invalid_argument("compile_ball: hops = " + std::to_string(k) +
                                    " exceeds the 16-bit distance limit " +
                                    std::to_string(kMaxBallHops));
    }
    const std::size_t n = g.node_count();
    if (s.stamp.size() < n) {
        s.stamp.resize(n, 0);
        s.dist.resize(n);
        s.g2l.resize(n);
    }
    if (++s.epoch == 0) {  // wrap: invalidate everything once
        std::fill(s.stamp.begin(), s.stamp.end(), 0);
        s.epoch = 1;
    }
    s.bfs.clear();
    s.bfs.push_back(v);
    s.stamp[v] = s.epoch;
    s.dist[v] = 0;
    for (std::size_t head = 0; head < s.bfs.size(); ++head) {
        const NodeId x = s.bfs[head];
        if (s.dist[x] == k) continue;
        for (NodeId y : g.neighbors(x)) {
            if (s.stamp[y] == s.epoch) continue;
            s.stamp[y] = s.epoch;
            s.dist[y] = static_cast<std::uint16_t>(s.dist[x] + 1);
            s.bfs.push_back(y);
        }
    }
    s.members.assign(s.bfs.begin(), s.bfs.end());
    std::sort(s.members.begin(), s.members.end());
    const auto m = static_cast<std::uint32_t>(s.members.size());
    for (std::uint32_t i = 0; i < m; ++i) s.g2l[s.members[i]] = i;
    s.offsets.resize(m + 1);
    s.edges.clear();
    for (std::uint32_t i = 0; i < m; ++i) {
        s.offsets[i] = static_cast<std::uint32_t>(s.edges.size());
        const NodeId a = s.members[i];
        const bool a_interior = s.dist[a] < k;
        for (NodeId b : g.neighbors(a)) {
            if (s.stamp[b] != s.epoch) continue;  // outside the ball
            // Link (a, b) is visible iff min(dist) <= k-1; both ends being
            // members bounds max(dist) at k already.
            if (!a_interior && s.dist[b] >= k) continue;
            s.edges.push_back(s.g2l[b]);
        }
    }
    s.offsets[m] = static_cast<std::uint32_t>(s.edges.size());
}

LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    LocalTopology local;
    local.center = v;
    local.hops = k;

    if (k == 0) {  // global information
        local.graph = g;
        local.visible.assign(g.node_count(), 1);
        populate_members(local);
        return local;
    }

    thread_local BallScratch ball;
    compile_ball(g, v, k, ball);
    const std::vector<NodeId>& mem = ball.members;
    local.members = mem;
    local.visible.assign(g.node_count(), 0);
    for (const NodeId x : mem) local.visible[x] = 1;
    // Rows ascend in global id and so do columns: the upper-triangle scan
    // emits canonical edges already in lexicographic order.
    std::vector<Edge> links;
    links.reserve(ball.edges.size() / 2);
    for (std::uint32_t i = 0; i + 1 < ball.offsets.size(); ++i) {
        for (std::uint32_t e = ball.offsets[i]; e < ball.offsets[i + 1]; ++e) {
            if (ball.edges[e] > i) links.push_back({mem[i], mem[ball.edges[e]]});
        }
    }
    local.graph = Graph::from_sorted_edges(g.node_count(), links);
    local.compact.offsets = ball.offsets;
    local.compact.edges = ball.edges;
    return local;
}

}  // namespace adhoc
