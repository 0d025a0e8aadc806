#include "graph/khop.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
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

std::size_t BallScratch::bytes() const noexcept {
    return view.members.capacity() * sizeof(NodeId) +
           view.offsets.capacity() * sizeof(std::uint32_t) +
           view.edges.capacity() * sizeof(std::uint32_t) + bfs.capacity() * sizeof(NodeId) +
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
    LocalTopology& out = s.view;
    out.center = v;
    out.hops = k;
    out.stale = false;
    out.id_space = n;
    out.members.assign(s.bfs.begin(), s.bfs.end());
    std::sort(out.members.begin(), out.members.end());
    const auto m = static_cast<std::uint32_t>(out.members.size());
    for (std::uint32_t i = 0; i < m; ++i) s.g2l[out.members[i]] = i;
    out.offsets.resize(m + 1);
    out.edges.clear();
    for (std::uint32_t i = 0; i < m; ++i) {
        out.offsets[i] = static_cast<std::uint32_t>(out.edges.size());
        const NodeId a = out.members[i];
        const bool a_interior = s.dist[a] < k;
        for (NodeId b : g.neighbors(a)) {
            if (s.stamp[b] != s.epoch) continue;  // outside the ball
            // Link (a, b) is visible iff min(dist) <= k-1; both ends being
            // members bounds max(dist) at k already.
            if (!a_interior && s.dist[b] >= k) continue;
            out.edges.push_back(s.g2l[b]);
        }
    }
    out.offsets[m] = static_cast<std::uint32_t>(out.edges.size());
}

LocalTopology induced_topology(const Graph& g, NodeId center, std::size_t hops,
                               std::vector<NodeId> members) {
    assert(std::is_sorted(members.begin(), members.end()));
    LocalTopology topo;
    topo.center = center;
    topo.hops = hops;
    topo.id_space = g.node_count();
    topo.members = std::move(members);
    topo.offsets.reserve(topo.members.size() + 1);
    topo.offsets.push_back(0);
    for (const NodeId v : topo.members) {
        for (const NodeId y : g.neighbors(v)) {
            if (const std::uint32_t l = topo.local_of(y); l != kNoLocal) topo.edges.push_back(l);
        }
        topo.offsets.push_back(static_cast<std::uint32_t>(topo.edges.size()));
    }
    return topo;
}

LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k) {
    assert(g.contains(v));
    if (k == 0) {  // global information
        std::vector<NodeId> all(g.node_count());
        std::iota(all.begin(), all.end(), NodeId{0});
        return induced_topology(g, v, 0, std::move(all));
    }
    thread_local BallScratch ball;
    compile_ball(g, v, k, ball);
    return ball.view;
}

}  // namespace adhoc
