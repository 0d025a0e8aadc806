#include "graph/khop.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace adhoc {

std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k) {
    // A BFS that stops at depth k.  Visited marks are per-thread epoch
    // stamps, so a call touches only the ball.
    assert(g.contains(v));
    thread_local std::vector<std::uint32_t> stamp;
    thread_local std::uint32_t epoch = 0;
    if (stamp.size() < g.node_count()) stamp.resize(g.node_count(), 0);
    if (++epoch == 0) {  // wrap: invalidate everything once
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
    }
    std::vector<NodeId> nodes{v};
    stamp[v] = epoch;
    for (std::size_t depth = 0, begin = 0; depth < k && begin < nodes.size(); ++depth) {
        const std::size_t end = nodes.size();
        for (std::size_t i = begin; i < end; ++i) {
            for (const NodeId y : g.neighbors(nodes[i])) {
                if (stamp[y] == epoch) continue;
                stamp[y] = epoch;
                nodes.push_back(y);
            }
        }
        begin = end;
    }
    std::sort(nodes.begin(), nodes.end());
    return nodes;
}

std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v) {
    std::vector<NodeId> nodes = k_hop_nodes(g, v, 2);
    nodes.erase(std::lower_bound(nodes.begin(), nodes.end(), v));
    return nodes;
}

void BallScratch::fit(std::size_t n) {
    if (stamp.size() < n) {
        stamp.resize(n, 0);
        dist.resize(n);
        g2l.resize(n);
    }
}

std::size_t ball_bfs(const Graph& g, NodeId v, std::size_t k, BallScratch& s) {
    // A BFS that expands nodes closer than `k` hops, recording each
    // member's hop distance, epoch stamp and discovery index.
    assert(g.contains(v));
    if (k > kMaxBallHops) {
        throw std::invalid_argument("compile_ball: hops = " + std::to_string(k) +
                                    " exceeds the 16-bit distance limit " +
                                    std::to_string(kMaxBallHops));
    }
    s.fit(g.node_count());
    if (++s.epoch == 0) {  // wrap: invalidate everything once
        std::fill(s.stamp.begin(), s.stamp.end(), 0);
        s.epoch = 1;
    }
    const std::uint32_t epoch = s.epoch;
    // Branch-free per adjacency entry: the entry is written to the next
    // free queue slot unconditionally and kept by advancing the tail by a
    // 0/1 predicate.  The stamp, dist and g2l words of a non-member hold
    // stale but initialised values, so reading them is harmless.
    if (s.bfs.empty()) s.bfs.resize(1);
    s.bfs[0] = v;
    s.stamp[v] = epoch;
    s.dist[v] = 0;
    s.g2l[v] = 0;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
        const NodeId x = s.bfs[head];
        if (s.dist[x] == k) continue;
        const auto row = g.neighbors(x);
        const std::size_t need = tail + row.size();
        if (s.bfs.size() < need) s.bfs.resize(2 * need);
        s.queue_need = std::max(s.queue_need, need);
        const auto next = static_cast<std::uint16_t>(s.dist[x] + 1);
        NodeId* const queue = s.bfs.data();
        for (const NodeId y : row) {
            const bool fresh = s.stamp[y] != epoch;
            s.stamp[y] = epoch;
            s.dist[y] = fresh ? next : s.dist[y];
            s.g2l[y] = fresh ? static_cast<std::uint32_t>(tail) : s.g2l[y];
            queue[tail] = y;
            tail += fresh;
        }
    }
    return tail;
}

template <std::size_t kWords>
void compile_ball_masks(const Graph& g, std::size_t k, const BallScratch& s, std::size_t m,
                        std::uint64_t* rows) {
    constexpr std::uint64_t kOne = 1;
    const std::size_t words = kWords != 0 ? kWords : mask_words(m);
    // Interior members (closer than k hops) were all expanded, so every
    // neighbour of one is a member and every link at one is visible: its
    // row is its adjacency row.  BFS order puts them first.
    std::size_t interior = 0;
    for (; interior < m && s.dist[s.bfs[interior]] < k; ++interior) {
        std::uint64_t* const row = rows + interior * words;
        std::fill_n(row, words, 0);
        for (const NodeId y : g.neighbors(s.bfs[interior])) {
            const std::uint32_t j = s.g2l[y];
            row[mask_word<kWords>(j)] |= kOne << (j % 64);
        }
    }
    // A boundary member (exactly k hops) sees only its links to the
    // interior: its row is its column of the interior rows.
    std::fill(rows + interior * words, rows + m * words, 0);
    for (std::size_t i = 0; i < interior; ++i) {
        const std::uint64_t* const row = rows + i * words;
        for (std::size_t w = interior / 64; w < words; ++w) {
            std::uint64_t b = row[w];
            if (w == interior / 64) b &= ~std::uint64_t{0} << (interior % 64);
            for (; b != 0; b &= b - 1) {
                const std::size_t j = w * 64 + static_cast<std::size_t>(std::countr_zero(b));
                rows[j * words + mask_word<kWords>(i)] |= kOne << (i % 64);
            }
        }
    }
}

template void compile_ball_masks<1>(const Graph&, std::size_t, const BallScratch&, std::size_t,
                                    std::uint64_t*);
template void compile_ball_masks<0>(const Graph&, std::size_t, const BallScratch&, std::size_t,
                                    std::uint64_t*);

void compile_ball(const Graph& g, NodeId v, std::size_t k, BallScratch& s) {
    const std::size_t tail = ball_bfs(g, v, k, s);
    const std::uint32_t epoch = s.epoch;
    LocalTopology& out = s.view;
    out.center = v;
    out.hops = k;
    out.stale = false;
    out.id_space = g.node_count();
    out.members.assign(s.bfs.begin(), s.bfs.begin() + static_cast<std::ptrdiff_t>(tail));
    std::sort(out.members.begin(), out.members.end());
    const auto m = static_cast<std::uint32_t>(out.members.size());
    for (std::uint32_t i = 0; i < m; ++i) s.g2l[out.members[i]] = i;
    out.offsets.resize(m + 1);
    std::size_t e = 0;
    for (std::uint32_t i = 0; i < m; ++i) {
        out.offsets[i] = static_cast<std::uint32_t>(e);
        const NodeId a = out.members[i];
        const bool a_interior = s.dist[a] < k;
        const auto row = g.neighbors(a);
        if (s.cols.size() < e + row.size()) s.cols.resize(2 * (e + row.size()));
        std::uint32_t* const cols = s.cols.data();
        for (const NodeId b : row) {
            // Link (a, b) is visible iff b is a member and min(dist) <= k-1;
            // both ends being members bounds max(dist) at k already.
            const bool visible = (s.stamp[b] == epoch) & (a_interior | (s.dist[b] < k));
            cols[e] = s.g2l[b];
            e += visible;
        }
    }
    out.offsets[m] = static_cast<std::uint32_t>(e);
    out.edges.assign(s.cols.begin(), s.cols.begin() + static_cast<std::ptrdiff_t>(e));
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
