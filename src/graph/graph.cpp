#include "graph/graph.hpp"
#include "graph/geometry.hpp"

#include <algorithm>
#include <cassert>

namespace adhoc {

BoundingBox bounding_box(const std::vector<Point2D>& points) noexcept {
    if (points.empty()) return {};
    BoundingBox box{points.front(), points.front()};
    for (const Point2D& p : points) {
        box.min.x = std::min(box.min.x, p.x);
        box.min.y = std::min(box.min.y, p.y);
        box.max.x = std::max(box.max.x, p.x);
        box.max.y = std::max(box.max.y, p.y);
    }
    return box;
}

Graph::Graph(std::size_t n, const std::vector<Edge>& edges) : adjacency_(n) {
    for (const Edge& e : edges) {
        assert(contains(e.a) && contains(e.b));
        add_edge(e.a, e.b);
    }
}

Graph Graph::from_sorted_edges(std::size_t n, const std::vector<Edge>& edges) {
    Graph g(n);
    std::vector<std::uint32_t> deg(n, 0);
    for (const Edge& e : edges) {
        assert(e.a < e.b && g.contains(e.b));
        ++deg[e.a];
        ++deg[e.b];
    }
    for (NodeId v = 0; v < n; ++v) g.adjacency_[v].reserve(deg[v]);
    // Scanning the sorted list appends each row's smaller partners (from
    // edges where the row node is `b`, ordered by ascending `a`) before its
    // larger partners (ordered by ascending `b`) — rows come out sorted.
    for (const Edge& e : edges) {
        assert(g.adjacency_[e.a].empty() || g.adjacency_[e.a].back() < e.b);
        g.adjacency_[e.a].push_back(e.b);
        g.adjacency_[e.b].push_back(e.a);
    }
    g.edge_count_ = edges.size();
    return g;
}

bool Graph::add_edge(NodeId u, NodeId v) {
    assert(contains(u) && contains(v));
    if (u == v) return false;
    auto& nu = adjacency_[u];
    const auto it = std::lower_bound(nu.begin(), nu.end(), v);
    if (it != nu.end() && *it == v) return false;
    nu.insert(it, v);
    auto& nv = adjacency_[v];
    nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
    ++edge_count_;
    return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
    assert(contains(u) && contains(v));
    auto& nu = adjacency_[u];
    const auto it = std::lower_bound(nu.begin(), nu.end(), v);
    if (it == nu.end() || *it != v) return false;
    nu.erase(it);
    auto& nv = adjacency_[v];
    nv.erase(std::lower_bound(nv.begin(), nv.end(), u));
    --edge_count_;
    return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
    if (!contains(u) || !contains(v)) return false;
    const auto& nu = adjacency_[u];
    // Search the shorter list: keeps dense-graph queries cheap.
    const auto& nv = adjacency_[v];
    const auto& shorter = (nu.size() <= nv.size()) ? nu : nv;
    const NodeId target = (nu.size() <= nv.size()) ? v : u;
    return std::binary_search(shorter.begin(), shorter.end(), target);
}

std::vector<Edge> Graph::edges() const {
    std::vector<Edge> result;
    result.reserve(edge_count_);
    for (NodeId u = 0; u < adjacency_.size(); ++u) {
        for (NodeId v : adjacency_[u]) {
            if (u < v) result.push_back(Edge{u, v});
        }
    }
    return result;
}

bool Graph::neighbors_pairwise_connected(NodeId v) const noexcept {
    assert(contains(v));
    const auto& nv = adjacency_[v];
    for (std::size_t i = 0; i < nv.size(); ++i) {
        for (std::size_t j = i + 1; j < nv.size(); ++j) {
            if (!has_edge(nv[i], nv[j])) return false;
        }
    }
    return true;
}

Graph complete_graph(std::size_t n) {
    Graph g(n);
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
    }
    return g;
}

Graph path_graph(std::size_t n) {
    Graph g(n);
    for (NodeId u = 0; u + 1 < n; ++u) g.add_edge(u, u + 1);
    return g;
}

Graph cycle_graph(std::size_t n) {
    Graph g = path_graph(n);
    if (n >= 3) g.add_edge(0, static_cast<NodeId>(n - 1));
    return g;
}

Graph star_graph(std::size_t n) {
    Graph g(n);
    for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
    return g;
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
    Graph g(rows * cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const NodeId id = static_cast<NodeId>(i * cols + j);
            if (j + 1 < cols) g.add_edge(id, id + 1);
            if (i + 1 < rows) g.add_edge(id, static_cast<NodeId>(id + cols));
        }
    }
    return g;
}

}  // namespace adhoc
