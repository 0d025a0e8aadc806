// Property test: the production decision kernels are bit-for-bit
// equivalent to the retained naive `reference::` implementations.
//
// The production kernels (coverage.cpp) decide on node masks written from
// a View's local ids, or from the graph's BFS-ordered copy, with
// per-thread scratch; the reference family scans global ids with per-call
// allocations.  The contract is that the two families agree on
// *everything observable* — verdicts, witness pairs and reachability
// masks — for every graph shape and every CoverageOptions combination.
// MAX_MIN, which has one implementation, is held to Lemma 1 instead.
// These tests sweep random unit-disk placements (the simulation
// workload), adversarial structured graphs, G(n,p) noise, and both owning
// and KnowledgeBase-cached borrowing views.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "core/coverage.hpp"
#include "core/maxmin.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
#include "graph/bfs_graph.hpp"
#include "graph/khop.hpp"
#include "graph/traversal.hpp"
#include "graph/unit_disk.hpp"
#include "sim/node_agent.hpp"
#include "stats/rng.hpp"

namespace adhoc {
namespace {

std::vector<CoverageOptions> all_option_combos() {
    std::vector<CoverageOptions> combos;
    for (const bool strong : {false, true}) {
        for (const std::size_t hops : {std::size_t{0}, std::size_t{3}}) {
            for (const std::size_t radius : {std::size_t{0}, std::size_t{2}}) {
                for (const bool merge : {false, true}) {
                    combos.push_back(CoverageOptions{.strong = strong,
                                                    .max_path_hops = hops,
                                                    .merge_visited = merge,
                                                    .coverage_radius = radius});
                }
            }
        }
    }
    return combos;
}

/// Random statuses: ~25% visited, ~15% designated, rest unvisited.
std::vector<NodeStatus> random_statuses(std::size_t n, Rng& rng) {
    std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
    for (std::size_t v = 0; v < n; ++v) {
        if (rng.chance(0.25)) {
            status[v] = NodeStatus::kVisited;
        } else if (rng.chance(0.15)) {
            status[v] = NodeStatus::kDesignated;
        }
    }
    return status;
}

/// Asserts every kernel agrees between the optimized and reference
/// implementations on `view`, for every node and option combination.
void expect_kernels_agree(const View& view, const std::string& label) {
    const std::size_t n = view.node_count();
    static const std::vector<CoverageOptions> combos = all_option_combos();

    for (NodeId v = 0; v < n; ++v) {
        if (!view.visible(v)) continue;
        for (const CoverageOptions& opts : combos) {
            const CoverageOutcome got = evaluate_coverage(view, v, opts);
            const CoverageOutcome want = reference::evaluate_coverage(view, v, opts);
            ASSERT_EQ(got.covered, want.covered)
                << label << " node " << v << " strong=" << opts.strong
                << " hops=" << opts.max_path_hops << " radius=" << opts.coverage_radius
                << " merge=" << opts.merge_visited;
            ASSERT_EQ(got.uncovered_u, want.uncovered_u) << label << " node " << v;
            ASSERT_EQ(got.uncovered_w, want.uncovered_w) << label << " node " << v;

            // The relaxed designated-node rule exercises the self_status
            // parameter path.
            ASSERT_EQ(
                coverage_condition_holds(view, v, opts, NodeStatus::kDesignated),
                reference::coverage_condition_holds(view, v, opts, NodeStatus::kDesignated))
                << label << " node " << v << " (designated self)";
        }

        const Priority pv = view.priority(v);
        ASSERT_EQ(connected_via_higher_priority(view, v, pv),
                  reference::connected_via_higher_priority(view, v, pv))
            << label << " node " << v;
    }
}

/// Lemma 1 on every neighbour pair (u, w) of every visible v: MAX_MIN's
/// path is empty iff u and w are adjacent, it exists iff w is in the set C
/// that `reference::connected_via_higher_priority` grows from u through
/// nodes above Pr(v) (no visited merge), and every path it returns is a
/// replacement path with distinct intermediates.
void expect_maxmin_lemma1(const View& view, const std::string& label) {
    for (NodeId v = 0; v < view.node_count(); ++v) {
        if (!view.visible(v)) continue;
        const Priority pv = view.priority(v);
        const auto nv = view.neighbors(v);
        for (std::size_t i = 0; i < nv.size(); ++i) {
            const NodeId u = nv[i];
            const auto reach = reference::connected_via_higher_priority(view, u, pv, false);
            for (std::size_t j = i + 1; j < nv.size(); ++j) {
                const NodeId w = nv[j];
                const auto path = max_min_path(view, u, w, pv);
                const auto tag = ::testing::Message()
                                 << label << " v=" << v << " u=" << u << " w=" << w;
                ASSERT_EQ(path.has_value() && path->empty(), view.has_edge(u, w)) << tag;
                ASSERT_EQ(path.has_value(), reach[w] != 0) << tag;
                if (!path) continue;
                ASSERT_TRUE(is_replacement_path(view, u, w, *path, pv)) << tag;
                ASSERT_EQ(std::set<NodeId>(path->begin(), path->end()).size(), path->size())
                    << tag;
            }
        }
    }
}

View owning_view(const Graph& g, const std::vector<NodeStatus>& status,
                 const PriorityKeys& keys) {
    return View(local_topology(g, 0, 0), std::vector<NodeStatus>(status), &keys);
}

TEST(CoverageEquivalence, RandomUnitDiskGraphs) {
    Rng rng(20260805);
    int cases = 0;
    for (int iter = 0; iter < 140; ++iter) {
        const std::size_t n = 8 + rng.index(21);  // 8..28
        const double degree = std::vector<double>{3.0, 4.0, 6.0, 8.0}[rng.index(4)];
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        const double range =
            std::sqrt(degree * 100.0 / (3.14159265358979323846 * static_cast<double>(n)));
        const Graph g = unit_disk_graph(pts, range);
        for (const PriorityScheme scheme : {PriorityScheme::kId, PriorityScheme::kDegree,
                                            PriorityScheme::kNcr}) {
            const PriorityKeys keys(g, scheme);
            const View view = owning_view(g, random_statuses(n, rng), keys);
            expect_kernels_agree(view, "udg#" + std::to_string(iter));
            ++cases;
        }
    }
    EXPECT_GE(cases, 200);  // the ISSUE floor: >= 200 random graphs/views
}

TEST(CoverageEquivalence, AdversarialStructuredGraphs) {
    Rng rng(77);
    std::vector<std::pair<std::string, Graph>> graphs;
    graphs.emplace_back("path", path_graph(17));
    graphs.emplace_back("cycle", cycle_graph(16));
    graphs.emplace_back("star", star_graph(15));
    graphs.emplace_back("complete", complete_graph(12));
    graphs.emplace_back("grid", grid_graph(4, 5));
    // Barbell: two K6 cliques joined by a 4-node path.
    {
        Graph barbell(16);
        for (NodeId u = 0; u < 6; ++u) {
            for (NodeId v = u + 1; v < 6; ++v) barbell.add_edge(u, v);
        }
        for (NodeId u = 10; u < 16; ++u) {
            for (NodeId v = u + 1; v < 16; ++v) barbell.add_edge(u, v);
        }
        for (NodeId v = 5; v < 11; ++v) barbell.add_edge(v, v + 1);
        graphs.emplace_back("barbell", std::move(barbell));
    }
    // Sparse and dense G(n,p) noise.
    for (const double p : {0.1, 0.35}) {
        Graph gnp(14);
        for (NodeId u = 0; u < 14; ++u) {
            for (NodeId v = u + 1; v < 14; ++v) {
                if (rng.chance(p)) gnp.add_edge(u, v);
            }
        }
        graphs.emplace_back("gnp" + std::to_string(p), std::move(gnp));
    }
    // Edgeless and single-edge degenerate cases.
    graphs.emplace_back("edgeless", Graph(6));
    {
        Graph pair(5);
        pair.add_edge(1, 3);
        graphs.emplace_back("one_edge", std::move(pair));
    }

    for (const auto& [name, g] : graphs) {
        const PriorityKeys keys(g, PriorityScheme::kNcr);
        for (int rep = 0; rep < 4; ++rep) {
            const View view = owning_view(g, random_statuses(g.node_count(), rng), keys);
            expect_kernels_agree(view, name);
            expect_maxmin_lemma1(view, name);
        }
    }
}

/// The shape of H(v), the nodes that outrank an unvisited `v`: its
/// component count and how many of its components hold a visited node
/// (>= 2: merge_visited joins several components into the first one the
/// kernel grows; exactly 1: the merge changes nothing).
struct HShape {
    std::size_t labels = 0;
    std::size_t visited_components = 0;
};

HShape h_shape(const View& view, NodeId v) {
    const Priority pv = view.keys().evaluate(v, NodeStatus::kUnvisited);
    const std::vector<std::size_t> label =
        reference::higher_priority_components(view, pv, false);
    std::set<std::size_t> all;
    std::set<std::size_t> visited;
    for (NodeId x = 0; x < label.size(); ++x) {
        if (x == v || label[x] == kUnreachable) continue;
        all.insert(label[x]);
        if (view.status(x) == NodeStatus::kVisited) visited.insert(label[x]);
    }
    return {all.size(), visited.size()};
}

/// A comb around a low-priority center (id priority): leaves 0..m-1 rank
/// below the center m, which is adjacent to all of them; pendant m+1+i
/// hangs off leaf i; a hub 2m+1 touches every leaf (but the last when
/// `cut_last`).  H(center) is the m pendants plus the hub, m + 1
/// components, so with m > 64 the view's masks span three words and the
/// hub's component is the last one grown.
Graph comb_graph(NodeId m, bool cut_last) {
    Graph g(2 * m + 2);
    const NodeId hub = 2 * m + 1;
    for (NodeId i = 0; i < m; ++i) {
        g.add_edge(i, m);
        g.add_edge(i, m + 1 + i);
        if (!cut_last || i + 1 < m) g.add_edge(i, hub);
    }
    return g;
}

TEST(CoverageEquivalence, MultiWordLabelSetsAndVisitedComponentPaths) {
    constexpr NodeId kM = 70;
    const NodeId hub = 2 * kM + 1;
    const NodeId last_pendant = 2 * kM;
    const std::vector<std::pair<std::string, std::vector<NodeId>>> visited_sets = {
        {"none", {}},
        {"one pendant", {kM + 1}},
        {"hub", {hub}},
        {"first+last pendants", {kM + 1, last_pendant}},
        {"pendant+hub", {kM + 4, hub}},
    };
    for (const bool cut_last : {false, true}) {
        const Graph g = comb_graph(kM, cut_last);
        const PriorityKeys keys(g, PriorityScheme::kId);
        for (const auto& [name, visited] : visited_sets) {
            std::vector<NodeStatus> status(g.node_count(), NodeStatus::kUnvisited);
            for (const NodeId x : visited) status[x] = NodeStatus::kVisited;
            const View view = owning_view(g, status, keys);
            const std::string label = name + (cut_last ? " cut" : "");
            ASSERT_GT(view.local().size(), 64u) << label;
            const HShape shape = h_shape(view, kM);
            ASSERT_EQ(shape.labels, kM + 1u) << label;
            ASSERT_EQ(shape.visited_components, visited.size()) << label;
            expect_kernels_agree(view, label);

            // The verdicts the paths must produce at the center: the hub's
            // component (third word) connects every leaf pair unless the last
            // leaf is cut off.  Then the first uncovered pair is (leaf 0,
            // leaf m-1) — except when merge_visited joins the first and last
            // pendants, which covers that pair and moves the witness on.
            const bool moved = name == "first+last pendants";
            for (const bool merge : {false, true}) {
                const CoverageOutcome got =
                    evaluate_coverage(view, kM, CoverageOptions{.merge_visited = merge});
                EXPECT_EQ(got.covered, !cut_last) << label << " merge=" << merge;
                if (!cut_last) continue;
                EXPECT_EQ(got.uncovered_u, merge && moved ? 1u : 0u) << label;
                EXPECT_EQ(got.uncovered_w, kM - 1) << label;
            }
        }
    }
}

TEST(CoverageEquivalence, VisitedComponentCountsOnRandomGraphs) {
    // Sparse placements with few or many visited nodes: every kernel path
    // keyed on the visited-component count must be taken many times.
    Rng rng(0x5eed);
    std::size_t remap = 0;
    std::size_t skip = 0;
    for (int iter = 0; iter < 24; ++iter) {
        const std::size_t n = 30 + rng.index(31);  // 30..60
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        const Graph g = unit_disk_graph(
            pts, std::sqrt(4.0 * 100.0 / (3.14159265358979323846 * static_cast<double>(n))));
        const PriorityKeys keys(g, PriorityScheme::kNcr);
        std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
        const double p_visited = iter % 2 == 0 ? 0.04 : 0.3;
        for (NodeStatus& st : status) {
            if (rng.chance(p_visited)) st = NodeStatus::kVisited;
        }
        const View view = owning_view(g, status, keys);
        for (NodeId v = 0; v < n; ++v) {
            const HShape shape = h_shape(view, v);
            remap += shape.visited_components >= 2;
            skip += shape.visited_components == 1;
        }
        expect_kernels_agree(view, "visited#" + std::to_string(iter));
    }
    EXPECT_GE(remap, 100u);
    EXPECT_GE(skip, 100u);

    // The word boundaries: global views of 63..65 and 127..129 members
    // (one, two and three mask words), with node 63 — the first word's top
    // bit — placed at the centre so it has many neighbours.  Every option
    // combination runs, so merge_visited is both on and off.
    std::size_t top_bit_views = 0;
    for (const std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{65},
                                std::size_t{127}, std::size_t{128}, std::size_t{129}}) {
        for (int trial = 0; trial < (n > 65 ? 2 : 4); ++trial) {
            std::vector<Point2D> pts(n);
            for (Point2D& p : pts) {
                p.x = rng.uniform(0.0, 10.0);
                p.y = rng.uniform(0.0, 10.0);
            }
            const NodeId top = static_cast<NodeId>(std::min<std::size_t>(63, n - 1));
            pts[top] = {5.0, 5.0};
            const Graph g = unit_disk_graph(pts, n > 65 ? 1.3 : 1.8);
            const PriorityKeys keys(g, PriorityScheme::kNcr);
            std::vector<NodeStatus> status(n, NodeStatus::kUnvisited);
            for (NodeStatus& st : status) {
                if (rng.chance(0.3)) st = NodeStatus::kVisited;
            }
            status[top] = NodeStatus::kUnvisited;
            const View view = owning_view(g, status, keys);
            ASSERT_EQ(view.local().size(), n);
            ASSERT_GE(g.degree(top), 2u) << "n=" << n << " trial " << trial;
            top_bit_views += n > 63 && h_shape(view, top).visited_components >= 2;
            expect_kernels_agree(view, "boundary n=" + std::to_string(n) + " trial " +
                                           std::to_string(trial));
        }
    }
    EXPECT_GE(top_bit_views, 8u);
}

// The KnowledgeBase path hands kernels a *borrowing* view whose CSR comes
// from the precompiled LocalTopology cache and whose statuses live in the
// KnowledgeBase's shared buffer — a different path than owning views
// take.  Both must agree with the reference on identical state.
TEST(CoverageEquivalence, KnowledgeBaseCachedViews) {
    Rng rng(4242);
    for (int iter = 0; iter < 12; ++iter) {
        const std::size_t n = 12 + rng.index(14);  // 12..25
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        const Graph g = unit_disk_graph(
            pts, std::sqrt(6.0 * 100.0 / (3.14159265358979323846 * static_cast<double>(n))));
        const PriorityKeys keys(g, PriorityScheme::kNcr);

        KnowledgeBase kb(g, 2);
        std::vector<char> visited(n, 0);
        std::vector<char> designated(n, 0);
        for (NodeId v = 0; v < n; ++v) {
            if (rng.chance(0.3)) {
                visited[v] = 1;
            } else if (rng.chance(0.2)) {
                designated[v] = 1;
            }
        }
        for (NodeId v = 0; v < n; ++v) {
            kb.load_visited(v, visited);
            kb.load_designated(v, designated);
        }

        for (NodeId v = 0; v < n; ++v) {
            const View cached = kb.view_of(v, keys);
            expect_kernels_agree(cached, "kb#" + std::to_string(iter));

            // Owning replica of the same local view must see the same
            // world: same verdicts from both families.
            const std::size_t nn = g.node_count();
            const LocalTopology& topo = kb.at(v).topology();
            std::vector<NodeStatus> status(nn, NodeStatus::kInvisible);
            for (NodeId x : topo.members) {
                status[x] = visited[x]      ? NodeStatus::kVisited
                            : designated[x] ? NodeStatus::kDesignated
                                            : NodeStatus::kUnvisited;
            }
            const View owning = View(LocalTopology(topo), std::move(status), &keys);
            for (const CoverageOptions& opts : all_option_combos()) {
                ASSERT_EQ(evaluate_coverage(cached, v, opts).covered,
                          evaluate_coverage(owning, v, opts).covered)
                    << "cached vs owning, iter " << iter << " node " << v;
            }
        }
    }
}

TEST(CoverageEquivalence, MaxMinOnRandomGraphs) {
    Rng rng(90125);
    for (int iter = 0; iter < 20; ++iter) {
        const std::size_t n = 8 + rng.index(11);  // 8..18
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        const Graph g = unit_disk_graph(
            pts, std::sqrt(7.0 * 100.0 / (3.14159265358979323846 * static_cast<double>(n))));
        const PriorityKeys keys(g, iter % 2 == 0 ? PriorityScheme::kDegree
                                                 : PriorityScheme::kNcr);
        const View view = owning_view(g, random_statuses(n, rng), keys);
        expect_maxmin_lemma1(view, "maxmin#" + std::to_string(iter));
    }
}

// ---- One-word decisions straight from the graph --------------------------

/// A graph whose node 0 has exactly `layers[d]` nodes at d hops: every node
/// of layer d > 0 links to one random node of layer d - 1, and more links
/// join random pairs within a layer (the links between two nodes at the
/// view's k-hop boundary) and between adjacent layers.  Ids are shuffled so
/// that neither id order nor layer order is BFS order; the returned graph's
/// node `center` is the old node 0.
Graph layered_graph(const std::vector<std::size_t>& layers, double p_link, Rng& rng,
                    NodeId* center) {
    std::vector<std::size_t> layer_of;
    for (std::size_t d = 0; d < layers.size(); ++d) {
        layer_of.insert(layer_of.end(), layers[d], d);
    }
    const std::size_t n = layer_of.size();
    std::vector<NodeId> id(n);
    for (NodeId x = 0; x < n; ++x) id[x] = x;
    for (std::size_t i = n; i > 1; --i) std::swap(id[i - 1], id[rng.index(i)]);
    std::vector<std::size_t> start{0};  // first node of each layer
    for (const std::size_t l : layers) start.push_back(start.back() + l);
    std::vector<Edge> edges;
    for (std::size_t x = layers[0]; x < n; ++x) {
        const std::size_t d = layer_of[x];
        const std::size_t parent = start[d - 1] + rng.index(layers[d - 1]);
        edges.push_back(canonical(Edge{id[x], id[parent]}));
    }
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            if (layer_of[b] - layer_of[a] <= 1 && rng.chance(p_link)) {
                edges.push_back(canonical(Edge{id[a], id[b]}));
            }
        }
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
        return x.a != y.a ? x.a < y.a : x.b < y.b;
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    *center = id[0];
    return Graph(n, edges);
}

/// The option combinations a ball decision runs under: the default full
/// condition first, then strong, Span's bounded paths, the restricted
/// radii and strong within radius 1 — each with merge_visited on and off.
std::vector<CoverageOptions> ball_option_combos() {
    std::vector<CoverageOptions> combos{{.merge_visited = true}, {.merge_visited = false}};
    for (const bool merge : {true, false}) {
        combos.push_back({.strong = true, .merge_visited = merge});
        combos.push_back({.max_path_hops = 3, .merge_visited = merge});
        combos.push_back({.merge_visited = merge, .coverage_radius = 1});
        combos.push_back({.merge_visited = merge, .coverage_radius = 2});
        combos.push_back({.strong = true, .merge_visited = merge, .coverage_radius = 1});
    }
    return combos;
}

/// The ball-mask decision on the graph's BFS-ordered copy (`BfsGraph`,
/// `BfsPriorityKeys`) against `reference::evaluate_coverage` on the
/// `local_topology` view of `g`, for every node, k in {1, 2, 3}, all three
/// priority schemes, an empty visited set (static) and random history
/// chains of 1-4 nodes ending at a neighbour (first receipt), under the
/// default condition with merge_visited on and off; the nodes for which
/// `all_options` holds also run every other `ball_option_combos` entry.
/// Every ball's one-pass compile must count the members of `compile_ball`
/// on `g`, also when it outgrows one word; its rows, at one word and at
/// any width, must equal the links `compile_ball` keeps, read through
/// `original()`, and its H mask the members whose static key is above v's.
/// `decided` counts the decisions and `multi_word` those on balls of more
/// than 64 members.
template <class AllOptions>
void expect_ball_words_agree(const Graph& g, AllOptions all_options, Rng& rng,
                             const std::string& label, std::size_t& decided,
                             std::size_t& multi_word) {
    static const std::vector<CoverageOptions> combos = ball_option_combos();
    const BfsGraph ordered(g);
    std::vector<NodeId> internal(g.node_count());
    for (NodeId x = 0; x < g.node_count(); ++x) internal[ordered.original(x)] = x;
    BallMaskScratch words;
    BallScratch compiled;
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> above;
    std::vector<std::uint64_t> any_width;
    std::vector<std::uint64_t> any_above;
    std::vector<std::uint64_t> links;
    std::vector<std::uint64_t> higher;
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        for (const PriorityScheme scheme : {PriorityScheme::kId, PriorityScheme::kDegree,
                                            PriorityScheme::kNcr}) {
            const PriorityKeys keys(g, scheme);
            const BfsPriorityKeys ordered_keys(ordered, scheme);
            for (NodeId v = 0; v < g.node_count(); ++v) {
                const auto tag = [&] {
                    return label + " v=" + std::to_string(v) + " k=" + std::to_string(k) +
                           " scheme " + to_string(scheme);
                };
                // Every mask word starts dirty: the pass must write each one.
                rows.assign(64, ~std::uint64_t{0});
                above.assign(1, ~std::uint64_t{0});
                const std::size_t m = compile_ball_masks<1>(ordered, internal[v], k, ordered_keys,
                                                            words, 64, rows.data(), above.data());
                const std::size_t nw = mask_words(m);
                any_width.assign(m * nw, ~std::uint64_t{0});
                any_above.assign(nw, ~std::uint64_t{0});
                ASSERT_EQ(compile_ball_masks<0>(ordered, internal[v], k, ordered_keys, words, m,
                                                any_width.data(), any_above.data()),
                          m)
                    << tag();
                if (m <= 64) {
                    rows.resize(m);
                    ASSERT_EQ(any_width, rows) << tag();
                    ASSERT_EQ(any_above, above) << tag();
                }
                compile_ball(g, v, k, compiled);
                const LocalTopology& view = compiled.view;
                ASSERT_EQ(m, view.size()) << tag();
                ASSERT_EQ(ordered.original(words.queue[0]), v);
                // The compiled view's links, renumbered to the copy's BFS
                // order, and the members above v.
                links.assign(m * nw, 0);
                higher.assign(nw, 0);
                const Priority pv = keys.evaluate(v, NodeStatus::kUnvisited);
                for (std::size_t i = 0; i < m; ++i) {
                    const NodeId x = ordered.original(words.queue[i]);
                    const std::uint32_t a = view.local_of(x);
                    ASSERT_NE(a, kNoLocal) << tag();
                    ASSERT_EQ(words.local(words.queue[i]), i) << tag();
                    for (const std::uint32_t b : view.row(a)) {
                        ASSERT_TRUE(words.member(internal[view.members[b]])) << tag();
                        const std::uint32_t j = words.local(internal[view.members[b]]);
                        links[i * nw + j / 64] |= std::uint64_t{1} << (j % 64);
                    }
                    if (keys.evaluate(x, NodeStatus::kUnvisited) > pv) {
                        higher[i / 64] |= std::uint64_t{1} << (i % 64);
                    }
                }
                ASSERT_EQ(any_width, links) << tag();
                ASSERT_EQ(any_above, higher) << tag();

                const auto nbrs = g.neighbors(v);
                const LocalTopology topo = local_topology(g, v, k);
                const std::size_t options = all_options(v) ? combos.size() : 2;
                for (int chain = 0; chain <= 4; ++chain) {
                    std::vector<NodeId> visited;
                    for (int c = 1; c < chain; ++c) {
                        visited.push_back(static_cast<NodeId>(rng.index(g.node_count())));
                    }
                    if (chain > 0 && !nbrs.empty()) {
                        visited.push_back(nbrs[rng.index(nbrs.size())]);
                    }
                    std::vector<NodeStatus> status(g.node_count(), NodeStatus::kInvisible);
                    for (const NodeId x : topo.members) status[x] = NodeStatus::kUnvisited;
                    for (const NodeId x : visited) {
                        if (status[x] != NodeStatus::kInvisible) status[x] = NodeStatus::kVisited;
                    }
                    const View view(LocalTopology(topo), std::move(status), &keys);
                    std::vector<NodeId> ordered_visited;
                    for (const NodeId x : visited) ordered_visited.push_back(internal[x]);
                    for (std::size_t o = 0; o < options; ++o) {
                        const CoverageOptions& opts = combos[o];
                        const bool got = ball_covered(ordered, internal[v], k, ordered_keys,
                                                      ordered_visited, opts, words);
                        const bool want = reference::evaluate_coverage(view, v, opts).covered;
                        ++decided;
                        multi_word += topo.size() > 64;
                        ASSERT_EQ(got, want)
                            << tag() << " chain " << chain << " strong " << opts.strong
                            << " hops " << opts.max_path_hops << " radius "
                            << opts.coverage_radius << " merge " << opts.merge_visited;
                    }
                }
            }
        }
    }
}

TEST(CoverageEquivalence, BallWordsMatchCompiledBalls) {
    Rng rng(20261019);
    std::size_t decided = 0;
    std::size_t multi_word = 0;
    for (int iter = 0; iter < 24; ++iter) {
        const std::size_t n = 30 + rng.index(61);  // 30..90
        const double degree = std::vector<double>{4.0, 6.0, 8.0, 12.0}[rng.index(4)];
        std::vector<Point2D> pts(n);
        for (Point2D& p : pts) {
            p.x = rng.uniform(0.0, 10.0);
            p.y = rng.uniform(0.0, 10.0);
        }
        const Graph g = unit_disk_graph(
            pts, std::sqrt(degree * 100.0 / (3.14159265358979323846 * static_cast<double>(n))));
        expect_ball_words_agree(
            g, [](NodeId v) { return v % 4 == 0; }, rng, "udg#" + std::to_string(iter), decided,
            multi_word);
    }

    // Balls of exactly 64, 65, 128 and 129 members around a known center,
    // at each k: the last layer inside the ball gets the remainder, and a
    // further layer lies outside it.  Every node decides; the center and
    // every fourth node run every option.
    for (const std::size_t members :
         {std::size_t{64}, std::size_t{65}, std::size_t{128}, std::size_t{129}}) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
            std::vector<std::size_t> layers{1};
            for (std::size_t d = 1; d < k; ++d) layers.push_back(6 + rng.index(10));
            std::size_t inside = 0;
            for (const std::size_t l : layers) inside += l;
            layers.push_back(members - inside);
            layers.push_back(10);
            NodeId center = 0;
            const Graph g = layered_graph(layers, 0.08, rng, &center);
            // The one-word pass hands a ball of more than 64 members over
            // mid-pass and returns its member count.
            const BfsGraph ordered(g);
            const BfsPriorityKeys ordered_keys(ordered, PriorityScheme::kId);
            BallMaskScratch ball;
            std::uint64_t rows[64];
            std::uint64_t above = 0;
            ASSERT_EQ(compile_ball_masks<1>(ordered, ordered.internal(center), k, ordered_keys,
                                            ball, 64, rows, &above),
                      members)
                << "k=" << k;
            expect_ball_words_agree(
                g, [center](NodeId v) { return v == center || v % 4 == 0; }, rng,
                "layered " + std::to_string(members) + " k=" + std::to_string(k), decided,
                multi_word);
        }
    }
    EXPECT_GE(decided, 10000u);
    EXPECT_GE(multi_word, 1000u);
}

}  // namespace
}  // namespace adhoc
