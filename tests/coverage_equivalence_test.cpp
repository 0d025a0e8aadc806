// Property test: the optimized compact-view kernels are bit-for-bit
// equivalent to the retained naive `reference::` implementations.
//
// The production hot path (coverage.cpp, maxmin.cpp) compiles each view
// into a dense-id CSR with per-thread scratch and word-parallel bitsets;
// the reference family scans global ids with per-call allocations.  The
// refactor's contract is that the two families agree on *everything
// observable* — verdicts, witness pairs, component labels, reachability
// masks, max-min nodes and full maximal paths — for every graph shape and
// every CoverageOptions combination.  These tests sweep random unit-disk
// placements (the simulation workload), adversarial structured graphs,
// G(n,p) noise, and both owning and KnowledgeBase-cached borrowing views.

#include <gtest/gtest.h>

#include <vector>

#include "core/coverage.hpp"
#include "core/maxmin.hpp"
#include "core/priority.hpp"
#include "core/view.hpp"
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
        ASSERT_EQ(higher_priority_components(view, pv, true),
                  reference::higher_priority_components(view, pv, true))
            << label << " node " << v;
        ASSERT_EQ(higher_priority_components(view, pv, false),
                  reference::higher_priority_components(view, pv, false))
            << label << " node " << v;
        ASSERT_EQ(connected_via_higher_priority(view, v, pv),
                  reference::connected_via_higher_priority(view, v, pv))
            << label << " node " << v;
    }
}

/// MAX_MIN agreement over every neighbor pair of every node (the Lemma 1
/// machinery shares the compact compilation with the coverage kernels).
void expect_maxmin_agrees(const View& view, const std::string& label) {
    for (NodeId v = 0; v < view.node_count(); ++v) {
        if (!view.visible(v)) continue;
        const Priority pv = view.priority(v);
        const auto nv = view.neighbors(v);
        for (std::size_t i = 0; i < nv.size(); ++i) {
            for (std::size_t j = i + 1; j < nv.size(); ++j) {
                ASSERT_EQ(max_min_node(view, nv[i], nv[j], pv),
                          reference::max_min_node(view, nv[i], nv[j], pv))
                    << label << " v=" << v << " u=" << nv[i] << " w=" << nv[j];
                ASSERT_EQ(max_min_path(view, nv[i], nv[j], pv),
                          reference::max_min_path(view, nv[i], nv[j], pv))
                    << label << " v=" << v << " u=" << nv[i] << " w=" << nv[j];
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
            expect_maxmin_agrees(view, name);
        }
    }
}

// The KnowledgeBase path hands kernels a *borrowing* view whose CSR comes
// from the precompiled LocalTopology cache — a different code path through
// LocalViewScratch::compile than owning views take.  Both must agree with
// the reference on identical state.
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
        expect_maxmin_agrees(view, "maxmin#" + std::to_string(iter));
    }
}

}  // namespace
}  // namespace adhoc
