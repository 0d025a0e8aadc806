// Brute-force cross-validation of the coverage-condition implementations.
//
// The production code computes the full condition via connected components
// of the higher-priority subgraph and the strong condition via component
// domination.  These tests re-derive both from first principles on small
// random graphs — the full condition by exhaustive simple-path enumeration
// (a replacement path exists iff DFS finds one), the strong condition by
// exhaustive subset search for a connected dominating coverage set — and
// demand bit-identical verdicts, across random statuses and all priority
// schemes, with and without the visited-merge rule.

#include <gtest/gtest.h>

#include "core/coverage.hpp"
#include "core/view.hpp"
#include "graph/unit_disk.hpp"

namespace adhoc {
namespace {

/// DFS: does a simple path u -> w exist whose intermediates all satisfy
/// `admissible` (endpoints exempt)?  With the visited-merge rule, two
/// admissible *visited* intermediates are treated as adjacent.
bool path_exists_dfs(const View& view, NodeId u, NodeId w,
                     const std::vector<char>& admissible, bool merge_visited,
                     NodeId current, std::vector<char>& used) {
    if (current == w) return true;
    // Candidate next hops: graph neighbors, plus (merge rule) every other
    // visited admissible node when standing on a visited node.
    auto try_next = [&](NodeId next) {
        if (used[next]) return false;
        if (next != w && !admissible[next]) return false;
        used[next] = 1;
        const bool found = path_exists_dfs(view, u, w, admissible, merge_visited, next, used);
        used[next] = 0;
        return found;
    };
    for (NodeId next : view.neighbors(current)) {
        if (try_next(next)) return true;
    }
    // The merge rule connects ALL visited nodes — including a visited
    // path endpoint, so no `current != u` exemption here.
    (void)u;
    if (merge_visited && view.status(current) == NodeStatus::kVisited) {
        for (NodeId next = 0; next < view.node_count(); ++next) {
            if (view.status(next) == NodeStatus::kVisited && next != current &&
                admissible[next] && try_next(next)) {
                return true;
            }
        }
    }
    return false;
}

bool brute_force_full(const View& view, NodeId v, bool merge_visited,
                      NodeStatus self_status) {
    const Priority pv = view.keys().evaluate(v, self_status);
    const auto nv = view.neighbors(v);
    if (nv.size() <= 1) return true;

    std::vector<char> admissible(view.node_count(), 0);
    for (NodeId x = 0; x < view.node_count(); ++x) {
        if (x != v && view.visible(x) && view.priority(x) > pv) admissible[x] = 1;
    }
    for (std::size_t i = 0; i < nv.size(); ++i) {
        for (std::size_t j = i + 1; j < nv.size(); ++j) {
            std::vector<char> used(view.node_count(), 0);
            used[nv[i]] = 1;
            used[v] = 1;  // the replaced node cannot appear on its own path
            if (!path_exists_dfs(view, nv[i], nv[j], admissible, merge_visited, nv[i],
                                 used)) {
                return false;
            }
        }
    }
    return true;
}

bool brute_force_strong(const View& view, NodeId v, bool merge_visited,
                        NodeStatus self_status) {
    const Priority pv = view.keys().evaluate(v, self_status);
    const auto nv = view.neighbors(v);
    if (nv.size() <= 1) return true;

    std::vector<NodeId> candidates;
    for (NodeId x = 0; x < view.node_count(); ++x) {
        if (x != v && view.visible(x) && view.priority(x) > pv) candidates.push_back(x);
    }
    if (candidates.size() > 18) return false;  // keep the search tractable

    // Exhaust subsets: a coverage set must dominate N(v) and be connected
    // (with visited nodes treated as mutually adjacent when merging).
    for (std::uint32_t mask = 1; mask < (1u << candidates.size()); ++mask) {
        std::vector<NodeId> set;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (mask & (1u << i)) set.push_back(candidates[i]);
        }
        // Domination of N(v).
        bool dominates = true;
        for (NodeId u : nv) {
            bool ok = false;
            for (NodeId c : set) {
                if (c == u || view.has_edge(c, u)) {
                    ok = true;
                    break;
                }
            }
            if (!ok) {
                dominates = false;
                break;
            }
        }
        if (!dominates) continue;
        // Connectivity of the set.
        std::vector<char> in_set(view.node_count(), 0);
        for (NodeId c : set) in_set[c] = 1;
        std::vector<char> reached(view.node_count(), 0);
        std::vector<NodeId> stack{set.front()};
        reached[set.front()] = 1;
        while (!stack.empty()) {
            const NodeId x = stack.back();
            stack.pop_back();
            for (NodeId y : view.neighbors(x)) {
                if (in_set[y] && !reached[y]) {
                    reached[y] = 1;
                    stack.push_back(y);
                }
            }
            if (merge_visited && view.status(x) == NodeStatus::kVisited) {
                for (NodeId y : set) {
                    if (view.status(y) == NodeStatus::kVisited && !reached[y]) {
                        reached[y] = 1;
                        stack.push_back(y);
                    }
                }
            }
        }
        bool connected = true;
        for (NodeId c : set) connected = connected && reached[c];
        if (connected) return true;
    }
    return false;
}

struct RefParams {
    std::uint64_t seed;
    PriorityScheme priority;
};

class CoverageReference : public ::testing::TestWithParam<RefParams> {};

TEST_P(CoverageReference, ImplementationMatchesBruteForce) {
    const RefParams p = GetParam();
    Rng gen(p.seed);
    UnitDiskParams params;
    params.node_count = 10;
    params.average_degree = 4.0;

    for (int net_idx = 0; net_idx < 8; ++net_idx) {
        const auto net = generate_network_checked(params, gen);
        const PriorityKeys keys(net.graph, p.priority);

        // Random broadcast state.
        std::vector<char> visited(10, 0), designated(10, 0);
        for (int i = 0; i < 3; ++i) visited[gen.index(10)] = 1;
        for (int i = 0; i < 2; ++i) designated[gen.index(10)] = 1;

        for (NodeId v = 0; v < 10; ++v) {
            if (visited[v]) continue;
            for (std::size_t k : {2u, 0u}) {
                const View view = make_dynamic_view(net.graph, v, k, keys, visited, designated);
                for (bool merge : {true, false}) {
                    for (NodeStatus self :
                         {NodeStatus::kUnvisited, NodeStatus::kDesignated}) {
                        const CoverageOptions full{.strong = false, .merge_visited = merge};
                        const CoverageOptions strong{.strong = true, .merge_visited = merge};
                        ASSERT_EQ(coverage_condition_holds(view, v, full, self),
                                  brute_force_full(view, v, merge, self))
                            << "full mismatch: net " << net_idx << " v " << v << " k " << k
                            << " merge " << merge;
                        ASSERT_EQ(coverage_condition_holds(view, v, strong, self),
                                  brute_force_strong(view, v, merge, self))
                            << "strong mismatch: net " << net_idx << " v " << v << " k " << k
                            << " merge " << merge;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CoverageReference,
    ::testing::Values(RefParams{1, PriorityScheme::kId}, RefParams{2, PriorityScheme::kId},
                      RefParams{3, PriorityScheme::kDegree},
                      RefParams{4, PriorityScheme::kDegree}, RefParams{5, PriorityScheme::kNcr},
                      RefParams{6, PriorityScheme::kNcr}),
    [](const ::testing::TestParamInfo<RefParams>& info) {
        return "seed" + std::to_string(info.param.seed) + "_" + to_string(info.param.priority);
    });

}  // namespace
}  // namespace adhoc
