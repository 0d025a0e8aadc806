/// \file khop.hpp
/// \brief k-hop neighborhood sets and the Definition-2 local topology.
///
/// The paper is precise about what "k-hop information" means (Definition 2):
/// a node's local topology G_k(v) takes k rounds of "hello" exchanges to
/// build, so its node set is N_k(v) (all nodes within k hops) and its edge
/// set is E ∩ (N_{k-1}(v) × N_k(v)) — links between two nodes that are both
/// exactly k hops away from v are *invisible*.  Getting this boundary right
/// matters: Figure 6(a) in the paper hinges on link (7,8) being invisible
/// under 2-hop information.
///
/// A `LocalTopology` is the one stored form of a local view: the sorted
/// member list N_k(v) plus a CSR over local ids, so it costs O(ball), not
/// O(n).  `compile_ball` builds Definition-2 views; `induced_topology`
/// builds every other view (global, hello-built, hand-built).
/// `compile_ball_masks` (core/coverage.hpp) writes the same G_k(v) as
/// node-mask rows — one bitset per member, over members numbered in BFS
/// order — which is the form the coverage kernel decides on, in one pass
/// over `ScaleEngine`'s BFS-ordered copy of the graph.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace adhoc {

/// Nodes within `k` hops of `v` (including `v` itself), sorted ascending.
/// N_0(v) = {v}.
[[nodiscard]] std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k);

/// The 2-hop neighbor set N_2(v) *excluding* v itself — the set that
/// neighbor-designating algorithms (DP/PDP/TDP/MPR) must cover.
[[nodiscard]] std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v);

/// Sentinel for "no local id" / "unreached" in dense local-id arrays.
inline constexpr std::uint32_t kNoLocal = 0xffffffffu;

/// Local topology per Definition 2, over dense local ids.
///
/// Local id i names global node `members[i]`.  Members ascend, so local
/// ids order nodes exactly as their global ids do.  Row i of the CSR
/// (`offsets`/`edges`) lists the local ids of i's visible neighbors,
/// ascending.  Every array is sized by the ball N_k(v), never by n, and
/// only edges in E ∩ (N_{k-1}(v) × N_k(v)) are present.  The decision
/// kernels borrow these arrays directly; the topology must not be mutated
/// once a view refers to it.
struct LocalTopology {
    NodeId center = kInvalidNode;
    std::size_t hops = 0;  ///< the k it was built with (0 == global)
    /// Set by the hello layer when neighbor-liveness aging removed entries
    /// from this view: decisions taken against it are "stale-view
    /// decisions" (metered by the protocol's telemetry).  Analytic
    /// Definition-2 views are never stale.
    bool stale = false;
    std::size_t id_space = 0;            ///< n: every member id is < id_space
    std::vector<NodeId> members;         ///< visible nodes, ascending global ids
    std::vector<std::uint32_t> offsets;  ///< CSR rows, size members+1
    std::vector<std::uint32_t> edges;    ///< CSR columns (local ids), ascending per row

    [[nodiscard]] std::size_t size() const noexcept { return members.size(); }

    /// Local id of global node `v`, or kNoLocal when `v` is not visible.
    [[nodiscard]] std::uint32_t local_of(NodeId v) const noexcept {
        const auto it = std::lower_bound(members.begin(), members.end(), v);
        return it != members.end() && *it == v ? static_cast<std::uint32_t>(it - members.begin())
                                               : kNoLocal;
    }

    /// Neighbor row of local node `x` (local ids).
    [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t x) const noexcept {
        return {edges.data() + offsets[x], edges.data() + offsets[x + 1]};
    }

    /// Adjacency of two local ids; binary-searches the shorter row.
    [[nodiscard]] bool has_edge(std::uint32_t a, std::uint32_t b) const noexcept {
        if (row(a).size() > row(b).size()) std::swap(a, b);
        const auto r = row(a);
        return std::binary_search(r.begin(), r.end(), b);
    }

    friend bool operator==(const LocalTopology&, const LocalTopology&) = default;
};

/// Largest `k` a compiled ball accepts: hop distances are stored in 16
/// bits.
inline constexpr std::size_t kMaxBallHops = 65535;

/// Words in one node mask of a view with `m` members (at least one).
[[nodiscard]] inline constexpr std::size_t mask_words(std::size_t m) noexcept {
    return m <= 64 ? 1 : (m + 63) / 64;
}

/// The word of a `kWords`-word node mask that holds bit `i` (kWords == 0:
/// any word count).  A one-word mask always uses word 0, so one-word code
/// indexes its masks with constants and keeps them in registers.
template <std::size_t kWords>
[[nodiscard]] inline constexpr std::size_t mask_word(std::size_t i) noexcept {
    return kWords == 1 ? 0 : i / 64;
}

/// Caller-owned working memory and output of `compile_ball`.  The three
/// O(n) working arrays are validated by epoch stamps, so consecutive
/// compiles clear nothing, and every buffer only grows — zero allocations
/// per ball in steady state.  The BFS queue and the CSR column buffer are
/// written past their live end (a slot per scanned adjacency entry).
struct BallScratch {
    LocalTopology view;  ///< output of `compile_ball`: G_k(v)
    // Working set.
    std::vector<NodeId> bfs;           ///< BFS queue / discovery order
    std::vector<std::uint16_t> dist;   ///< hop distance from the center
    std::vector<std::uint32_t> stamp;  ///< epoch stamps validating dist/g2l
    std::vector<std::uint32_t> g2l;    ///< global -> local id
    std::vector<std::uint32_t> cols;   ///< CSR columns before the exact-size copy
    std::uint32_t epoch = 0;
};

/// The one Definition-2 compile: a BFS from `v` truncated at depth `k`
/// writes G_k(v) to `s.view` — N_k(v) as its members and
/// E ∩ (N_{k-1}(v) × N_k(v)) as its CSR.  Costs O(ball edges),
/// independent of n.  Throws std::invalid_argument when k > kMaxBallHops.
void compile_ball(const Graph& g, NodeId v, std::size_t k, BallScratch& s);

/// The builder for views that do not come from `compile_ball`: global
/// information (k == 0), hello-built views and hand-built test views.
/// Keeps the edges of `g` among `members` (ascending ids of `g`) and
/// drops every edge to a non-member.
[[nodiscard]] LocalTopology induced_topology(const Graph& g, NodeId center, std::size_t hops,
                                             std::vector<NodeId> members);

/// Extracts G_k(v): a copy of `compile_ball`'s output.  `k == 0` is
/// interpreted as *global* information (the whole graph is visible); the
/// paper's sweeps use k ∈ {2,3,4,5, global}.  Throws
/// std::invalid_argument when k > kMaxBallHops.
[[nodiscard]] LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k);

/// No-op: every LocalTopology carries its CSR from construction.  Kept
/// only because perfbench/ still calls it.
inline void compile_topology(LocalTopology& /*topo*/) {}

}  // namespace adhoc
