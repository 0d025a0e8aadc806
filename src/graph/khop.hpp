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

#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace adhoc {

/// Nodes within `k` hops of `v` (including `v` itself), sorted ascending.
/// N_0(v) = {v}.
[[nodiscard]] std::vector<NodeId> k_hop_nodes(const Graph& g, NodeId v, std::size_t k);

/// The 2-hop neighbor set N_2(v) *excluding* v itself — the set that
/// neighbor-designating algorithms (DP/PDP/TDP/MPR) must cover.
[[nodiscard]] std::vector<NodeId> two_hop_cover_set(const Graph& g, NodeId v);

/// Largest `k` a compiled ball accepts: hop distances are stored in 16
/// bits.
inline constexpr std::size_t kMaxBallHops = 65535;

/// Caller-owned working memory and output of `compile_ball`.  The three
/// O(n) arrays are validated by epoch stamps, so consecutive compiles
/// clear nothing, and every buffer only grows — zero allocations per ball
/// in steady state.
struct BallScratch {
    // Output: G_k(v) over dense local ids (position in `members`).
    std::vector<NodeId> members;         ///< N_k(v), ascending global ids
    std::vector<std::uint32_t> offsets;  ///< CSR rows, size members+1
    std::vector<std::uint32_t> edges;    ///< CSR columns (local ids), ascending per row
    // Working set.
    std::vector<NodeId> bfs;           ///< BFS queue / discovery order
    std::vector<std::uint16_t> dist;   ///< hop distance from the center
    std::vector<std::uint32_t> stamp;  ///< epoch stamps validating dist/g2l
    std::vector<std::uint32_t> g2l;    ///< global -> local id
    std::uint32_t epoch = 0;

    /// Heap bytes held (capacity, not size).
    [[nodiscard]] std::size_t bytes() const noexcept;
};

/// The one Definition-2 compile: a BFS from `v` truncated at depth `k`
/// writes N_k(v) to `s.members` (ascending) and E ∩ (N_{k-1}(v) × N_k(v))
/// to `s.offsets`/`s.edges` as a CSR over local ids.  Costs O(ball edges),
/// independent of n.  Throws std::invalid_argument when k > kMaxBallHops.
void compile_ball(const Graph& g, NodeId v, std::size_t k, BallScratch& s);

/// Flat CSR adjacency of a LocalTopology's visible subgraph over dense
/// local ids (position in `members`).  Edges between two exactly-k-hop
/// nodes are absent by construction of the topology itself.
/// `local_topology` (k >= 1) returns it filled; `compile_topology` builds
/// it for global and hand-built views.  The decision kernels borrow these
/// contiguous arrays instead of pointer-chasing the Graph's per-node heap
/// rows on every call.  Empty `offsets` means "not built".
struct CompactTopology {
    std::vector<std::uint32_t> offsets;  ///< size members+1 when built
    std::vector<std::uint32_t> edges;    ///< local ids, ascending per row
};

/// Local topology per Definition 2.
///
/// The returned graph has the same node-id space as `g`; nodes outside
/// N_k(v) are isolated, and only edges in E ∩ (N_{k-1}(v) × N_k(v)) are
/// present.  `visible[u]` marks membership in N_k(v).
struct LocalTopology {
    Graph graph;                ///< subgraph on the original id space
    std::vector<char> visible;  ///< visible[u] == 1 iff u ∈ N_k(v)
    NodeId center = kInvalidNode;
    std::size_t hops = 0;       ///< the k it was built with (0 == global)
    /// Visible node ids in ascending order — the dense-id compilation of
    /// the view iterates this instead of scanning all n nodes.  Empty means
    /// "not computed" (hand-built topologies); consumers fall back to
    /// scanning `visible`.
    std::vector<NodeId> members;
    /// Dense-id CSR (see CompactTopology); the topology must not be
    /// mutated once it is built.
    CompactTopology compact;
    /// Set by the hello layer when neighbor-liveness aging removed entries
    /// from this view: decisions taken against it are "stale-view
    /// decisions" (metered by the protocol's telemetry).  Analytic
    /// Definition-2 views are never stale.
    bool stale = false;
};

/// Fills `topo.members` from `topo.visible` (ascending).  No-op when the
/// member list is already populated.
void populate_members(LocalTopology& topo);

/// Builds `topo.compact` (populating `members` first if needed) for
/// global and hand-built views.  No-op when already built, which
/// `local_topology` views with k >= 1 always are.
void compile_topology(LocalTopology& topo);

/// Extracts G_k(v) via `compile_ball`, with `members` and `compact`
/// filled.  `k == 0` is interpreted as *global* information (the whole
/// graph is visible); the paper's sweeps use k ∈ {2,3,4,5, global}.
/// Throws std::invalid_argument when k > kMaxBallHops.
[[nodiscard]] LocalTopology local_topology(const Graph& g, NodeId v, std::size_t k);

}  // namespace adhoc
